//! Snapshot-backed workflows: archive a scan, report from an archive,
//! diff two archives.
//!
//! This is the `govscan-store` integration for the reproduction CLI.
//! `scan` is the only mode that generates a world; `report` and `diff`
//! operate purely on archived files — the point of the archive is that
//! the expensive part (worldgen + full scan, minutes at paper scale)
//! happens once, and every later analysis is a cold load away.

use std::path::Path;

use govscan_analysis::aggregate::AggregateIndex;
use govscan_analysis::{choropleth, durations, ev, hsts, issuers, keys, reuse, table2};
use govscan_store::{diff_snapshot_files, Delta, Result, Snapshot, DELTA_MAGIC, MAGIC};

use crate::{experiments, Env};

/// Run the study and archive the worldwide scan to `out`.
///
/// Returns a human-readable receipt (path, size, host count, digest).
pub fn scan_to(out: &Path) -> Result<String> {
    let env = Env::load();
    let bytes = Snapshot::write_file(out, &env.study.scan)?;
    Ok(format!(
        "wrote {} ({bytes} bytes, {} hosts, digest {})\n",
        out.display(),
        env.study.scan.len(),
        Snapshot::digest_of(&env.study.scan)?.to_hex(),
    ))
}

/// Run the full §7.2 disclosure arc and archive both sides of the
/// sixty-day comparison: the original scan to `before`, the follow-up
/// scan (previously-invalid + previously-unreachable pools) to `after`.
/// `diff` over the two files then reproduces Figure 13 offline.
pub fn rescan_to(before: &Path, after: &Path) -> Result<String> {
    let mut env = Env::load();
    let followup = govscan_disclosure::run_arc(&mut env.world, &env.study.scan).followup;
    let b = Snapshot::write_file(before, &env.study.scan)?;
    let a = Snapshot::write_file(after, &followup)?;
    Ok(format!(
        "wrote {} ({b} bytes, {} hosts) and {} ({a} bytes, {} hosts)\n",
        before.display(),
        env.study.scan.len(),
        after.display(),
        followup.len(),
    ))
}

/// Render the paper-figure report set from one dataset index. Each
/// section is titled with the registry label of the experiment whose
/// figure it renders ([`experiments::all`]), so `snapshot report` names
/// its sections as `repro` does.
pub fn render_report(index: &AggregateIndex) -> String {
    let sections: [(&str, String); 8] = [
        ("table2_worldwide", table2::build_from_index(index).render()),
        (
            "fig1_choropleth",
            choropleth::build_from_index(index).render(),
        ),
        (
            "fig2_issuers",
            issuers::build_from_index(index, 40).render(),
        ),
        (
            "fig3_durations",
            durations::build_from_index(index).render(),
        ),
        ("fig4_keys", keys::build_from_index(index).render()),
        ("reuse_keys", reuse::build_from_index(index).render()),
        ("hsts_adoption", hsts::build_from_index(index).render()),
        ("ev_issuers", ev::build_from_index(index).render()),
    ];
    let mut out = String::new();
    for (key, body) in sections {
        let (title, _) = experiments::find(key).expect("every section is a registered experiment");
        out.push_str("--- ");
        out.push_str(title);
        out.push_str(" ---\n");
        out.push_str(&body);
        out.push('\n');
    }
    out
}

/// Load an archived scan and render the full report set from it — no
/// world generation, no scanning.
pub fn report_from(path: &Path) -> Result<String> {
    let snap = Snapshot::open(path)?;
    let mut out = snap.describe()?;
    let dataset = snap.dataset()?;
    out.push('\n');
    out.push_str(&render_report(&AggregateIndex::build(&dataset)));
    Ok(out)
}

/// Describe an archive or delta file without decoding its payload:
/// format family (by magic), version, counts, sections, digest prefix.
///
/// Dispatches on the 8-byte magic so one subcommand answers "what is
/// this file?" for both `GOVSNAP1` full archives and `GOVDLT1` deltas;
/// anything else reports the foreign prefix and fails typed.
pub fn info_file(path: &Path) -> Result<String> {
    let bytes = std::fs::read(path)?;
    let mut out = format!("{}:\n", path.display());
    if bytes.starts_with(&MAGIC) {
        let snap = Snapshot::from_bytes(bytes)?;
        out.push_str(&snap.describe()?);
        out.push_str(&format!("digest: {}\n", snap.digest()));
    } else if bytes.starts_with(&DELTA_MAGIC) {
        let delta = Delta::from_bytes(bytes)?;
        out.push_str(&delta.describe());
    } else {
        // Neither family: let the archive parser produce its typed
        // BadMagic/Truncated error so the CLI fails with the prefix.
        Snapshot::from_bytes(bytes)?;
    }
    Ok(out)
}

/// Diff two archived scans: host-state migrations plus, when the pair
/// is an original/follow-up disclosure pair, the §7.2.2 Figure 13
/// report — all computed from the files alone.
pub fn diff_files(before: &Path, after: &Path) -> Result<String> {
    let mut out = diff_snapshot_files(before, after)?.render();
    out.push_str("-- §7.2.2 effectiveness (Figure 13) --\n");
    out.push_str(&govscan_disclosure::rescan_from_snapshots(before, after)?.render());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use govscan_pki::Time;
    use govscan_scanner::ScanDataset;

    use super::*;

    #[test]
    fn report_sections_carry_the_registry_labels() {
        let index = AggregateIndex::build(&ScanDataset::new(Vec::new(), Time(0)));
        let report = render_report(&index);
        let titles: Vec<&str> = report
            .lines()
            .filter_map(|line| line.strip_prefix("--- ")?.strip_suffix(" ---"))
            .collect();
        assert_eq!(
            titles,
            [
                "table2_worldwide (Table 2)",
                "fig1_choropleth (Figure 1)",
                "fig2_issuers (Figure 2)",
                "fig3_durations (Figure 3, §5.3.1)",
                "fig4_keys (Figure 4, §5.3.2)",
                "reuse_keys (§5.3.3)",
                "hsts_adoption (extension, §8.2)",
                "ev_issuers (Figures A.2/A.3/A.6)",
            ]
        );
    }
}
