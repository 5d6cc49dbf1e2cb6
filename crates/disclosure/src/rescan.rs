//! §7.2.2: the two-months-later effectiveness re-scan.
//!
//! The follow-up measured only the previously-invalid hosts (15,179 in
//! the paper) and the previously-unreachable pool — not a full re-scan —
//! so, like the paper, this module "cannot measure deterioration".

use std::collections::BTreeMap;

use govscan_scanner::{ScanDataset, StudyPipeline};
use govscan_worldgen::World;

/// A numerator/denominator fraction (kept local to avoid a dependency
/// on the analysis crate).
fn fraction(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The §7.2.2 report.
#[derive(Debug, Clone, Default)]
pub struct RescanReport {
    /// Previously invalid hosts re-scanned.
    pub previously_invalid: u64,
    /// … now unreachable (assumed removed on purpose).
    pub now_unreachable: u64,
    /// … now valid (fixed).
    pub now_valid: u64,
    /// … still invalid.
    pub still_invalid: u64,
    /// Previously unreachable hosts re-scanned.
    pub previously_unreachable: u64,
    /// … still unreachable.
    pub still_unreachable: u64,
    /// … now serving valid https.
    pub unreachable_now_valid: u64,
    /// … now serving invalid https.
    pub unreachable_now_invalid: u64,
    /// Per-country improvement among previously-invalid hosts.
    pub per_country: BTreeMap<&'static str, (u64, u64)>, // (fixed-or-gone, total)
}

/// Run the §7.2.2 follow-up scan against the (post-remediation) world:
/// the previously-invalid hosts plus the previously-unreachable pool,
/// two months after the original snapshot, merged into one dataset.
///
/// [`crate::run_arc`] runs it as the arc's last step. Archive the result
/// with `govscan_store` and the comparison can be replayed later by
/// [`rescan_from_snapshots`] with no `World` at all.
pub fn followup_scan(world: &World, original: &ScanDataset, unreachable: &[String]) -> ScanDataset {
    let pipeline = StudyPipeline::new(world).with_scan_time(world.scan_time().plus_days(60));
    let invalid_hosts: Vec<String> = original.invalid().map(|r| r.hostname.clone()).collect();
    let mut followup = pipeline.scan_list(&invalid_hosts);
    // The two target lists are disjoint (invalid ⊆ available), so this
    // merge appends without collisions.
    let replaced = followup.extend(pipeline.scan_list(unreachable));
    debug_assert_eq!(replaced, 0, "invalid and unreachable pools are disjoint");
    followup
}

/// Compute the §7.2.2 report from the original scan and a follow-up
/// scan of the invalid + unreachable pools. Pure data comparison — this
/// is the single code path behind both the live arc
/// ([`crate::run_arc`]) and the snapshot-backed [`rescan_from_snapshots`].
///
/// A previously-invalid host missing from `followup` is skipped
/// entirely (it was never re-measured, so it belongs in no outcome
/// bucket); the live path always re-measures every host, so this only
/// matters for hand-built or partial archives.
pub fn rescan_from_datasets(
    original: &ScanDataset,
    followup: &ScanDataset,
    unreachable: &[String],
) -> RescanReport {
    let mut report = RescanReport::default();

    for o in original.invalid() {
        let Some(r) = followup.get(&o.hostname) else {
            continue;
        };
        report.previously_invalid += 1;
        let country = o.country;
        if let Some(cc) = country {
            report.per_country.entry(cc).or_insert((0, 0)).1 += 1;
        }
        if !r.available {
            report.now_unreachable += 1;
            if let Some(cc) = country {
                report.per_country.get_mut(cc).expect("just inserted").0 += 1;
            }
        } else if r.https.is_valid() {
            report.now_valid += 1;
            if let Some(cc) = country {
                report.per_country.get_mut(cc).expect("just inserted").0 += 1;
            }
        } else {
            report.still_invalid += 1;
        }
    }

    for hostname in unreachable {
        let Some(r) = followup.get(hostname) else {
            continue;
        };
        report.previously_unreachable += 1;
        if !r.available {
            report.still_unreachable += 1;
        } else if r.https.is_valid() {
            report.unreachable_now_valid += 1;
        } else if r.https.attempts() {
            report.unreachable_now_invalid += 1;
        }
    }
    report
}

/// The previously-unreachable pool: the original scan's unavailable
/// hostnames, in record order. It is recovered from the scan itself, so
/// an archived original is all the replay needs.
pub fn unreachable_pool(original: &ScanDataset) -> Vec<String> {
    original
        .records()
        .iter()
        .filter(|r| !r.available)
        .map(|r| r.hostname.clone())
        .collect()
}

/// Produce the §7.2.2 report from two archived snapshot files: the
/// original full scan and a follow-up scan (as written by
/// [`followup_scan`] → `govscan_store::Snapshot::write_file`).
///
/// The previously-unreachable pool is recovered from the original
/// snapshot itself ([`unreachable_pool`]), so the two files are the
/// complete input — no live `World`, no regeneration.
pub fn rescan_from_snapshots(
    original: impl AsRef<std::path::Path>,
    followup: impl AsRef<std::path::Path>,
) -> Result<RescanReport, govscan_store::StoreError> {
    let original = govscan_store::Snapshot::open(original)?.dataset()?;
    let followup = govscan_store::Snapshot::open(followup)?.dataset()?;
    Ok(rescan_from_datasets(
        &original,
        &followup,
        &unreachable_pool(&original),
    ))
}

impl RescanReport {
    /// Strict improvement: fixed hosts only (paper: 8.3%).
    pub fn strict_improvement(&self) -> f64 {
        fraction(self.now_valid, self.previously_invalid)
    }

    /// Optimistic improvement: fixed + removed (paper: 18.7%).
    pub fn optimistic_improvement(&self) -> f64 {
        fraction(
            self.now_valid + self.now_unreachable,
            self.previously_invalid,
        )
    }

    /// Countries showing at least `threshold` improvement (paper: 62
    /// countries ≥10%; 7 countries ≥40%).
    pub fn countries_improving_at_least(&self, threshold: f64) -> Vec<&'static str> {
        self.per_country
            .iter()
            .filter(|(_, (fixed, total))| *total > 0 && *fixed as f64 / *total as f64 >= threshold)
            .map(|(cc, _)| *cc)
            .collect()
    }

    /// Render.
    pub fn render(&self) -> String {
        format!(
            "previously invalid: {} → fixed {} / removed {} / still invalid {}\n\
             strict improvement {:.1}%, optimistic {:.1}%\n\
             previously unreachable: {} → still gone {} / now valid {} / now invalid {}\n\
             countries ≥10% improvement: {}, ≥40%: {}\n",
            self.previously_invalid,
            self.now_valid,
            self.now_unreachable,
            self.still_invalid,
            self.strict_improvement() * 100.0,
            self.optimistic_improvement() * 100.0,
            self.previously_unreachable,
            self.still_unreachable,
            self.unreachable_now_valid,
            self.unreachable_now_invalid,
            self.countries_improving_at_least(0.10).len(),
            self.countries_improving_at_least(0.40).len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign;
    use crate::remediation;
    use govscan_worldgen::WorldConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    static REPORT: OnceLock<RescanReport> = OnceLock::new();

    fn report() -> &'static RescanReport {
        REPORT.get_or_init(|| {
            let mut world = World::generate(&WorldConfig::small(0xE5CA));
            let out = StudyPipeline::new(&world).run();
            let unreachable = unreachable_pool(&out.scan);
            let mut rng = StdRng::seed_from_u64(21);
            let camp = campaign::run(&out.scan, &mut rng, world.config.seed);
            remediation::apply(&mut world, &out.scan, &unreachable, &camp, &mut rng);
            let followup = followup_scan(&world, &out.scan, &unreachable);
            rescan_from_datasets(&out.scan, &followup, &unreachable)
        })
    }

    #[test]
    fn improvement_rates_match_paper_band() {
        let r = report();
        let strict = r.strict_improvement();
        let optimistic = r.optimistic_improvement();
        // Paper: 8.3% strict, 18.7% optimistic.
        assert!((0.04..0.20).contains(&strict), "strict {strict}");
        assert!(
            (0.10..0.33).contains(&optimistic),
            "optimistic {optimistic}"
        );
        assert!(optimistic > strict);
    }

    #[test]
    fn most_hosts_stay_broken() {
        let r = report();
        assert!(
            r.still_invalid * 2 > r.previously_invalid,
            "{} of {} still invalid",
            r.still_invalid,
            r.previously_invalid
        );
    }

    #[test]
    fn unreachable_pool_mostly_stays_gone() {
        let r = report();
        let gone = r.still_unreachable as f64 / r.previously_unreachable.max(1) as f64;
        assert!((0.6..0.95).contains(&gone), "still gone {gone}");
        assert!(r.unreachable_now_valid > r.unreachable_now_invalid);
    }

    #[test]
    fn some_countries_improve_strongly() {
        let r = report();
        let ten = r.countries_improving_at_least(0.10).len();
        assert!(ten >= 5, "≥10% improvers: {ten}");
    }

    #[test]
    fn accounting_is_consistent() {
        let r = report();
        assert_eq!(
            r.previously_invalid,
            r.now_valid + r.now_unreachable + r.still_invalid
        );
    }

    #[test]
    fn renders() {
        assert!(report().render().contains("strict improvement"));
    }
}
