//! Snapshot CLI: archive scans and analyse them offline.
//!
//! ```text
//! snapshot scan --out scan.snap              run the study, archive the scan
//! snapshot rescan --out-before a --out-after b
//!                                            archive both sides of the §7.2
//!                                            disclosure comparison
//! snapshot report --from scan.snap           full figure set from a file
//! snapshot diff before.snap after.snap       migrations + Figure 13 offline
//! snapshot info chain/epoch-3.dlt            header/meta of any archive or
//!                                            delta file
//! ```
//!
//! `scan`/`rescan` honour `GOVSCAN_SCALE` / `GOVSCAN_SEED`; `report`,
//! `diff`, and `info` never generate a world. An argument a subcommand
//! does not take, a repeated flag, a flag without its value or an extra
//! operand is a usage error (exit status 2) before any world is built.

use std::path::PathBuf;
use std::process::ExitCode;

use govscan_repro::snapshot;

fn usage() -> ExitCode {
    eprintln!(
        "usage: snapshot scan --out <path>\n\
         \u{20}      snapshot rescan --out-before <path> --out-after <path>\n\
         \u{20}      snapshot report --from <path>\n\
         \u{20}      snapshot diff <before> <after>\n\
         \u{20}      snapshot info <path>"
    );
    ExitCode::from(2)
}

/// An operand or flag value, as opposed to a flag.
fn is_operand(arg: &str) -> bool {
    !arg.starts_with("--")
}

/// The values of `names`, in that order, when `args` is each of those
/// flags exactly once, each followed by its value, in any order.
fn flags<const N: usize>(args: &[String], names: [&str; N]) -> Option<[PathBuf; N]> {
    let mut values: [Option<PathBuf>; N] = std::array::from_fn(|_| None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return None };
        let slot = &mut values[names.iter().position(|n| n == flag)?];
        if slot.is_some() || !is_operand(value) {
            return None;
        }
        *slot = Some(PathBuf::from(value));
    }
    let values: Vec<PathBuf> = values.into_iter().collect::<Option<_>>()?;
    values.try_into().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let result = match (command.as_str(), rest) {
        ("scan", _) => match flags(rest, ["--out"]) {
            Some([out]) => snapshot::scan_to(&out),
            None => return usage(),
        },
        ("rescan", _) => match flags(rest, ["--out-before", "--out-after"]) {
            Some([before, after]) => snapshot::rescan_to(&before, &after),
            None => return usage(),
        },
        ("report", _) => match flags(rest, ["--from"]) {
            Some([from]) => snapshot::report_from(&from),
            None => return usage(),
        },
        ("info", [path]) if is_operand(path) => snapshot::info_file(path.as_ref()),
        ("diff", [before, after]) if is_operand(before) && is_operand(after) => {
            snapshot::diff_files(before.as_ref(), after.as_ref())
        }
        _ => return usage(),
    };
    match result {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("snapshot: {e}");
            ExitCode::FAILURE
        }
    }
}
