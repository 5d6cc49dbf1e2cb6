//! Distributed-scan CLI: the streamed pipeline across socket workers on
//! 127.0.0.1, checked against the single-process streamed run.
//!
//! ```text
//! distributed --workers 4                    lease shards to 4 workers
//! distributed --workers 2 --inject-death     kill whichever worker draws shard 0 (CI smoke)
//! distributed --workers 4 --out scan.snap    keep the archive
//! ```
//!
//! Honours `GOVSCAN_SCALE` / `GOVSCAN_SEED`, and `GOVSCAN_THREADS` for
//! the streamed reference run. Exits non-zero if the distributed
//! archive's digest differs from the streamed run's.

use std::path::PathBuf;
use std::process::ExitCode;

use govscan_repro::distributed::{self, Options};
use govscan_repro::env_params;

fn usage() -> ExitCode {
    eprintln!("usage: distributed [--workers N] [--inject-death] [--out <path>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        workers: 2,
        inject_death: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                opts.workers = n;
                i += 2;
            }
            "--inject-death" => {
                opts.inject_death = true;
                i += 1;
            }
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                opts.out = Some(PathBuf::from(path));
                i += 2;
            }
            _ => return usage(),
        }
    }
    match distributed::run(&env_params(), &opts) {
        Ok(report) => {
            println!("== distributed scan ==");
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("distributed: {e}");
            ExitCode::FAILURE
        }
    }
}
