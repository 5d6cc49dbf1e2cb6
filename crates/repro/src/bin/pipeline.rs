//! Streamed generate→scan→archive pipeline CLI (DESIGN.md §14).
//!
//! ```text
//! GOVSCAN_SCALE=10 pipeline --shard-window 4 --out big.snap   streamed run
//! GOVSCAN_SCALE=1 pipeline --out a.snap --self-check          then the materialized
//!                                                             arm; assert equal digests
//! ```
//!
//! The receipt line carries hosts/s, the writer's peak pooled bytes and
//! the process's peak RSS; the start-up line names the SHA-256 kernel
//! the CPU selected, so a throughput figure records what produced it.
//! Honours `GOVSCAN_SCALE`, `GOVSCAN_SEED` and, for the producer pool,
//! `GOVSCAN_THREADS`; any other argument, `--scale` included, is a usage
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use govscan_repro::env_params;
use govscan_repro::pipeline::{materialize_scan_archive, stream_scan_archive};

fn usage() -> ExitCode {
    eprintln!("usage: pipeline --out <path> [--shard-window <K>] [--self-check]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut out = None;
    let mut window = 4;
    let mut self_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().map(PathBuf::from),
            "--shard-window" => match args.next().map(|s| s.parse()) {
                Some(Ok(w)) => window = w,
                _ => return usage(),
            },
            "--self-check" => self_check = true,
            // `--scale` included: the scale is `GOVSCAN_SCALE`'s.
            _ => return usage(),
        }
    }
    let Some(out) = out else {
        return usage();
    };

    let config = env_params();
    let threads = govscan_exec::resolve_threads("GOVSCAN_THREADS");
    eprintln!(
        "[pipeline] seed={} scale={} window={window} threads={threads} sha256={}",
        config.seed,
        config.scale,
        govscan_crypto::sha256::kernel()
    );

    let report = match stream_scan_archive(&config, &out, window, threads) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pipeline: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());

    if self_check {
        // Re-run the materialized reference arm next to `out` and
        // compare digests.
        let mut other = out.clone();
        other.set_extension("check.snap");
        let check = match materialize_scan_archive(&config, &other) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("pipeline: self-check arm failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        std::fs::remove_file(&other).ok();
        if check.digest != report.digest {
            eprintln!(
                "pipeline: SELF-CHECK FAILED: {} digest {} != {} digest {}",
                report.mode, report.digest, check.mode, check.digest
            );
            return ExitCode::FAILURE;
        }
        println!("self-check ok: both arms digest {}", report.digest);
    }
    ExitCode::SUCCESS
}
