//! Streamed generate→scan→archive pipeline CLI (DESIGN.md §14).
//!
//! ```text
//! pipeline --scale 10 --shard-window 4 --out big.snap   streamed run
//! pipeline --scale 1 --out a.snap --self-check          then the materialized
//!                                                       arm; assert equal digests
//! ```
//!
//! The receipt line carries hosts/s, the writer's peak pooled bytes and
//! the process's peak RSS. Honours `GOVSCAN_SEED` and
//! `GOVSCAN_PIPELINE_THREADS` (then `GOVSCAN_THREADS`).

use std::path::PathBuf;
use std::process::ExitCode;

use govscan_repro::env_params;
use govscan_repro::pipeline::{materialize_scan_archive, pipeline_threads, stream_scan_archive};
use govscan_worldgen::WorldConfig;

fn usage() -> ExitCode {
    eprintln!("usage: pipeline --scale <N> --out <path> [--shard-window <K>] [--self-check]");
    ExitCode::from(2)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(out) = flag_value(&args, "--out").map(PathBuf::from) else {
        return usage();
    };
    let scale: f64 = match flag_value(&args, "--scale").map(|s| s.parse()) {
        Some(Ok(s)) if s > 0.0 => s,
        Some(_) => return usage(),
        None => 1.0,
    };
    let window: usize = match flag_value(&args, "--shard-window").map(|s| s.parse()) {
        Some(Ok(w)) => w,
        Some(Err(_)) => return usage(),
        None => 4,
    };
    let self_check = args.iter().any(|a| a == "--self-check");

    let (seed, _) = env_params();
    let mut config = WorldConfig::paper_scale(seed);
    config.scale = scale;

    let threads = pipeline_threads();
    eprintln!("[pipeline] seed={seed} scale={scale} window={window} threads={threads}");

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
