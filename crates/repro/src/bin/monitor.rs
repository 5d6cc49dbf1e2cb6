//! Longitudinal monitor CLI (DESIGN.md §15).
//!
//! ```text
//! monitor --epochs 12 --out-dir chain/            weekly epochs, delta chain
//! monitor --epochs 4 --self-check                 digest-prove every epoch
//! monitor --epochs 12 --json                      trend series as JSON (`/trends`' points)
//! ```
//!
//! Runs the baseline full scan plus `--epochs` weekly epochs of the
//! evolving world, rescanning incrementally and (with `--out-dir`)
//! writing `epoch-0.snap` + `epoch-<k>.dlt` per epoch; a run with
//! `--out-dir` ends by proving the on-disk chain identical to the final
//! archive. `--self-check` proves each epoch's archive digest-identical
//! to full rescans (the same scan with no previous epoch) at one and at
//! `max(2, GOVSCAN_THREADS)` workers and, past the baseline, to
//! incremental rescans at the same counts and the applied delta.
//!
//! The start-up line names the SHA-256 kernel the CPU selected. Honours
//! `GOVSCAN_SCALE`, `GOVSCAN_SEED` and `GOVSCAN_THREADS`. Any other
//! argument, or a flag left without its value, is a usage error (exit
//! status 2) before any world is built.

use std::path::PathBuf;
use std::process::ExitCode;

use govscan_monitor::{Monitor, MonitorConfig};
use govscan_repro::env_params;
use govscan_serve::api::epoch_point_json;
use govscan_serve::json::Json;
use govscan_worldgen::EvolveConfig;

fn usage() -> ExitCode {
    eprintln!("usage: monitor [--epochs <N>] [--out-dir <dir>] [--self-check] [--json]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut epochs: u32 = 12;
    let mut out_dir = None;
    let mut self_check = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--epochs" => match args.next().map(|s| s.parse()) {
                Some(Ok(n)) if n > 0 => epochs = n,
                _ => return usage(),
            },
            "--out-dir" => match args.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--self-check" => self_check = true,
            "--json" => json = true,
            // `--help` included.
            _ => return usage(),
        }
    }

    let world = env_params();
    let threads = govscan_exec::resolve_threads("GOVSCAN_THREADS");
    eprintln!(
        "[govscan] monitor: seed={}, scale={}, {epochs} weekly epochs, \
         {threads} threads{}, sha256={}",
        world.seed,
        world.scale,
        if self_check { ", self-check" } else { "" },
        govscan_crypto::sha256::kernel()
    );

    let monitor = Monitor::new(MonitorConfig {
        world,
        evolve: EvolveConfig::weekly(),
        epochs,
        threads,
        out_dir: out_dir.clone(),
        self_check,
    });
    match monitor.run() {
        Ok(report) => {
            if json {
                let points = report.trends.points.iter().map(epoch_point_json);
                println!("{}", Json::array(points).encode());
            } else {
                print!("{}", report.render());
                print!("{}", report.trends.render());
            }
            if let Some(dir) = &out_dir {
                eprintln!(
                    "[govscan] chain written under {}, chain == final archive",
                    dir.display()
                );
            }
            if self_check {
                eprintln!(
                    "[govscan] self-check passed: incremental == full at 1 and \
                     {} threads",
                    threads.max(2)
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("monitor: {e}");
            ExitCode::FAILURE
        }
    }
}
