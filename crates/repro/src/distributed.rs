//! The distributed scan: the streamed pipeline (DESIGN.md §14)
//! across worker connections (§13).
//!
//! The coordinator leases [`StreamPlan`](govscan_worldgen::StreamPlan)
//! shard indices to N workers over the `govscan-orchestrate` socket
//! protocol on 127.0.0.1. Each worker realizes and scans its shard with
//! the streamed pipeline's producer,
//! [`ShardScanner::scan_shard`], and the coordinator appends committed
//! shards to the archive in shard order. The archive is therefore
//! byte-identical to [`stream_scan_archive`]'s for the same config,
//! which [`run`] checks against a streamed reference run. With
//! `--inject-death`, whichever worker draws shard 0's first lease drops
//! its connection, exercising lease recovery in the same run (this is
//! the CI smoke).
//!
//! The worker threads share one plan; a worker process elsewhere would
//! plan from the same config and get the same shards, because every
//! shard is a pure function of `(config, shard)`.

use std::path::{Path, PathBuf};

use govscan_orchestrate::{
    run_worker, Coordinator, OrchestrateError, OrchestrationReport, OrchestratorConfig,
    WorkerFaults,
};
use govscan_scanner::ShardScanner;
use govscan_worldgen::{stream_shards, WorldConfig};

use crate::pipeline::{stream_scan_archive, write_archive, PipelineReport};

/// Command-line options for the `distributed` binary.
pub struct Options {
    /// Worker connections.
    pub workers: usize,
    /// Kill whichever worker draws shard 0's first lease (lease
    /// recovery smoke).
    pub inject_death: bool,
    /// Keep the archive here (by default it is written to the temp
    /// directory and removed once checked).
    pub out: Option<PathBuf>,
}

/// The streamed reference arm's shard window.
const REFERENCE_WINDOW: usize = 4;

/// Run `config`'s scan across `opts.workers` workers, then the streamed
/// reference, and render the comparison report. Errors if orchestration
/// fails or — the whole point — if the distributed archive's digest
/// differs from the streamed one's.
pub fn run(config: &WorldConfig, opts: &Options) -> Result<String, Box<dyn std::error::Error>> {
    if opts.workers < 2 && opts.inject_death {
        return Err("--inject-death needs at least 2 workers (the survivor)".into());
    }
    let out = opts.out.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("govscan-distributed-{}.snap", std::process::id()))
    });
    eprintln!(
        "[govscan] distributed scan (seed={}, scale={}): {} workers{}...",
        config.seed,
        config.scale,
        opts.workers,
        if opts.inject_death {
            ", killing whichever draws shard 0's first lease"
        } else {
            ""
        }
    );
    let mut check = out.clone();
    check.set_extension("check.snap");
    let arms = (|| -> Result<_, Box<dyn std::error::Error>> {
        let distributed = scan_archive(config, &out, opts.workers, opts.inject_death)?;
        eprintln!("[govscan] streamed reference run...");
        let threads = govscan_exec::resolve_threads("GOVSCAN_THREADS");
        let reference = stream_scan_archive(config, &check, REFERENCE_WINDOW, threads)?;
        Ok((distributed, reference))
    })();
    std::fs::remove_file(&check).ok();
    if opts.out.is_none() {
        std::fs::remove_file(&out).ok();
    }
    let ((report, orchestration), reference) = arms?;
    if reference.digest != report.digest {
        return Err(format!(
            "digest mismatch: streamed {} vs distributed {}",
            reference.digest, report.digest
        )
        .into());
    }

    let s = &orchestration.stats;
    Ok(format!(
        "{}  shards={} workers={}\n\
         \u{20} grants={} expiries={} abandons={} commits={} late={} duplicates={}\n\
         \u{20} digest={} (streamed == distributed)\n",
        report.render(),
        orchestration.shards,
        orchestration.workers_seen,
        s.grants,
        s.expiries,
        s.abandons,
        s.commits,
        s.late_commits,
        s.duplicate_commits,
        report.digest,
    ))
}

/// The distributed arm: plan `config`, bind a coordinator on an
/// ephemeral local port, run `workers` socket workers from threads, and
/// archive every shard at `out` in shard order. With `inject_death`,
/// whichever worker draws shard 0's first lease dies holding it.
pub fn scan_archive(
    config: &WorldConfig,
    out: &Path,
    workers: usize,
    inject_death: bool,
) -> Result<(PipelineReport, OrchestrationReport), OrchestrateError> {
    let start = std::time::Instant::now();
    let plan = stream_shards(config);
    let coordinator = Coordinator::bind(
        ("127.0.0.1", 0),
        plan.shard_count(),
        plan.host_count(),
        OrchestratorConfig::new(workers),
    )?;
    let addr = coordinator.local_addr()?;
    let faults = WorkerFaults {
        death: inject_death.then_some((0, 1)),
        stall: None,
    };
    write_archive("distributed", out, plan.scan_time(), start, |writer| {
        std::thread::scope(|s| {
            for i in 0..workers {
                let (plan, faults) = (&plan, &faults);
                s.spawn(move || {
                    let scanner = ShardScanner::new(plan, plan.scan_time());
                    // Worker-side transport errors surface as lease
                    // recovery in the coordinator, whose verdict is the
                    // one that matters.
                    let _ = run_worker(addr, i as u64, |shard| scanner.scan_shard(shard), faults);
                });
            }
            coordinator.run(writer)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "govscan-distributed-test-{name}-{}",
            std::process::id()
        ))
    }

    #[test]
    fn distributed_archive_equals_streamed_at_any_worker_count_and_death() {
        let mut config = WorldConfig::paper_scale(0xF1F0);
        config.scale = 0.01;
        for workers in [1, 3] {
            for inject_death in [false, true] {
                let out = tmp(&format!("{workers}-{inject_death}"));
                let opts = Options {
                    workers,
                    inject_death,
                    out: Some(out.clone()),
                };
                if workers < 2 && inject_death {
                    // The lone worker would die with nobody to take its
                    // lease over.
                    let err = run(&config, &opts).expect_err("no survivor");
                    assert!(err.to_string().contains("at least 2 workers"), "{err}");
                    continue;
                }
                let (report, orchestration) =
                    scan_archive(&config, &out, workers, inject_death).expect("distributed arm");
                // The archive pinned by the streamed == materialized test.
                assert_eq!(
                    report.digest,
                    "fe9a288f693d8a76e5d07e7426a814a5d5a2ef30e4d7ead6955c6e53061b2262",
                    "workers={workers} inject_death={inject_death}"
                );
                let s = &orchestration.stats;
                assert_eq!(s.commits, orchestration.shards as u64);
                assert_eq!(s.abandons, u64::from(inject_death), "{s:?}");
                std::fs::remove_file(&out).ok();
            }
        }
    }
}
