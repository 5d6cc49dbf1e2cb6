//! The streamed generate→scan→archive pipeline (DESIGN.md §14).
//!
//! [`stream_scan_archive`] fuses the three stages of a measurement run —
//! world generation, scanning, archiving — over country-sized shards
//! with a bounded in-flight window, so the whole run never materializes
//! the world: producers realize-and-scan shards while the consumer
//! appends the previous shard's records to the on-disk snapshot. Peak
//! memory is set by the shard window (plus the writer's pools), not by
//! [`WorldConfig::scale`], which is what makes a 10×-scale (~1.8M host)
//! run feasible in the memory a materialized 1× run needs.
//!
//! [`materialize_scan_archive`] is the reference arm: generate the full
//! [`World`], scan the same population, write the same archive. At any
//! scale the two arms produce **byte-identical** archives (equal
//! [`Snapshot::digest`]), because every shard's content is a pure
//! function of `(config, shard)` and the writer's interning is online —
//! asserted by `--self-check`, the repo's tests, and CI.

use std::fs::File;
use std::io::{BufWriter, Seek};
use std::path::Path;
use std::time::{Duration, Instant};

use govscan_net::TlsClientConfig;
use govscan_pki::trust::TrustStoreProfile;
use govscan_scanner::{ListScanner, ScanContext, StudyPipeline};
use govscan_store::{Snapshot, SnapshotWriter, StoreError};
use govscan_worldgen::hosting::provider_table;
use govscan_worldgen::{stream_shards, World, WorldConfig};

/// The receipt of one pipeline arm: what was archived and what it cost.
#[derive(Debug)]
pub struct PipelineReport {
    /// `"streamed"` or `"materialized"`.
    pub mode: &'static str,
    /// Hosts archived.
    pub hosts: u64,
    /// Archive size in bytes.
    pub bytes: u64,
    /// SHA-256 of the archive — the identity the two arms must share.
    pub digest: String,
    /// Wall-clock for the whole arm.
    pub elapsed: Duration,
    /// Peak writer pool footprint observed (streamed arm only).
    pub peak_pooled_bytes: usize,
}

impl PipelineReport {
    /// End-to-end throughput in hosts per second.
    pub fn hosts_per_sec(&self) -> f64 {
        self.hosts as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// One human-readable receipt line, with the writer's peak pooled
    /// bytes and this process's peak RSS so far.
    pub fn render(&self) -> String {
        let rss = peak_rss_kb().map_or_else(|| "n/a".to_string(), |kb| format!("{kb} kB"));
        format!(
            "{}: {} hosts -> {} bytes in {:.2}s ({:.0} hosts/s), peak pooled {} bytes, \
             peak RSS {rss}, digest {}\n",
            self.mode,
            self.hosts,
            self.bytes,
            self.elapsed.as_secs_f64(),
            self.hosts_per_sec(),
            self.peak_pooled_bytes,
            self.digest,
        )
    }
}

/// This process's peak resident set (`VmHWM`) in kiB, from
/// `/proc/self/status`. `None` off Linux.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Worker threads for the streamed pipeline: `GOVSCAN_PIPELINE_THREADS`,
/// then `GOVSCAN_THREADS`, then the machine default (capped at 8).
pub fn pipeline_threads() -> usize {
    govscan_exec::resolve_threads("GOVSCAN_PIPELINE_THREADS")
}

/// Streamed arm: plan once, then realize → scan → append one country
/// shard at a time, with at most `shard_window` scanned-but-unarchived
/// shards in flight (backpressure, not queues — see
/// [`govscan_exec::pipeline`]).
///
/// Returns the receipt; the archive at `out` is byte-identical to the
/// one [`materialize_scan_archive`] writes for the same `config`.
pub fn stream_scan_archive(
    config: &WorldConfig,
    out: &Path,
    shard_window: usize,
    threads: usize,
) -> Result<PipelineReport, StoreError> {
    let start = Instant::now();
    let plan = stream_shards(config);
    let scanner = ListScanner::new(plan.tranco(), plan.scan_time());
    let providers = provider_table();
    let trust = plan.cadb().trust_store(TrustStoreProfile::Apple);
    let ev = plan.cadb().ev_registry();

    let file = File::create(out)?;
    let mut writer = SnapshotWriter::new(BufWriter::new(file), Some(plan.scan_time()))?;
    let mut peak_pooled = 0usize;
    govscan_exec::pipeline::run(
        threads,
        plan.shard_count(),
        shard_window,
        |i| {
            // Produce: realize the shard and scan it against its own
            // net. The context (and its verdict cache) is per-shard;
            // the cache is observationally transparent, so per-shard
            // caches scan identically to one warm global cache.
            let shard = plan.realize_shard(i);
            let ctx = ScanContext::new(
                &shard.net,
                trust,
                ev,
                &providers,
                plan.scan_time(),
                TlsClientConfig::default(),
            );
            scanner.scan_list_with(&ctx, &shard.hostnames)
        },
        |_, dataset| {
            // Consume (in shard order): append to the archive. The shard
            // and its net are dropped here — only the writer's pools
            // persist across shards.
            writer.append_records(dataset.records())?;
            peak_pooled = peak_pooled.max(writer.pooled_bytes());
            Ok::<(), StoreError>(())
        },
    )?;
    let hosts = writer.host_count();
    let mut file = writer.finish()?;
    let bytes = file.stream_position()?;
    drop(file);

    Ok(PipelineReport {
        mode: "streamed",
        hosts,
        bytes,
        digest: Snapshot::open(out)?.digest().to_hex(),
        elapsed: start.elapsed(),
        peak_pooled_bytes: peak_pooled,
    })
}

/// Reference arm: materialize the full [`World`], scan the same
/// worldwide government population in the same order, archive in one
/// pass.
pub fn materialize_scan_archive(
    config: &WorldConfig,
    out: &Path,
) -> Result<PipelineReport, StoreError> {
    let start = Instant::now();
    let world = World::generate(config);
    let scan = StudyPipeline::new(&world).scan_list(&world.gov_hosts);
    let bytes = Snapshot::write_file(out, &scan)?;
    Ok(PipelineReport {
        mode: "materialized",
        hosts: scan.len() as u64,
        bytes,
        digest: Snapshot::open(out)?.digest().to_hex(),
        elapsed: start.elapsed(),
        peak_pooled_bytes: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(scale: f64) -> WorldConfig {
        let mut c = WorldConfig::paper_scale(0xF1F0);
        c.scale = scale;
        c
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "govscan-pipeline-test-{name}-{}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn streamed_digest_equals_materialized_at_any_window_and_threads() {
        let cfg = config(0.01);
        let m = tmp("mat");
        let reference = materialize_scan_archive(&cfg, &m).expect("materialized arm");
        assert!(reference.hosts > 500, "world is non-trivial");
        // Pinned across commits: any change to generation or scanning
        // that moves a byte of this archive fails here.
        assert_eq!(
            reference.digest,
            "fe9a288f693d8a76e5d07e7426a814a5d5a2ef30e4d7ead6955c6e53061b2262"
        );
        // Thread count and window size must both be invisible in the
        // archive bytes; window=1 is the degenerate strict-alternation
        // pipeline.
        for (threads, window) in [(1, 1), (1, 4), (4, 1), (4, 4)] {
            let s = tmp(&format!("str-{threads}-{window}"));
            let streamed = stream_scan_archive(&cfg, &s, window, threads).expect("streamed arm");
            assert_eq!(
                streamed.digest, reference.digest,
                "threads={threads} window={window}"
            );
            assert_eq!(streamed.hosts, reference.hosts);
            assert_eq!(streamed.bytes, reference.bytes);
            std::fs::remove_file(&s).ok();
        }
        std::fs::remove_file(&m).ok();
    }
}
