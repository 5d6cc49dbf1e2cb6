//! `stream`: the streamed generate→scan→archive pipeline
//! (`govscan_repro::pipeline::stream_scan_archive`).

use std::fs::File;
use std::io::{BufWriter, Seek};
use std::path::Path;
use std::time::Instant;

use govscan_net::TlsClientConfig;
use govscan_pki::trust::TrustStoreProfile;
use govscan_repro::pipeline::stream_scan_archive;
use govscan_scanner::{ListScanner, ScanContext};
use govscan_store::{Snapshot, SnapshotWriter, StoreError};
use govscan_worldgen::hosting::provider_table;
use govscan_worldgen::{stream_shards, WorldConfig};

use crate::common::{log_ms, mean, ratio, report_rss, secs, Outcome, Params, SetUps};
use crate::probe::{self, Annotator, ProbeStats};
use crate::references;
use crate::trace::{SpanId, Tracer};

pub const SCALE: f64 = 3.0;
const SMOKE_SCALE: f64 = 0.02;
const SHARD_WINDOW: usize = 4;
/// Shards the probe-step mirror runs on.
const SAMPLE_SHARDS: usize = 8;

fn config(p: &Params) -> WorldConfig {
    let mut c = WorldConfig::paper_scale(p.seed);
    c.scale = if p.smoke { SMOKE_SCALE } else { SCALE };
    c
}

/// What one archive run produced.
#[derive(Debug, PartialEq)]
struct Archive {
    hosts: u64,
    bytes: u64,
    digest: String,
}

impl Archive {
    /// At the default seed, compare with the recorded digest and size.
    fn check_references(&self, p: &Params, o: &mut Outcome) {
        if p.references_apply() {
            let r = references::get();
            o.equal(
                "reference digest",
                self.digest.as_str(),
                r.str("stream", "digest"),
            );
            o.equal(
                "reference bytes",
                self.bytes,
                r.u64("stream", "output_bytes"),
            );
        }
    }
}

pub fn run(p: &Params, traced: bool) -> Outcome {
    if traced {
        return run_traced(p);
    }
    let cfg = config(p);
    let out = p.work.join("stream.snap");
    let mut o = Outcome::default();

    // Set-up is the plan: the cross-shard walk every run starts with.
    // `stream_scan_archive` plans for itself, so the plan is dropped.
    let mut setups = SetUps::default();
    let reps = p.repeat(
        3,
        || drop(setups.batch(p, 1, || stream_shards(&cfg))),
        |()| stream_scan_archive(&cfg, &out, SHARD_WINDOW, p.threads),
    );
    setups.report(&mut o);
    report_rss(&mut o, &reps);
    let mut walls = Vec::new();
    let mut archives = Vec::new();
    for rep in reps {
        o.attempted += 1;
        match rep.value {
            Ok(r) => {
                walls.push(rep.wall);
                archives.push(Archive {
                    hosts: r.hosts,
                    bytes: r.bytes,
                    digest: r.digest,
                });
            }
            Err(e) => {
                o.failed += 1;
                o.check("stream_scan_archive", false, e.to_string());
            }
        }
    }
    log_ms("stream repetitions", &walls);
    o.metric("latency_ms", mean(&walls) * 1e3);
    let hosts = archives.first().map_or(0, |a| a.hosts);
    o.metric("throughput", ratio(hosts as f64, mean(&walls)));
    o.agree("repetitions agree", &archives);
    if let Some(a) = archives.first() {
        o.metric("output_bytes", a.bytes as f64);
        a.check_references(p, &mut o);
    }
    std::fs::remove_file(&out).ok();
    o
}

fn run_traced(p: &Params) -> Outcome {
    let cfg = config(p);
    let mut o = Outcome::default();
    let (out_u, out_t) = (p.work.join("untraced.snap"), p.work.join("traced.snap"));

    o.attempted += 1;
    let t = Instant::now();
    let untraced = stream_scan_archive(&cfg, &out_u, SHARD_WINDOW, p.threads);
    let untraced_s = secs(t);

    o.attempted += 1;
    let tracer = Tracer::new();
    let root = tracer.open("stream.run", None);
    let traced = mirror(&tracer, root, &cfg, &out_t, p.threads);
    tracer.close(root);
    let gap = o.traced(&tracer, root, untraced_s);
    o.check_closure(gap);

    let (untraced, traced) = match (untraced, traced) {
        (Ok(u), Ok(t)) => (u, t),
        (u, t) => {
            for e in [u.err(), t.err()].into_iter().flatten() {
                o.failed += 1;
                o.check("stream run", false, e.to_string());
            }
            return o;
        }
    };
    o.equal(
        "traced digest",
        traced.archive.digest.as_str(),
        untraced.digest.as_str(),
    );
    o.equal("traced bytes", traced.archive.bytes, untraced.bytes);
    o.equal("traced hosts", traced.archive.hosts, untraced.hosts);
    traced.archive.check_references(p, &mut o);

    let probe = traced.probe;
    let busy = &traced.shard_busy_s;
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    o.busy_s(&[
        "worldgen.plan",
        "worldgen.realize",
        "net.dns",
        "net.http",
        "net.tcp",
        "net.tls",
        "net.caa",
        "pki.validate",
        "scanner.scan",
        "scanner.classify",
        "store.append",
        "store.finish",
        "store.open_digest",
        "exec.consumer_wait",
    ]);
    o.metric("worldgen.shard_max_s", max_busy);
    o.metric("net.dns_attempts", probe.dns_attempts as f64);
    o.metric(
        "net.unavailable_frac",
        ratio(probe.unavailable as f64, probe.hosts as f64),
    );
    o.metric(
        "net.unresponsive_time_frac",
        ratio(probe.unresponsive_ns as f64, probe.probe_ns as f64),
    );
    verdicts(&mut o, traced.hits, traced.misses);
    let scan_s = o.span_s("scanner.scan");
    o.metric(
        "scanner.us_per_host",
        ratio(scan_s * 1e6, traced.archive.hosts as f64),
    );
    o.metric("store.pooled_bytes_peak", traced.peak_pooled as f64);
    let pipeline_s = o.span_s("exec.pipeline");
    o.metric(
        "exec.producer_busy_frac",
        ratio(busy.iter().sum(), pipeline_s * p.threads as f64),
    );
    o.metric("exec.shard_skew", ratio(max_busy, mean_busy));
    std::fs::remove_file(&out_u).ok();
    std::fs::remove_file(&out_t).ok();
    o
}

/// Record the verdict-cache counters summed over every shard context.
pub fn verdicts(o: &mut Outcome, hits: u64, misses: u64) {
    o.metric("pki.verdict_hits", hits as f64);
    o.metric("pki.verdict_misses", misses as f64);
    o.metric(
        "pki.verdict_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
}

struct Mirrored {
    archive: Archive,
    peak_pooled: usize,
    hits: u64,
    misses: u64,
    probe: ProbeStats,
    /// Realize + scan time of each shard, in seconds.
    shard_busy_s: Vec<f64>,
}

/// `stream_scan_archive`, call for call, with a span around each layer
/// call. The sample shards scan through the probe-step mirror.
fn mirror(
    t: &Tracer,
    root: SpanId,
    cfg: &WorldConfig,
    out: &Path,
    threads: usize,
) -> Result<Mirrored, StoreError> {
    let r = Some(root);
    let plan = t.time("worldgen.plan", r, || stream_shards(cfg));
    let (scanner, providers) = t.time("scanner.prepare", r, || {
        (
            ListScanner::new(plan.tranco(), plan.scan_time()),
            provider_table(),
        )
    });
    let annot = t.time("mirror.annotator", r, || Annotator::new(plan.tranco()));
    let trust = plan.cadb().trust_store(TrustStoreProfile::Apple);
    let ev = plan.cadb().ev_registry();
    let sample = probe::sample_shards(plan.shard_count(), SAMPLE_SHARDS);

    let mut writer = t.time("store.create", r, || {
        SnapshotWriter::new(BufWriter::new(File::create(out)?), Some(plan.scan_time()))
    })?;
    let mut m = Mirrored {
        archive: Archive {
            hosts: 0,
            bytes: 0,
            digest: String::new(),
        },
        peak_pooled: 0,
        hits: 0,
        misses: 0,
        probe: ProbeStats::default(),
        shard_busy_s: Vec::new(),
    };
    let pipe = t.open("exec.pipeline", r);
    let mut waiting_since = t.now();
    govscan_exec::pipeline::run(
        threads,
        plan.shard_count(),
        SHARD_WINDOW,
        |i| {
            let start = t.now();
            let shard = t.time("worldgen.realize", Some(pipe), || plan.realize_shard(i));
            let ctx = ScanContext::new(
                &shard.net,
                trust,
                ev,
                &providers,
                plan.scan_time(),
                TlsClientConfig::default(),
            );
            let (dataset, probe) = t.time_in("scanner.scan", Some(pipe), |scan| {
                if sample.contains(&i) {
                    probe::scan_list(t, scan, &ctx, &annot, plan.scan_time(), &shard.hostnames)
                } else {
                    let d = scanner.scan_list_with(&ctx, &shard.hostnames);
                    (d, ProbeStats::default())
                }
            });
            let busy = (t.now() - start) as f64 / 1e9;
            (
                dataset,
                probe,
                ctx.verdicts.hits(),
                ctx.verdicts.misses(),
                busy,
            )
        },
        |_, (dataset, probe, hits, misses, busy)| {
            // With one thread the pipeline runs inline and the consumer
            // never waits: the gap is production.
            if threads > 1 {
                t.record("exec.consumer_wait", Some(pipe), waiting_since, t.now());
            }
            t.time("store.append", Some(pipe), || {
                writer.append_records(dataset.records())
            })?;
            m.peak_pooled = m.peak_pooled.max(writer.pooled_bytes());
            m.hits += hits;
            m.misses += misses;
            m.probe.add(probe);
            m.shard_busy_s.push(busy);
            waiting_since = t.now();
            Ok::<(), StoreError>(())
        },
    )?;
    t.close(pipe);
    m.archive.hosts = writer.host_count();
    let mut file = t.time("store.finish", r, || writer.finish())?;
    m.archive.bytes = file.stream_position()?;
    drop(file);
    m.archive.digest = t.time("store.open_digest", r, || {
        Snapshot::open(out).map(|s| s.digest().to_hex())
    })?;
    Ok(m)
}
