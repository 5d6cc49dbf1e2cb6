//! `monitor`: the longitudinal monitor (`govscan_monitor::Monitor::run`)
//! over weekly epochs, writing its delta chain.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use govscan_analysis::trend::epoch_point;
use govscan_monitor::{Monitor, MonitorConfig, MonitorReport};
use govscan_net::{CidrTable, SimNet, TlsClientConfig};
use govscan_pki::trust::TrustStoreProfile;
use govscan_pki::Time;
use govscan_scanner::{
    plan_rescan, Decision, IncrementalPolicy, IncrementalStats, ListScanner, ScanContext,
    ScanDataset, ScanRecord,
};
use govscan_store::{Delta, Snapshot, StoreError};
use govscan_worldgen::hosting::provider_table;
use govscan_worldgen::{EpochHost, EvolveConfig, MonitorPlan, WorldConfig};

use crate::common::{log_ms, mean, ratio, report_rss, secs, Outcome, Params, SetUps};
use crate::probe::{self, Annotator};
use crate::references;
use crate::trace::{SpanId, Tracer};

pub const SCALE: f64 = 0.1;
pub const EPOCHS: u32 = 12;
const SMOKE_SCALE: f64 = 0.02;
const SMOKE_EPOCHS: u32 = 3;
/// Shards per epoch the probe-step mirror runs on.
const SAMPLE_SHARDS: usize = 8;

/// The monitor run both this workload and `serve` use: `serve` reads the
/// chain it writes.
pub fn config(p: &Params, out_dir: &Path) -> MonitorConfig {
    let mut world = WorldConfig::paper_scale(p.seed);
    world.scale = if p.smoke { SMOKE_SCALE } else { SCALE };
    MonitorConfig {
        world,
        evolve: EvolveConfig::weekly(),
        epochs: if p.smoke { SMOKE_EPOCHS } else { EPOCHS },
        threads: p.threads,
        out_dir: Some(out_dir.to_path_buf()),
        self_check: false,
    }
}

/// The chain files of a run over `epochs` epochs written to `dir`.
pub fn chain_paths(dir: &Path, epochs: u32) -> (PathBuf, Vec<PathBuf>) {
    let deltas = (1..=epochs)
        .map(|e| dir.join(format!("epoch-{e}.dlt")))
        .collect();
    (dir.join("epoch-0.snap"), deltas)
}

/// What must be identical between two runs of the same configuration.
#[derive(Debug, PartialEq)]
struct Chain {
    digests: Vec<String>,
    bytes: u64,
}

impl Chain {
    fn of(r: &MonitorReport) -> Chain {
        Chain {
            digests: r.epochs.iter().map(|e| e.digest.clone()).collect(),
            bytes: r.chain_bytes(),
        }
    }

    /// At the default seed, compare with the recorded final digest prefix
    /// and chain size.
    fn check_references(&self, p: &Params, o: &mut Outcome) {
        if p.references_apply() {
            let r = references::get();
            let last = self.digests.last().map_or("", |d| &d[..12]);
            let want = r.str("monitor", "final_digest_prefix");
            o.equal("reference final digest", last, want);
            o.equal(
                "reference bytes",
                self.bytes,
                r.u64("monitor", "output_bytes"),
            );
        }
    }
}

pub fn run(p: &Params, traced: bool) -> Outcome {
    if traced {
        return run_traced(p);
    }
    let dir = p.work.join("chain");
    let cfg = config(p, &dir);
    let mut o = Outcome::default();

    let mut setups = SetUps::default();
    let reps = p.repeat(
        3,
        || setups.batch(p, 1, || Monitor::new(cfg.clone())),
        |monitor| monitor.run(),
    );
    setups.report(&mut o);
    report_rss(&mut o, &reps);
    let mut walls = Vec::new();
    let mut host_epochs = 0;
    let mut chains = Vec::new();
    for rep in reps {
        o.attempted += 1;
        match rep.value {
            Ok(report) => {
                walls.push(rep.wall);
                host_epochs = report.epochs.iter().map(|e| e.hosts).sum();
                chains.push(Chain::of(&report));
            }
            Err(e) => {
                o.failed += 1;
                o.check("Monitor::run", false, e.to_string());
            }
        }
    }
    log_ms("monitor repetitions", &walls);
    let epochs = f64::from(cfg.epochs + 1);
    o.metric("latency_ms", mean(&walls) / epochs * 1e3);
    o.metric("throughput", ratio(host_epochs as f64, mean(&walls)));
    o.agree("repetitions agree", &chains);
    if let Some(c) = chains.first() {
        o.metric("output_bytes", c.bytes as f64);
        let last = c.digests.last().expect("baseline epoch").as_str();
        let (base, deltas) = chain_paths(&dir, cfg.epochs);
        match Snapshot::open_chain(base, &deltas) {
            Ok(s) => o.equal("chain resolves", s.digest().to_hex().as_str(), last),
            Err(e) => o.check("chain resolves", false, e.to_string()),
        }
        c.check_references(p, &mut o);
    }
    o
}

fn run_traced(p: &Params) -> Outcome {
    let mut o = Outcome::default();
    let cfg_u = config(p, &p.work.join("untraced"));
    let cfg_t = config(p, &p.work.join("traced"));

    o.attempted += 1;
    let monitor = Monitor::new(cfg_u.clone());
    let t = Instant::now();
    let untraced = monitor.run();
    let untraced_s = secs(t);

    o.attempted += 1;
    let tracer = Tracer::new();
    // Set-up is its own root: it is not part of the run it prepares.
    let monitor = tracer.time("worldgen.monitor_plan", None, || {
        Monitor::new(cfg_t.clone())
    });
    let root = tracer.open("monitor.run", None);
    let traced = mirror(&tracer, root, monitor.plan(), &cfg_t);
    tracer.close(root);
    let gap = o.traced(&tracer, root, untraced_s);
    o.check_closure(gap);

    let (untraced, traced) = match (untraced, traced) {
        (Ok(u), Ok(t)) => (u, t),
        (u, t) => {
            let errors = [
                u.err().map(|e| e.to_string()),
                t.err().map(|e| e.to_string()),
            ];
            for e in errors.into_iter().flatten() {
                o.failed += 1;
                o.check("monitor run", false, e);
            }
            return o;
        }
    };
    let chain = Chain::of(&untraced);
    chain.check_references(p, &mut o);
    o.agree("traced chain", &[chain, traced.chain]);

    o.busy_s(&[
        "worldgen.monitor_plan",
        "worldgen.evolve",
        "worldgen.realize_subset",
        "net.dns",
        "net.http",
        "net.tcp",
        "net.tls",
        "net.caa",
        "pki.validate",
        "scanner.scan",
        "scanner.plan_rescan",
        "scanner.splice",
        "scanner.merge",
        "store.encode",
        "store.delta_encode",
        "store.from_bytes",
        "store.digest",
        "store.open_chain",
        "analysis.trend_point",
    ]);
    let evolve = &traced.evolve_ns;
    o.metric(
        "worldgen.evolve_growth",
        ratio(evolve[evolve.len() - 1] as f64, evolve[1] as f64),
    );
    crate::stream::verdicts(&mut o, traced.hits, traced.misses);

    let ev = &cfg_t.evolve;
    let window = ev.disclosure_epoch + 1..=ev.disclosure_epoch + ev.response_window;
    let frac = |keep: &dyn Fn(u32) -> bool| {
        let fs: Vec<f64> = traced
            .stats
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep(i as u32 + 1))
            .map(|(_, s)| s.probe_fraction())
            .collect();
        ratio(fs.iter().sum(), fs.len() as f64)
    };
    o.metric("scanner.probe_frac.window", frac(&|e| window.contains(&e)));
    o.metric("scanner.probe_frac.steady", frac(&|e| e > *window.end()));
    let total = |f: fn(&IncrementalStats) -> usize| -> f64 {
        traced.stats.iter().map(f).sum::<usize>() as f64
    };
    o.metric("scanner.probed", total(|s| s.probed));
    o.metric("scanner.spliced", total(|s| s.spliced));
    o.metric("scanner.reason.new", total(|s| s.new));
    o.metric("scanner.reason.prior_broken", total(|s| s.prior_broken));
    o.metric("scanner.reason.expiring", total(|s| s.expiring));
    o.metric("scanner.reason.disclosed", total(|s| s.disclosed));
    o.metric(
        "scanner.reason.ancestor_changed",
        total(|s| s.ancestor_changed),
    );
    let deltas = &untraced.epochs[1..];
    o.metric(
        "store.delta_bytes_mean",
        ratio(
            deltas.iter().map(|e| e.delta_bytes).sum::<u64>() as f64,
            deltas.len() as f64,
        ),
    );
    o
}

struct Mirrored {
    chain: Chain,
    /// `shard_state` time summed over shards, per epoch.
    evolve_ns: Vec<u64>,
    /// Selection counts of epochs 1.. .
    stats: Vec<IncrementalStats>,
    hits: u64,
    misses: u64,
}

/// One shard's counters in an epoch scan.
#[derive(Default)]
struct ShardMeta {
    stats: IncrementalStats,
    evolve_ns: u64,
    hits: u64,
    misses: u64,
}

/// Everything an epoch scan's shards share, built once per epoch as the
/// monitor's epoch scans build it.
struct EpochCtx<'a> {
    t: &'a Tracer,
    plan: &'a MonitorPlan,
    epoch: u32,
    time: Time,
    threads: usize,
    providers: CidrTable<(&'static str, bool)>,
    scanner: ListScanner,
    annot: &'a Annotator,
    sample: &'a [usize],
}

impl<'a> EpochCtx<'a> {
    fn new(
        t: &'a Tracer,
        plan: &'a MonitorPlan,
        epoch: u32,
        threads: usize,
        annot: &'a Annotator,
        sample: &'a [usize],
    ) -> EpochCtx<'a> {
        let time = plan.epoch_time(epoch);
        EpochCtx {
            t,
            plan,
            epoch,
            time,
            threads,
            providers: provider_table(),
            scanner: ListScanner::new(plan.plan().tranco(), time),
            annot,
            sample,
        }
    }

    /// Scan `names` of shard `i` against `net`: the probe-step mirror on
    /// sample shards, `ListScanner::scan_list_with` elsewhere.
    fn scan(
        &self,
        parent: SpanId,
        i: usize,
        net: &SimNet,
        names: &[String],
        meta: &mut ShardMeta,
    ) -> ScanDataset {
        let cadb = self.plan.plan().cadb();
        let ctx = ScanContext::new(
            net,
            cadb.trust_store(TrustStoreProfile::Apple),
            cadb.ev_registry(),
            &self.providers,
            self.time,
            TlsClientConfig::default(),
        );
        let dataset = self.t.time_in("scanner.scan", Some(parent), |scan| {
            if self.sample.contains(&i) {
                probe::scan_list(self.t, scan, &ctx, self.annot, self.time, names).0
            } else {
                self.scanner.scan_list_with(&ctx, names)
            }
        });
        meta.hits = ctx.verdicts.hits();
        meta.misses = ctx.verdicts.misses();
        dataset
    }

    /// `shard_state`, timed as evolution.
    fn evolve(&self, parent: SpanId, i: usize, meta: &mut ShardMeta) -> Vec<EpochHost> {
        let start = self.t.now();
        let state = self.t.time("worldgen.evolve", Some(parent), || {
            self.plan.shard_state(self.epoch, i)
        });
        meta.evolve_ns = self.t.now() - start;
        state
    }

    /// Mirror of `govscan_monitor::full_epoch_scan`.
    fn full(&self, parent: SpanId) -> (ScanDataset, Vec<ShardMeta>) {
        let (t, p) = (self.t, Some(parent));
        let n = self.plan.plan().shard_count();
        let shards = govscan_exec::par_map_indexed(self.threads, n, |i| {
            let mut meta = ShardMeta::default();
            let state = self.evolve(parent, i, &mut meta);
            let net = t.time("worldgen.realize_subset", p, || {
                self.plan.realize_all(&state)
            });
            let names: Vec<String> = state.iter().map(|h| h.record.hostname.clone()).collect();
            (self.scan(parent, i, &net, &names, &mut meta), meta)
        });
        let (datasets, metas): (Vec<ScanDataset>, Vec<ShardMeta>) = shards.into_iter().unzip();
        let merged = t.time("scanner.merge", p, || {
            let mut records = Vec::new();
            for ds in datasets {
                records.extend(ds.records().iter().cloned());
            }
            ScanDataset::new(records, self.time)
        });
        (merged, metas)
    }

    /// Mirror of `govscan_monitor::incremental_epoch_scan`.
    fn incremental(
        &self,
        parent: SpanId,
        prev: &ScanDataset,
        disclosed: &HashSet<String>,
    ) -> (ScanDataset, Vec<ShardMeta>) {
        let (t, p) = (self.t, Some(parent));
        let time = self.time;
        let policy = IncrementalPolicy {
            horizon_days: self.plan.evolve().renewal_horizon_days,
            recently_disclosed: disclosed.clone(),
        };
        let n = self.plan.plan().shard_count();
        let shards = govscan_exec::par_map_indexed(self.threads, n, |i| {
            let mut meta = ShardMeta::default();
            let state = self.evolve(parent, i, &mut meta);
            let iplan = t.time("scanner.plan_rescan", p, || {
                plan_rescan(
                    &policy,
                    time,
                    state.iter().map(|h| h.record.hostname.as_str()),
                    |name| prev.get(name).cloned(),
                )
            });
            let (probe_idx, realize_idx) = t.time("scanner.select", p, || {
                let probe_idx: Vec<usize> = iplan
                    .decisions
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, d))| matches!(d, Decision::Probe(_)))
                    .map(|(i, _)| i)
                    .collect();
                let by_name: HashMap<&str, usize> = state
                    .iter()
                    .enumerate()
                    .map(|(i, h)| (h.record.hostname.as_str(), i))
                    .collect();
                let mut realize_idx = probe_idx.clone();
                let mut included: HashSet<usize> = probe_idx.iter().copied().collect();
                for &i in &probe_idx {
                    let mut current = state[i].record.hostname.as_str();
                    while let Some((_, parent)) = current.split_once('.') {
                        if let Some(&pi) = by_name.get(parent) {
                            if included.insert(pi) {
                                realize_idx.push(pi);
                            }
                        }
                        current = parent;
                    }
                }
                realize_idx.sort_unstable();
                (probe_idx, realize_idx)
            });
            let net = t.time("worldgen.realize_subset", p, || {
                self.plan.realize_subset(&state, &realize_idx)
            });
            let names: Vec<String> = probe_idx
                .iter()
                .map(|&i| state[i].record.hostname.clone())
                .collect();
            let probed = self.scan(parent, i, &net, &names, &mut meta);
            let records: Vec<ScanRecord> = t.time("scanner.splice", p, || {
                iplan
                    .decisions
                    .iter()
                    .map(|(name, d)| match d {
                        Decision::Probe(_) => probed
                            .get(name)
                            .expect("every planned probe was scanned")
                            .clone(),
                        Decision::Splice => prev
                            .get(name)
                            .expect("splice implies a prior record")
                            .clone(),
                    })
                    .collect()
            });
            meta.stats = iplan.stats;
            (records, meta)
        });
        let (records, metas): (Vec<Vec<ScanRecord>>, Vec<ShardMeta>) = shards.into_iter().unzip();
        let merged = t.time("scanner.merge", p, || {
            let mut all = Vec::new();
            for shard in records {
                all.extend(shard);
            }
            ScanDataset::new(all, time)
        });
        (merged, metas)
    }
}

/// Mirror of `disclosure_set`: reachable but not serving valid https.
fn disclosure_set(scan: &ScanDataset) -> HashSet<String> {
    scan.records()
        .iter()
        .filter(|r| r.available && !r.https.is_valid())
        .map(|r| r.hostname.clone())
        .collect()
}

/// `Monitor::run` with `self_check` off, call for call, with a span
/// around each layer call.
fn mirror(
    t: &Tracer,
    root: SpanId,
    plan: &MonitorPlan,
    cfg: &MonitorConfig,
) -> Result<Mirrored, StoreError> {
    let r = Some(root);
    let dir = cfg
        .out_dir
        .as_ref()
        .expect("the benchmark writes the chain");
    let evolve = plan.evolve().clone();
    std::fs::create_dir_all(dir)?;
    let annot = t.time("mirror.annotator", r, || {
        Annotator::new(plan.plan().tranco())
    });
    let sample = probe::sample_shards(plan.plan().shard_count(), SAMPLE_SHARDS);
    let mut m = Mirrored {
        chain: Chain {
            digests: Vec::new(),
            bytes: 0,
        },
        evolve_ns: Vec::new(),
        stats: Vec::new(),
        hits: 0,
        misses: 0,
    };
    let tally = |m: &mut Mirrored, shards: &[ShardMeta]| {
        m.evolve_ns.push(shards.iter().map(|s| s.evolve_ns).sum());
        m.hits += shards.iter().map(|s| s.hits).sum::<u64>();
        m.misses += shards.iter().map(|s| s.misses).sum::<u64>();
    };
    let ctx = |epoch| EpochCtx::new(t, plan, epoch, cfg.threads, &annot, &sample);
    let (chain_base, chain_deltas) = chain_paths(dir, cfg.epochs);

    let (base, shards) = t.time_in("scanner.epoch_scan", r, |id| ctx(0).full(id));
    tally(&mut m, &shards);
    let base_bytes = t.time("store.encode", r, || Snapshot::encode(&base))?;
    m.chain.bytes += base_bytes.len() as u64;
    t.time("store.write", r, || {
        std::fs::write(&chain_base, &base_bytes)
    })?;
    let mut prev_snap = t.time("store.from_bytes", r, || Snapshot::from_bytes(base_bytes))?;
    t.time("analysis.trend_point", r, || epoch_point("epoch 0", &base));
    m.chain
        .digests
        .push(t.time("store.digest", r, || prev_snap.digest().to_hex()));

    let mut disclosed = HashSet::new();
    if evolve.disclosure_epoch == 0 {
        disclosed = t.time("monitor.disclosure_set", r, || disclosure_set(&base));
    }
    let mut prev = base;
    let none = HashSet::new();
    for epoch in 1..=cfg.epochs {
        let in_window = epoch > evolve.disclosure_epoch
            && epoch <= evolve.disclosure_epoch + evolve.response_window;
        let window = if in_window { &disclosed } else { &none };
        let (scan, shards) = t.time_in("scanner.epoch_scan", r, |id| {
            ctx(epoch).incremental(id, &prev, window)
        });
        tally(&mut m, &shards);
        m.stats
            .push(shards.iter().fold(IncrementalStats::default(), |mut a, s| {
                let b = &s.stats;
                a.total += b.total;
                a.probed += b.probed;
                a.spliced += b.spliced;
                a.new += b.new;
                a.prior_broken += b.prior_broken;
                a.expiring += b.expiring;
                a.disclosed += b.disclosed;
                a.ancestor_changed += b.ancestor_changed;
                a
            }));
        let full_bytes = t.time("store.encode", r, || Snapshot::encode(&scan))?;
        let delta_bytes = t.time("store.delta_encode", r, || Delta::encode(&prev_snap, &scan))?;
        m.chain.bytes += delta_bytes.len() as u64;
        t.time("store.write", r, || {
            std::fs::write(&chain_deltas[epoch as usize - 1], &delta_bytes)
        })?;
        let snap = t.time("store.from_bytes", r, || Snapshot::from_bytes(full_bytes))?;
        t.time("analysis.trend_point", r, || {
            epoch_point(format!("epoch {epoch}"), &scan)
        });
        m.chain
            .digests
            .push(t.time("store.digest", r, || snap.digest().to_hex()));
        if epoch == evolve.disclosure_epoch {
            disclosed = t.time("monitor.disclosure_set", r, || disclosure_set(&scan));
        }
        prev = scan;
        prev_snap = snap;
    }
    let resolved = t.time("store.open_chain", r, || {
        Snapshot::open_chain(&chain_base, &chain_deltas)
    })?;
    if resolved.digest() != prev_snap.digest() {
        return Err(StoreError::Corrupt {
            context: "benchmark",
            detail: "the traced chain does not resolve to its final epoch".to_owned(),
        });
    }
    Ok(m)
}
