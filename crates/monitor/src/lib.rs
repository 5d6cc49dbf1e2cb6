//! # govscan-monitor
//!
//! Year-long longitudinal measurement over the epoch-evolving world:
//! the orchestration layer that ties together the three mechanisms the
//! monitor subsystem adds to the repo —
//!
//! 1. **Evolution** ([`govscan_worldgen::evolve`]): epoch `k`'s ground
//!    truth is a pure function of `(config, k)` — certificate
//!    expiry/renewal, post-disclosure remediation, host churn, gradual
//!    HSTS rollout.
//! 2. **Incremental rescans** ([`govscan_scanner::incremental`]): after
//!    the epoch-0 baseline, only hosts whose measurement could have
//!    changed are probed live; everyone else's record is spliced
//!    forward from the previous epoch.
//! 3. **Delta archives** ([`govscan_store::delta`]): each epoch is
//!    persisted as a `GOVDLT1` delta against its predecessor, and the
//!    chain resolves back to full archives bit-for-bit.
//!
//! [`Monitor::run`] is one epoch step, repeated for epochs `0..=N`:
//! scan against the previous epoch (none at the baseline), encode the
//! archive and, past the baseline, the delta against the previous
//! archive, write `epoch-0.snap` or `epoch-<k>.dlt`, then record the
//! trend point and the receipt.
//!
//! The correctness story is *digest equality*: snapshot encoding is
//! canonical, so "incremental scan ≡ full rescan" and "resolved delta
//! chain ≡ full archive" are both one `Fingerprint` comparison. One
//! scan, [`incremental_epoch_scan`], serves both arms: given no previous
//! epoch it probes every host, and that is the full rescan, so the
//! baseline is that scan. With `self_check` enabled, [`Monitor::run`]
//! proves each epoch against full rescans at 1 and at `max(2, N)` worker
//! threads (at the baseline, the one at N is the scan under test) and,
//! past the baseline, against incremental rescans at the same counts
//! and the applied delta; it re-resolves the delta chain at the end.
//! CI runs exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::path::PathBuf;

use govscan_analysis::trend::{epoch_point, TrendSeries};
use govscan_pki::Fingerprint;
use govscan_scanner::{
    plan_rescan, Decision, IncrementalPolicy, IncrementalStats, ScanDataset, ScanRecord,
    ShardScanner,
};
use govscan_store::{Delta, Snapshot, StoreError};
use govscan_worldgen::{EvolveConfig, MonitorPlan, WorldConfig};

/// Everything that can stop a monitor run.
#[derive(Debug)]
pub enum MonitorError {
    /// Archive or delta I/O and validation failures.
    Store(StoreError),
    /// A `self_check` invariant did not hold. The message names the
    /// epoch and the two digests that were supposed to agree.
    SelfCheck(String),
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::Store(e) => write!(f, "store: {e}"),
            MonitorError::SelfCheck(msg) => write!(f, "self-check failed: {msg}"),
        }
    }
}

impl std::error::Error for MonitorError {}

impl From<StoreError> for MonitorError {
    fn from(e: StoreError) -> MonitorError {
        MonitorError::Store(e)
    }
}

/// One monitored run's shape.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// The base world.
    pub world: WorldConfig,
    /// The mutation streams.
    pub evolve: EvolveConfig,
    /// Epochs to advance past the baseline (a run covers `0..=epochs`).
    pub epochs: u32,
    /// Worker threads for shard-parallel scanning.
    pub threads: usize,
    /// When set, write `epoch-0.snap` plus `epoch-<k>.dlt` per epoch
    /// here, and re-resolve the chain at the end of the run.
    pub out_dir: Option<PathBuf>,
    /// Prove every epoch's archive against full rescans at 1 and at
    /// `max(2, threads)` workers and, past the baseline, against
    /// incremental rescans at the same counts and the applied delta
    /// (digest equality); prove the delta chain against the final
    /// archive.
    pub self_check: bool,
}

/// The receipt of one epoch.
#[derive(Debug, Clone)]
pub struct EpochReceipt {
    /// Epoch index (0 = baseline).
    pub epoch: u32,
    /// Hosts in the epoch.
    pub hosts: u64,
    /// Full-archive bytes for this epoch.
    pub archive_bytes: u64,
    /// Delta bytes against the previous epoch (0 at the baseline).
    pub delta_bytes: u64,
    /// The epoch archive's content digest (hex).
    pub digest: String,
    /// Hosts probed live, by reason, and hosts spliced from the previous
    /// epoch. At the baseline every host is new.
    pub stats: IncrementalStats,
}

impl EpochReceipt {
    /// Fraction of hosts probed live.
    pub fn probe_fraction(&self) -> f64 {
        self.stats.probe_fraction()
    }
}

/// The receipt of a whole run.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Per-epoch receipts, baseline first.
    pub epochs: Vec<EpochReceipt>,
    /// The longitudinal trend series over the same epochs.
    pub trends: TrendSeries,
}

impl MonitorReport {
    /// Total bytes of the delta chain (baseline archive + deltas).
    pub fn chain_bytes(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| {
                if e.epoch == 0 {
                    e.archive_bytes
                } else {
                    e.delta_bytes
                }
            })
            .sum()
    }

    /// Total bytes of storing every epoch as a full archive instead.
    pub fn full_bytes(&self) -> u64 {
        self.epochs.iter().map(|e| e.archive_bytes).sum()
    }

    /// Mean probe fraction over the steady-state epochs: those past the
    /// disclosure response window, where no disclosure term inflates
    /// the probe set. `None` if the run never reaches steady state.
    pub fn steady_state_probe_fraction(&self, evolve: &EvolveConfig) -> Option<f64> {
        let first_steady = evolve.disclosure_epoch + evolve.response_window + 1;
        let steady: Vec<f64> = self
            .epochs
            .iter()
            .filter(|e| e.epoch >= first_steady)
            .map(|e| e.probe_fraction())
            .collect();
        if steady.is_empty() {
            None
        } else {
            Some(steady.iter().sum::<f64>() / steady.len() as f64)
        }
    }

    /// One receipt line per epoch.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>8} {:>8} {:>8} {:>12} {:>12}  digest",
            "epoch", "hosts", "probed", "spliced", "probe %", "archive B", "delta B"
        );
        for e in &self.epochs {
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>8} {:>8} {:>7.1}% {:>12} {:>12}  {}",
                e.epoch,
                e.hosts,
                e.stats.probed,
                e.stats.spliced,
                100.0 * e.probe_fraction(),
                e.archive_bytes,
                e.delta_bytes,
                &e.digest[..12],
            );
        }
        let _ = writeln!(
            out,
            "chain: {} bytes for {} epochs vs {} bytes as full archives ({:.1}x smaller)",
            self.chain_bytes(),
            self.epochs.len(),
            self.full_bytes(),
            self.full_bytes() as f64 / self.chain_bytes().max(1) as f64,
        );
        out
    }
}

/// Scan `epoch` shard-parallel, merged in shard order, against the
/// previous epoch's dataset: plan per shard with the module-documented
/// predicate, realize and probe only the selected hosts, splice the
/// rest. With no previous epoch every host is
/// [`SelectReason::New`](govscan_scanner::SelectReason::New), so the
/// same scan is the full rescan: it realizes and probes everyone.
/// Bit-identical at any thread count, because each shard is a pure
/// function of `(config, epoch, shard, prev)` and the merge order is
/// fixed. Returns the merged dataset plus the aggregate selection
/// stats.
pub fn incremental_epoch_scan(
    plan: &MonitorPlan,
    epoch: u32,
    prev: Option<&ScanDataset>,
    disclosed: &HashSet<String>,
    threads: usize,
) -> (ScanDataset, IncrementalStats) {
    let time = plan.epoch_time(epoch);
    let scanner = ShardScanner::new(plan.plan(), time);
    let policy = IncrementalPolicy {
        horizon_days: plan.evolve().renewal_horizon_days,
        recently_disclosed: disclosed.clone(),
    };
    let shards = govscan_exec::par_map_indexed(threads, plan.plan().shard_count(), |i| {
        let state = plan.shard_state(epoch, i);
        let iplan = plan_rescan(
            &policy,
            time,
            state.iter().map(|h| h.record.hostname.as_str()),
            |name| prev.and_then(|p| p.get(name)).cloned(),
        );
        // The CAA relevant set climbs the DNS tree, so the plan's
        // realize set holds each probe's in-population ancestors too
        // (they are not scanned): the climb resolves exactly as it
        // would against the full world.
        let net = plan.realize_subset(&state, &iplan.realize);
        let probe_names: Vec<String> = iplan.probes().map(str::to_string).collect();
        let probed = scanner.scan(&net, &probe_names);
        let records: Vec<ScanRecord> = iplan
            .decisions
            .iter()
            .map(|(name, d)| match d {
                Decision::Probe(_) => probed
                    .get(name)
                    .expect("every planned probe was scanned")
                    .clone(),
                Decision::Splice => prev
                    .and_then(|p| p.get(name))
                    .expect("splice implies a prior record")
                    .clone(),
            })
            .collect();
        (records, iplan.stats)
    });
    let mut stats = IncrementalStats::default();
    let mut records = Vec::new();
    for (shard_records, s) in shards {
        stats.total += s.total;
        stats.probed += s.probed;
        stats.spliced += s.spliced;
        stats.new += s.new;
        stats.prior_broken += s.prior_broken;
        stats.expiring += s.expiring;
        stats.disclosed += s.disclosed;
        stats.ancestor_changed += s.ancestor_changed;
        records.extend(shard_records);
    }
    (ScanDataset::new(records, time), stats)
}

/// The hosts a disclosure notice goes to, judged from *measured* data:
/// reachable but not serving valid https. On the evolving world this
/// coincides with the model's own disclosure set (broken-https and
/// http-only postures), which the self-check digests prove end-to-end.
fn disclosure_set(scan: &ScanDataset) -> HashSet<String> {
    scan.records()
        .iter()
        .filter(|r| r.available && !r.https.is_valid())
        .map(|r| r.hostname.clone())
        .collect()
}

/// A monitor run over one evolving world.
pub struct Monitor {
    config: MonitorConfig,
    plan: MonitorPlan,
}

impl Monitor {
    /// Plan a run.
    pub fn new(config: MonitorConfig) -> Monitor {
        let plan = MonitorPlan::new(&config.world, config.evolve.clone());
        Monitor { config, plan }
    }

    /// The underlying epoch-evolution plan.
    pub fn plan(&self) -> &MonitorPlan {
        &self.plan
    }

    fn out_path(&self, epoch: u32) -> Option<PathBuf> {
        self.config.out_dir.as_ref().map(|d| {
            if epoch == 0 {
                d.join("epoch-0.snap")
            } else {
                d.join(format!("epoch-{epoch}.dlt"))
            }
        })
    }

    /// Prove `snap`, epoch `epoch`'s archive, against the self-check
    /// arms (see [`MonitorConfig::self_check`]). `prev` is the previous
    /// epoch and `delta` this epoch's delta against it; both are `None`
    /// at the baseline, where the full rescan at `threads` workers is
    /// the scan under test and is not repeated.
    fn verify(
        &self,
        epoch: u32,
        prev: Option<&(ScanDataset, Snapshot)>,
        window: &HashSet<String>,
        delta: Option<&Vec<u8>>,
        snap: &Snapshot,
    ) -> Result<(), MonitorError> {
        let threads = self.config.threads;
        for n in [1, threads.max(2)] {
            if prev.is_some() || n != threads {
                let (full, _) = incremental_epoch_scan(&self.plan, epoch, None, &HashSet::new(), n);
                let arm = format!("full rescan at {n} threads");
                check(epoch, &arm, Snapshot::digest_of(&full)?, snap)?;
            }
            if let Some((prev_scan, _)) = prev {
                let (inc, _) =
                    incremental_epoch_scan(&self.plan, epoch, Some(prev_scan), window, n);
                let arm = format!("incremental rescan at {n} threads");
                check(epoch, &arm, Snapshot::digest_of(&inc)?, snap)?;
            }
        }
        if let (Some((_, prev_snap)), Some(delta)) = (prev, delta) {
            // The delta round-trips through its own apply path.
            let resolved = Delta::from_bytes(delta.clone())?.apply(prev_snap)?;
            check(epoch, "applied delta", resolved.digest(), snap)?;
        }
        Ok(())
    }

    /// Run the baseline plus `epochs` incremental epochs. See the
    /// module docs for what `self_check` proves.
    pub fn run(&self) -> Result<MonitorReport, MonitorError> {
        let cfg = &self.config;
        let evolve = self.plan.evolve();
        if let Some(dir) = &cfg.out_dir {
            std::fs::create_dir_all(dir).map_err(StoreError::from)?;
        }
        let mut trends = TrendSeries::new();
        let mut receipts = Vec::new();
        let mut disclosed = HashSet::new();
        let none = HashSet::new();
        let mut prev: Option<(ScanDataset, Snapshot)> = None;
        for epoch in 0..=cfg.epochs {
            let in_window = epoch > evolve.disclosure_epoch
                && epoch <= evolve.disclosure_epoch + evolve.response_window;
            let window = if in_window { &disclosed } else { &none };
            let prev_scan = prev.as_ref().map(|(scan, _)| scan);
            let (scan, stats) =
                incremental_epoch_scan(&self.plan, epoch, prev_scan, window, cfg.threads);

            let full_bytes = Snapshot::encode(&scan)?;
            let archive_bytes = full_bytes.len() as u64;
            let delta = match &prev {
                Some((_, prev_snap)) => Some(Delta::encode(prev_snap, &scan)?),
                None => None,
            };
            if let Some(path) = self.out_path(epoch) {
                let bytes = delta.as_ref().unwrap_or(&full_bytes);
                std::fs::write(&path, bytes).map_err(StoreError::from)?;
            }
            let snap = Snapshot::from_bytes(full_bytes)?;
            if cfg.self_check {
                self.verify(epoch, prev.as_ref(), window, delta.as_ref(), &snap)?;
            }

            trends.push(epoch_point(format!("epoch {epoch}"), &scan));
            receipts.push(EpochReceipt {
                epoch,
                hosts: scan.len() as u64,
                archive_bytes,
                delta_bytes: delta.map_or(0, |d| d.len() as u64),
                digest: snap.digest().to_hex(),
                stats,
            });
            if epoch == evolve.disclosure_epoch {
                disclosed = disclosure_set(&scan);
            }
            prev = Some((scan, snap));
        }

        // The persisted chain must resolve back to the final epoch.
        if let (Some(base), Some((_, last))) = (self.out_path(0), &prev) {
            let deltas: Vec<PathBuf> = (1..=cfg.epochs).filter_map(|e| self.out_path(e)).collect();
            let resolved = Snapshot::open_chain(base, &deltas)?;
            check(
                cfg.epochs,
                "resolved on-disk chain",
                resolved.digest(),
                last,
            )?;
        }

        Ok(MonitorReport {
            epochs: receipts,
            trends,
        })
    }
}

/// Fail the self-check unless an arm's digest equals the epoch archive's.
fn check(epoch: u32, arm: &str, got: Fingerprint, want: &Snapshot) -> Result<(), MonitorError> {
    if got != want.digest() {
        return Err(MonitorError::SelfCheck(format!(
            "epoch {epoch}: {arm} digest {got} != reference {}",
            want.digest()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn config(epochs: u32, out_dir: Option<&Path>) -> MonitorConfig {
        // A short response window (epochs 2–3) so a 5-epoch run reaches
        // steady state (epochs 4–5) and exercises all three regimes:
        // pre-disclosure, in-window, and steady.
        let mut evolve = EvolveConfig::weekly();
        evolve.response_window = 2;
        MonitorConfig {
            world: WorldConfig::small(0x0CEA11),
            evolve,
            epochs,
            threads: 4,
            out_dir: out_dir.map(Path::to_path_buf),
            self_check: true,
        }
    }

    #[test]
    fn five_epochs_self_check_and_chain_resolve() {
        // The acceptance invariant: incremental ≡ full at 1 and 4
        // threads for 5 > 4 consecutive epochs, and the on-disk delta
        // chain resolves to the final archive — all enforced inside
        // run() when self_check is on.
        let dir = std::env::temp_dir().join(format!("govscan-monitor-test-{}", std::process::id()));
        let report = Monitor::new(config(5, Some(&dir)))
            .run()
            .expect("self-checked run");
        assert_eq!(report.epochs.len(), 6);
        assert_eq!(report.trends.points.len(), 6);
        for e in &report.epochs[1..] {
            assert!(e.stats.probed > 0, "every epoch probes someone");
            assert!(e.stats.spliced > 0, "every epoch splices most hosts");
            assert!(
                e.delta_bytes < e.archive_bytes / 2,
                "epoch {}: delta ({}) must be much smaller than the archive ({})",
                e.epoch,
                e.delta_bytes,
                e.archive_bytes
            );
        }
        // The storage economy: one archive plus deltas is at least half
        // the size of storing every epoch in full.
        assert!(
            report.full_bytes() >= 2 * report.chain_bytes(),
            "chain {} bytes vs full archives {} bytes",
            report.chain_bytes(),
            report.full_bytes()
        );
        // Disclosure fires after epoch 1; the window epochs probe the
        // disclosed set (including http-only hosts that might adopt) on
        // top of the steady terms, so they are the expensive ones.
        assert!(
            report.epochs[2].stats.disclosed > 0,
            "disclosure window must add probes"
        );
        // Past the window the probe set shrinks back to the always-on
        // terms: broken, near-expiry, churned — a small minority.
        let steady = report
            .steady_state_probe_fraction(&config(5, None).evolve)
            .expect("epochs 4-5 are steady");
        assert!(
            steady <= 0.30,
            "steady-state probes {:.1}% of hosts — the economy the monitor exists for",
            100.0 * steady
        );
        assert!(
            steady < report.epochs[2].probe_fraction(),
            "the disclosure window must cost more than steady state"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn baseline_receipt_probes_every_host_as_new() {
        // One worker: the baseline's self-check then runs its full
        // rescan at 2 workers, the scan under test being the 1-worker one.
        let mut cfg = config(0, None);
        cfg.threads = 1;
        let report = Monitor::new(cfg).run().expect("self-checked baseline");
        let [base] = report.epochs.as_slice() else {
            panic!("a zero-epoch run has only the baseline");
        };
        assert!(base.hosts > 400, "small world is non-trivial");
        assert_eq!(base.stats.total as u64, base.hosts);
        assert_eq!(base.stats.probed as u64, base.hosts);
        assert_eq!(base.stats.new as u64, base.hosts);
        assert_eq!(base.stats.spliced, 0);
        assert_eq!(base.delta_bytes, 0);
        assert_eq!(base.probe_fraction(), 1.0);
        assert_eq!(report.chain_bytes(), base.archive_bytes);
    }

    #[test]
    fn epoch_scans_are_pure_functions_of_epoch() {
        let cfg = config(0, None);
        let monitor = Monitor::new(cfg);
        let none = HashSet::new();
        let (a, _) = incremental_epoch_scan(monitor.plan(), 2, None, &none, 1);
        let (b, _) = incremental_epoch_scan(monitor.plan(), 2, None, &none, 4);
        assert_eq!(
            Snapshot::digest_of(&a).unwrap(),
            Snapshot::digest_of(&b).unwrap(),
            "epoch scans must be thread-count invariant"
        );
        assert!(a.len() > 400, "small world is non-trivial");
        // Pinned across commits: the evolved epoch-2 world, realized and
        // scanned, must not move.
        assert_eq!(
            Snapshot::digest_of(&a).unwrap().to_hex(),
            "a3f7d9b76c4afe4a843e38fcd4f0a8093a2a28fdf77a839df49437fd30289f17"
        );
    }
}
