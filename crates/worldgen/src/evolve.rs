//! The world-evolution model behind `govscan-monitor`: advances the
//! synthetic Internet epoch by epoch so the longitudinal questions the
//! paper could only ask twice (does remediation stick? does the error
//! mix migrate? does HSTS roll out?) become measurable time series.
//!
//! Everything is derived the same way the streamed generator derives its
//! shards (DESIGN.md §9/§14): every mutation decision is a pure function
//! of `(world seed, mutation label, epoch, hostname)` through
//! [`StreamSeeder`] — no draw depends on iteration order, thread count,
//! or which epochs were computed before. That gives the two properties
//! the monitor is built on:
//!
//! * **Epoch purity** — [`MonitorPlan::shard_state`]`(k, idx)` is a pure
//!   function of `(config, k)`: any process, at any thread count, at any
//!   time, reconstructs epoch *k* bit-identically.
//! * **Change locality** — a host's wire behaviour is a pure function of
//!   `(hostname, generation, scheduled validity window)`, never of the
//!   epoch number. Re-realizing an *unchanged* host at a later epoch
//!   reproduces its certificate and network behaviour exactly, which is
//!   what lets the incremental scanner splice unchanged records forward
//!   (DESIGN.md §15 has the safety argument).
//!
//! The mutation streams (per epoch, in application order):
//!
//! 1. **Churn-out** — a small fraction of hosts disappear (domains
//!    lapse, agencies consolidate).
//! 2. **Remediation** — broken-https hosts get fixed: a background
//!    trickle always, a much higher rate while the host is inside the
//!    §7.2 disclosure response window.
//! 3. **Adoption** — http-only hosts that were notified deploy https
//!    during the response window.
//! 4. **Renewal** — valid hosts whose certificate enters the renewal
//!    horizon re-issue: new key, possibly new CA, and the epoch where
//!    gradual HSTS rollout happens (a host that renews may turn HSTS
//!    on). Unlucky hosts miss enough consecutive renewal windows to
//!    lapse into `Expired` — the error mix migrates.
//! 5. **Churn-in** — new government hosts appear, sampled from the same
//!    per-country posture model as the base population.

use std::collections::HashSet;

use govscan_asn1::Time;
use govscan_net::SimNet;
use rand::Rng;

use crate::config::WorldConfig;
use crate::host::{HostRecord, HostingClass, Posture};
use crate::hostgen::HostnameGen;
use crate::hosting::HostingAssigner;
use crate::posture::{self, PostureRates};
use crate::stream::{stream_shards, StreamPlan, StreamSeeder};
use crate::world::cloud_share;

/// Per-epoch mutation rates. Defaults ([`EvolveConfig::weekly`]) are
/// tuned for weekly epochs: renewal pressure matches ~90-day automated
/// reissuance, disclosure response matches the §7.2.2 rescan's ~10%
/// uptake over two months, and churn is a fraction of a percent per week
/// — so a steady-state epoch changes only a few percent of the world,
/// which is precisely what makes incremental rescans worth building.
#[derive(Debug, Clone)]
pub struct EvolveConfig {
    /// Days between epochs.
    pub epoch_days: i64,
    /// Certificates within this many days of expiry are renewal
    /// candidates — and what the incremental scanner's expiry-horizon
    /// probe term must cover.
    pub renewal_horizon_days: i64,
    /// Per-epoch renewal probability for an in-horizon valid host.
    /// Below 1.0 so a sliver of the population lapses into `Expired`.
    pub renewal_rate: f64,
    /// The epoch after whose measurement disclosure notices go out to
    /// every host that was reachable but not serving valid https.
    pub disclosure_epoch: u32,
    /// Epochs after disclosure during which notified hosts respond.
    pub response_window: u32,
    /// Per-epoch fix probability for a *disclosed* broken-https host
    /// inside the response window.
    pub remediation_rate: f64,
    /// Per-epoch fix probability for broken https outside the window —
    /// the background trickle that exists without any notification.
    pub background_remediation_rate: f64,
    /// Per-epoch https-adoption probability for a disclosed http-only
    /// host inside the response window.
    pub adoption_rate: f64,
    /// Probability that a host touching its TLS config (renewal,
    /// remediation, adoption) turns on HSTS if it hasn't already — the
    /// gradual-rollout model.
    pub hsts_adoption_rate: f64,
    /// Per-epoch probability a host disappears.
    pub churn_out_rate: f64,
    /// New hosts per epoch, as a fraction of the country's population
    /// entering the epoch.
    pub churn_in_rate: f64,
}

impl EvolveConfig {
    /// Weekly-epoch defaults (see the type-level comment).
    pub fn weekly() -> EvolveConfig {
        EvolveConfig {
            epoch_days: 7,
            renewal_horizon_days: 30,
            renewal_rate: 0.7,
            disclosure_epoch: 1,
            response_window: 8,
            remediation_rate: 0.035,
            background_remediation_rate: 0.004,
            adoption_rate: 0.01,
            hsts_adoption_rate: 0.25,
            churn_out_rate: 0.003,
            churn_in_rate: 0.004,
        }
    }
}

/// One host's model state at an epoch: the ground-truth record plus the
/// bookkeeping the mutation streams and the realizer need.
#[derive(Debug, Clone)]
pub struct EpochHost {
    /// Ground truth, as [`StreamPlan`]'s country records shape it.
    pub record: HostRecord,
    /// Bumped on every behaviour change. Selects the host's realization
    /// RNG stream, so an unchanged host re-realizes identically and a
    /// changed one re-draws everything (new key, new CA, …).
    pub generation: u32,
    /// The scheduled certificate validity window `(not_before, days)`
    /// for hosts whose lifetime the model manages (valid-https hosts;
    /// broken hosts keep whatever their realization stream samples).
    pub window: Option<(Time, i64)>,
    /// Received a disclosure notice at the disclosure epoch.
    pub disclosed: bool,
}

impl EpochHost {
    /// Expiry of the scheduled window, when the model manages one.
    pub fn not_after(&self) -> Option<Time> {
        self.window.map(|(nb, days)| nb.plus_days(days))
    }
}

/// A planned epoch-evolving world: the streamed plan's cross-shard state
/// plus the mutation-rate configuration. All methods are pure in
/// `&self`.
pub struct MonitorPlan {
    plan: StreamPlan,
    evolve: EvolveConfig,
}

/// Uniform draw in `[0, 1)` keyed by `(label, hostname)` — one decision
/// per host per mutation stream, independent of every other draw. The
/// top 53 bits of the stream id give an exact dyadic rational, the same
/// construction `rand` uses for `f64`.
fn frac(seeder: StreamSeeder, label: &str, hostname: &str) -> f64 {
    (seeder.stream_id(label, hostname) >> 11) as f64 / (1u64 << 53) as f64
}

impl MonitorPlan {
    /// Plan an evolving world over `config`'s base population.
    pub fn new(config: &WorldConfig, evolve: EvolveConfig) -> MonitorPlan {
        MonitorPlan {
            plan: stream_shards(config),
            evolve,
        }
    }

    /// The underlying streamed plan (ranking list, CA roster, shards).
    pub fn plan(&self) -> &StreamPlan {
        &self.plan
    }

    /// The mutation-rate configuration.
    pub fn evolve(&self) -> &EvolveConfig {
        &self.evolve
    }

    /// Scan time of epoch `k` (epoch 0 is the base scan).
    pub fn epoch_time(&self, epoch: u32) -> Time {
        self.plan
            .scan_time()
            .plus_days(self.evolve.epoch_days * epoch as i64)
    }

    /// The base (epoch-0) state of shard `idx`: the streamed
    /// generator's records with §5.3.3 cluster postures applied, plus a
    /// scheduled validity window for every valid-https host.
    pub fn shard_base(&self, idx: usize) -> Vec<EpochHost> {
        let seeder = self.plan.seeder();
        let base_time = self.plan.scan_time();
        self.plan
            .country_records(idx)
            .into_iter()
            .map(|record| {
                let window = record
                    .posture
                    .is_valid_https()
                    .then(|| valid_window(seeder, &record.hostname, 0, base_time, false));
                EpochHost {
                    record,
                    generation: 0,
                    window,
                    disclosed: false,
                }
            })
            .collect()
    }

    /// Advance `state` (shard `idx` at epoch `epoch - 1`) to `epoch` by
    /// applying the five mutation streams. Every decision is keyed by
    /// `(label@epoch, hostname)`, so the result does not depend on how
    /// the caller got to `epoch - 1`.
    pub fn advance_shard(&self, idx: usize, state: &mut Vec<EpochHost>, epoch: u32) {
        let country = self.plan.countries()[idx];
        let seeder = self.plan.seeder();
        let ev = &self.evolve;
        let now = self.epoch_time(epoch);
        let in_window = |h: &EpochHost| {
            h.disclosed
                && epoch > ev.disclosure_epoch
                && epoch <= ev.disclosure_epoch + ev.response_window
        };
        let population = state.len();

        // 1. Churn-out. Names freed here stay off-limits to this
        // epoch's churn-in: a same-named host leaving and re-entering
        // within one epoch would register as an unchanged record at a
        // new position, which the delta encoding rejects as a reorder.
        let out_label = format!("evolve-out@{epoch}");
        let mut freed: Vec<String> = Vec::new();
        state.retain(|h| {
            let keep = frac(seeder, &out_label, &h.record.hostname) >= ev.churn_out_rate;
            if !keep {
                freed.push(h.record.hostname.clone());
            }
            keep
        });

        let remed_label = format!("evolve-remed@{epoch}");
        let adopt_label = format!("evolve-adopt@{epoch}");
        let renew_label = format!("evolve-renew@{epoch}");
        for h in state.iter_mut() {
            let hostname = h.record.hostname.clone();
            match h.record.posture {
                // 2. Remediation: broken https gets fixed — fast inside
                // the disclosure response window, a trickle outside it.
                Posture::InvalidHttps { .. } => {
                    let rate = if in_window(h) {
                        ev.remediation_rate
                    } else {
                        ev.background_remediation_rate
                    };
                    if frac(seeder, &remed_label, &hostname) < rate {
                        let mut rng = seeder.rng(&remed_label, &hostname);
                        h.record.posture = Posture::ValidHttps {
                            serves_http_too: rng.gen::<f64>() < 0.1,
                            hsts: rng.gen::<f64>() < ev.hsts_adoption_rate,
                        };
                        h.record.issuer = None;
                        h.generation += 1;
                        h.window = Some(valid_window(seeder, &hostname, h.generation, now, true));
                    }
                }
                // 3. Adoption: notified http-only hosts deploy https.
                Posture::HttpOnly => {
                    if in_window(h) && frac(seeder, &adopt_label, &hostname) < ev.adoption_rate {
                        let mut rng = seeder.rng(&adopt_label, &hostname);
                        h.record.posture = Posture::ValidHttps {
                            // Fresh deployments usually keep the old
                            // http site up alongside.
                            serves_http_too: rng.gen::<f64>() < 0.6,
                            hsts: rng.gen::<f64>() < ev.hsts_adoption_rate,
                        };
                        h.generation += 1;
                        h.window = Some(valid_window(seeder, &hostname, h.generation, now, true));
                    }
                }
                // 4. Renewal: in-horizon valid hosts reissue; HSTS may
                // switch on here (rollout rides the renewal cycle).
                Posture::ValidHttps {
                    serves_http_too,
                    hsts,
                } => {
                    let due = h
                        .not_after()
                        .map(|na| na.0 <= now.plus_days(ev.renewal_horizon_days).0)
                        .unwrap_or(false);
                    if due && frac(seeder, &renew_label, &hostname) < ev.renewal_rate {
                        let mut rng = seeder.rng(&renew_label, &hostname);
                        h.record.posture = Posture::ValidHttps {
                            // Reissuance is when redirects get fixed…
                            serves_http_too: serves_http_too && rng.gen::<f64>() >= 0.15,
                            // …and HSTS gets turned on.
                            hsts: hsts || rng.gen::<f64>() < ev.hsts_adoption_rate,
                        };
                        h.record.issuer = None;
                        h.generation += 1;
                        h.window = Some(valid_window(seeder, &hostname, h.generation, now, true));
                    }
                }
                Posture::Unreachable => {}
            }
        }

        // 5. Churn-in: new hosts from the same posture model, named so
        // they keep the country's government suffix (the scanner's
        // country annotation is suffix-based).
        let expected = population as f64 * ev.churn_in_rate;
        let churn_label = format!("evolve-churnin@{epoch}");
        let mut count = expected.floor() as usize;
        if frac(seeder, &churn_label, country.code) < expected.fract() {
            count += 1;
        }
        if count > 0 {
            let mut used: HashSet<String> =
                state.iter().map(|h| h.record.hostname.clone()).collect();
            used.extend(freed);
            let mut rng = seeder.rng(&churn_label, country.code);
            let mut namer = HostnameGen::new(country);
            let rates = PostureRates::for_country(country);
            let assigner = HostingAssigner::new();
            let cloud = cloud_share(country);
            for i in 0..count {
                let mut hostname = namer.next_gov(&mut rng).to_owned();
                let mut attempts = 0;
                while used.contains(&hostname) {
                    attempts += 1;
                    if attempts > 100 {
                        // The namer never repeats itself, so collisions
                        // here are against the live population; a
                        // numbered leftmost label settles it while
                        // keeping the suffix.
                        let (first, rest) = hostname.split_once('.').expect("hostnames have dots");
                        hostname = format!("{first}-e{epoch}n{i}.{rest}");
                        break;
                    }
                    hostname = namer.next_gov(&mut rng).to_owned();
                }
                used.insert(hostname.clone());
                let p = rates.sample(&mut rng);
                let hosting = assigner.sample_class(&mut rng, cloud);
                let p = posture::apply_cloud_boost(
                    &mut rng,
                    p,
                    hosting != HostingClass::Private && country.code != "cn",
                );
                let has_caa = rng.gen::<f64>() < 0.0136;
                let window = p
                    .is_valid_https()
                    .then(|| valid_window(seeder, &hostname, 0, now, true));
                state.push(EpochHost {
                    record: HostRecord {
                        hostname,
                        country: country.code,
                        is_gov: true,
                        posture: p,
                        issuer: None,
                        hosting,
                        tranco_rank: None,
                        in_seed: false,
                        gsa_datasets: Vec::new(),
                        in_rok_list: false,
                        has_caa,
                        is_ev: false,
                    },
                    generation: 0,
                    window,
                    disclosed: false,
                });
            }
        }

        // Disclosure notices go out after this epoch's measurement: any
        // host that is reachable but not serving valid https gets one.
        if epoch == ev.disclosure_epoch {
            for h in state.iter_mut() {
                h.disclosed = matches!(
                    h.record.posture,
                    Posture::InvalidHttps { .. } | Posture::HttpOnly
                );
            }
        }
    }

    /// The full state of shard `idx` at `epoch` — a pure function of
    /// `(config, epoch)`, built by advancing the base state epoch by
    /// epoch.
    pub fn shard_state(&self, epoch: u32, idx: usize) -> Vec<EpochHost> {
        let mut state = self.shard_base(idx);
        for e in 1..=epoch {
            self.advance_shard(idx, &mut state, e);
        }
        state
    }

    /// Realize the hosts of `state` selected by `indices` into a
    /// [`SimNet`] serving exactly their wire behaviour.
    ///
    /// Each host gets a dedicated realizer seeded from its own
    /// `(hostname, generation)` stream, so realization is independent of
    /// which other hosts are in the subset — the property that makes an
    /// incremental scan's probe set realize identically to the full
    /// world's. §9 shared-chain groups are never planned here (the
    /// monitor world issues dedicated chains); §5.3.3 cluster chains
    /// still apply, resolved through the plan's cluster table.
    pub fn realize_subset(&self, state: &[EpochHost], indices: &[usize]) -> SimNet {
        let mut net = SimNet::new();
        for &i in indices {
            let h = &state[i];
            let shard = format!("{}@g{}", h.record.hostname, h.generation);
            let mut r = self.plan.realizer("evolve", &shard);
            r.set_validity_override(h.window);
            r.realize(h.record.clone(), &[]);
            r.into_batch().install(&mut net);
        }
        net
    }

    /// Realize every host of `state` — the full-rescan arm.
    pub fn realize_all(&self, state: &[EpochHost]) -> SimNet {
        let indices: Vec<usize> = (0..state.len()).collect();
        self.realize_subset(state, &indices)
    }
}

/// The validity schedule for model-managed certificates: duration from
/// the paper's §5.3 mix, age either "freshly issued" (a renewal or a new
/// deployment: up to a week old) or "somewhere mid-lifetime" (the base
/// world, mirroring [`posture::sample_validity_window`]'s spread). Keyed
/// by `(hostname, generation)` so a host's window is stable until its
/// behaviour changes.
fn valid_window(
    seeder: StreamSeeder,
    hostname: &str,
    generation: u32,
    anchor: Time,
    fresh: bool,
) -> (Time, i64) {
    let mut rng = seeder.rng("evolve-validity", &format!("{hostname}@g{generation}"));
    let days = [90, 90, 90, 365, 365, 730, 825][rng.gen_range(0..7)];
    let age = if fresh {
        rng.gen_range(1..=7)
    } else {
        rng.gen_range(1..(days - 7).max(8))
    };
    (anchor.plus_days(-age), days)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> MonitorPlan {
        MonitorPlan::new(&WorldConfig::small(0xE70C), EvolveConfig::weekly())
    }

    fn posture_key(p: &Posture) -> &'static str {
        match p {
            Posture::HttpOnly => "http",
            Posture::ValidHttps { .. } => "valid",
            Posture::InvalidHttps { .. } => "invalid",
            Posture::Unreachable => "unreachable",
        }
    }

    #[test]
    fn epoch_state_is_a_pure_function_of_epoch() {
        let p = plan();
        for idx in [0, 3] {
            // Direct reconstruction at epoch 3 == stepping a second
            // plan instance through 1, 2, 3.
            let direct = p.shard_state(3, idx);
            let q = plan();
            let mut stepped = q.shard_base(idx);
            for e in 1..=3 {
                q.advance_shard(idx, &mut stepped, e);
            }
            assert_eq!(direct.len(), stepped.len());
            for (a, b) in direct.iter().zip(&stepped) {
                assert_eq!(a.record.hostname, b.record.hostname);
                assert_eq!(a.record.posture, b.record.posture);
                assert_eq!(a.generation, b.generation);
                assert_eq!(a.window, b.window);
                assert_eq!(a.disclosed, b.disclosed);
            }
        }
    }

    #[test]
    fn base_state_matches_streamed_shard_population() {
        let p = plan();
        let shard = p.plan().realize_shard(0);
        let base = p.shard_base(0);
        let names: Vec<&str> = base.iter().map(|h| h.record.hostname.as_str()).collect();
        assert_eq!(
            names,
            shard
                .hostnames
                .iter()
                .map(|h| h.as_str())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn mutations_actually_happen() {
        let p = plan();
        let mut churned_in = 0usize;
        let mut remediated = 0usize;
        let mut renewed = 0usize;
        let mut transitions: HashSet<(&'static str, &'static str)> = HashSet::new();
        for idx in 0..p.plan().shard_count() {
            let base = p.shard_base(idx);
            let later = p.shard_state(10, idx);
            let by_name: std::collections::HashMap<&str, &EpochHost> = base
                .iter()
                .map(|h| (h.record.hostname.as_str(), h))
                .collect();
            for h in &later {
                match by_name.get(h.record.hostname.as_str()) {
                    None => churned_in += 1,
                    Some(b) => {
                        if b.record.posture != h.record.posture {
                            transitions.insert((
                                posture_key(&b.record.posture),
                                posture_key(&h.record.posture),
                            ));
                            if posture_key(&b.record.posture) == "invalid" {
                                remediated += 1;
                            }
                        } else if h.generation > 0 && h.record.posture.is_valid_https() {
                            renewed += 1;
                        }
                    }
                }
            }
        }
        assert!(churned_in > 0, "no churned-in hosts after 10 epochs");
        assert!(remediated > 0, "no remediation after 10 epochs");
        assert!(renewed > 0, "no renewals after 10 epochs");
        assert!(
            transitions.contains(&("invalid", "valid")),
            "missing invalid→valid transition: {transitions:?}"
        );
    }

    #[test]
    fn churn_out_removes_hosts() {
        let p = plan();
        let mut removed = 0usize;
        for idx in 0..p.plan().shard_count() {
            let base: HashSet<String> = p
                .shard_base(idx)
                .iter()
                .map(|h| h.record.hostname.clone())
                .collect();
            let later: HashSet<String> = p
                .shard_state(10, idx)
                .iter()
                .map(|h| h.record.hostname.clone())
                .collect();
            removed += base.difference(&later).count();
        }
        assert!(removed > 0, "no churned-out hosts after 10 epochs");
    }

    #[test]
    fn unchanged_hosts_realize_identically_across_epochs() {
        use govscan_net::{TcpOutcome, TlsClientConfig};

        let p = plan();
        let e1 = p.shard_state(1, 0);
        let e4 = p.shard_state(4, 0);
        let by_name: std::collections::HashMap<&str, usize> = e4
            .iter()
            .enumerate()
            .map(|(i, h)| (h.record.hostname.as_str(), i))
            .collect();
        // Pick hosts unchanged between epochs 1 and 4 and require their
        // realized wire behaviour to be bit-identical.
        let client = TlsClientConfig::default();
        let mut checked = 0usize;
        for (i1, h1) in e1.iter().enumerate() {
            let Some(&i4) = by_name.get(h1.record.hostname.as_str()) else {
                continue;
            };
            if e4[i4].generation != h1.generation {
                continue;
            }
            let net1 = p.realize_subset(&e1, &[i1]);
            let net4 = p.realize_subset(&e4, &[i4]);
            let name = &h1.record.hostname;
            assert_eq!(
                format!("{:?}", net1.resolve(name)),
                format!("{:?}", net4.resolve(name)),
                "dns for {name}"
            );
            let tcp1 = net1.tcp_connect(name, 443);
            assert_eq!(
                format!("{tcp1:?}"),
                format!("{:?}", net4.tcp_connect(name, 443)),
                "tcp for {name}"
            );
            if matches!(tcp1, TcpOutcome::Accepted) {
                match (
                    net1.tls_connect(name, &client),
                    net4.tls_connect(name, &client),
                ) {
                    (Ok(a), Ok(b)) => {
                        let fp = |c: &std::sync::Arc<[govscan_pki::Certificate]>| -> Vec<_> {
                            c.iter().map(|x| x.fingerprint()).collect()
                        };
                        assert_eq!(fp(&a.peer_chain), fp(&b.peer_chain), "chain for {name}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "tls error for {name}"),
                    (a, b) => {
                        panic!(
                            "tls diverged for {name}: {:?} vs {:?}",
                            a.is_ok(),
                            b.is_ok()
                        )
                    }
                }
            }
            checked += 1;
            if checked >= 25 {
                break;
            }
        }
        assert!(
            checked >= 10,
            "too few unchanged hosts to check ({checked})"
        );
    }

    #[test]
    fn renewal_pushes_expiry_forward() {
        let p = plan();
        let base = p.shard_base(0);
        let later = p.shard_state(8, 0);
        let by_name: std::collections::HashMap<&str, &EpochHost> = base
            .iter()
            .map(|h| (h.record.hostname.as_str(), h))
            .collect();
        let mut renewals = 0usize;
        for h in &later {
            let Some(b) = by_name.get(h.record.hostname.as_str()) else {
                continue;
            };
            if h.generation > b.generation && h.record.posture.is_valid_https() {
                if let (Some(old), Some(new)) = (b.not_after(), h.not_after()) {
                    assert!(
                        new.0 > old.0,
                        "renewal moved expiry backwards for {}",
                        h.record.hostname
                    );
                    renewals += 1;
                }
            }
        }
        assert!(renewals > 0, "no renewals with windows to compare");
    }

    #[test]
    fn disclosure_flags_broken_hosts_only() {
        let p = plan();
        let ev = p.evolve().clone();
        let idx = 0;
        let mut state = p.shard_base(idx);
        for e in 1..=ev.disclosure_epoch {
            p.advance_shard(idx, &mut state, e);
        }
        assert!(state.iter().any(|h| h.disclosed), "nobody disclosed");
        for h in &state {
            let broken = matches!(
                h.record.posture,
                Posture::InvalidHttps { .. } | Posture::HttpOnly
            );
            assert_eq!(h.disclosed, broken, "{}", h.record.hostname);
        }
    }
}
