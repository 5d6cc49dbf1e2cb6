//! Incremental rescan planning: decide, per host, whether the next
//! epoch needs a live probe or can splice last epoch's record forward.
//!
//! A year-long monitor rescans the same population weekly, but a
//! steady-state week changes only a few percent of hosts. Probing all
//! 100k+ hosts every epoch spends >10× the work the ground truth
//! requires. This module plans the cheap alternative: re-probe exactly
//! the hosts whose wire behaviour *could* differ from the previous
//! epoch, and carry everyone else's record forward untouched.
//!
//! The planner is deliberately store-agnostic — the previous epoch
//! arrives as a `hostname → ScanRecord` lookup (owned or borrowed), not
//! an archive handle — so the scanner crate stays below `govscan-store`
//! in the dependency order (the store depends on the scanner for
//! [`ScanRecord`], not the reverse). The monitor supplies the closure
//! from the previous epoch's dataset, lending its records, and does the
//! actual splicing.
//!
//! ## The selection predicate, and why splicing is safe
//!
//! A host is probed when any of these hold, first match names the
//! [`SelectReason`]:
//!
//! 1. **No prior record** — churned in (or first epoch for this name).
//! 2. **Prior scan measured broken https** — remediation, whether
//!    disclosure-driven or background, only ever starts from a
//!    misconfigured host, and a broken cert's category can silently
//!    shift as time passes (`NotYetValid → Valid → Expired` without the
//!    host changing a thing). Broken hosts are ~10% of the population,
//!    so "always re-probe the broken" is cheap.
//! 3. **Prior certificate is inside the expiry horizon** — the only
//!    way a *valid* host's measurement changes without the host acting
//!    is its `not_after` crossing the scan time; renewal (the host
//!    acting) happens inside the same horizon by definition. Hosts with
//!    a cert expiring more than the horizon away cannot do either
//!    before the next epoch.
//! 4. **Recently disclosed** — hosts notified of a problem may change
//!    state in their response window even from a previously-quiet
//!    posture (an http-only host adopting https after disclosure has no
//!    broken cert and no expiring cert to trip rules 2–3).
//! 5. **A DNS ancestor changed** — a host's measurement is not a pure
//!    function of its own state: the CAA relevant set (RFC 8659) climbs
//!    the DNS tree to the closest publishing ancestor. A quiet
//!    `www.agency.gov` must still be re-probed when `agency.gov` itself
//!    is probed this epoch (rules 1–4 capture every way its published
//!    records can change — renewal rotates the authorized CA, a churned-
//!    in apex starts publishing) or when `agency.gov` left the
//!    population (its records un-publish and the climb resolves
//!    differently). This rule never cascades: a host probed *only*
//!    because of an ancestor re-measures its own CAA climb, but what it
//!    publishes for its descendants is unchanged, so one pass over the
//!    rule-1–4 probe set suffices.
//!
//! Everything else splices: a valid host far from expiry, an
//! undisclosed http-only host, an unreachable host. For those, every
//! input that determines the measured record — DNS, TCP, the served
//! chain, headers, the trust verdict at the new scan time — is
//! unchanged by construction, which is what the monitor's `--self-check`
//! proves end-to-end (spliced + probed re-archives to the same bytes as
//! a full rescan). A probe's CAA climb also reads its in-population
//! ancestors' published records, so a caller that realizes only part of
//! the population realizes [`IncrementalPlan::realize`]: the probes plus
//! those ancestors, which the planner collects on the same walk.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

use govscan_pki::Time;

use crate::dataset::ScanRecord;

/// Tuning for [`plan_rescan`].
#[derive(Debug, Clone)]
pub struct IncrementalPolicy {
    /// Probe any host whose prior certificate expires within this many
    /// days of the new scan time. Must be at least the epoch length,
    /// and at least the world's renewal horizon when tracking a
    /// simulated world that renews early.
    pub horizon_days: i64,
    /// Hosts inside their post-disclosure response window: they may
    /// change state without any certificate-side tell.
    pub recently_disclosed: HashSet<String>,
}

impl IncrementalPolicy {
    /// A policy probing certs that expire within `horizon_days`, with
    /// no disclosure window active.
    pub fn new(horizon_days: i64) -> IncrementalPolicy {
        IncrementalPolicy {
            horizon_days,
            recently_disclosed: HashSet::new(),
        }
    }
}

/// Why a host was selected for probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectReason {
    /// No record in the previous epoch.
    New,
    /// The previous scan measured broken https.
    PriorBroken,
    /// The previous certificate expires within the horizon.
    ExpiryHorizon,
    /// The host is inside its post-disclosure response window.
    RecentlyDisclosed,
    /// A DNS ancestor in the population is probed this epoch, or left
    /// the population — the host's CAA relevant set may resolve
    /// differently even though its own state is unchanged.
    AncestorChanged,
}

/// The per-host outcome of planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Probe the host live this epoch.
    Probe(SelectReason),
    /// Carry the previous epoch's record forward unchanged.
    Splice,
}

/// Aggregate counts over one planned epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Hosts considered.
    pub total: usize,
    /// Hosts selected for probing.
    pub probed: usize,
    /// Hosts spliced from the previous epoch.
    pub spliced: usize,
    /// Probes attributed to [`SelectReason::New`].
    pub new: usize,
    /// Probes attributed to [`SelectReason::PriorBroken`].
    pub prior_broken: usize,
    /// Probes attributed to [`SelectReason::ExpiryHorizon`].
    pub expiring: usize,
    /// Probes attributed to [`SelectReason::RecentlyDisclosed`].
    pub disclosed: usize,
    /// Probes attributed to [`SelectReason::AncestorChanged`].
    pub ancestor_changed: usize,
}

impl IncrementalStats {
    /// Fraction of the population probed (0 when empty).
    pub fn probe_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.probed as f64 / self.total as f64
        }
    }
}

/// One epoch's plan: a decision per input hostname, in input order.
#[derive(Debug, Clone)]
pub struct IncrementalPlan {
    /// `(hostname, decision)` aligned with the input host list.
    pub decisions: Vec<(String, Decision)>,
    /// Input indices to realize, ascending: every probe plus its
    /// in-population DNS ancestors, whose published CAA records the
    /// probe's climb reads (module docs).
    pub realize: Vec<usize>,
    /// Aggregate counts.
    pub stats: IncrementalStats,
}

impl IncrementalPlan {
    /// The hostnames to probe, in input order.
    pub fn probes(&self) -> impl Iterator<Item = &str> {
        self.decisions.iter().filter_map(|(name, d)| match d {
            Decision::Probe(_) => Some(name.as_str()),
            Decision::Splice => None,
        })
    }
}

/// The proper DNS ancestors of `name`, nearest first:
/// `a.www.agency.gov` yields `www.agency.gov`, `agency.gov`, `gov`.
fn ancestors(name: &str) -> impl Iterator<Item = &str> {
    std::iter::successors(name.split_once('.').map(|(_, p)| p), |n| {
        n.split_once('.').map(|(_, p)| p)
    })
}

/// Plan the rescan of `hostnames` at `now`, given lookup of the
/// previous epoch's records. `prior` may hand out the records by
/// reference (`|name| prev.get(name)`), so planning copies none of them.
/// See the module docs for the predicate and the argument for why
/// splicing the rest is lossless.
pub fn plan_rescan<'a, R: Borrow<ScanRecord>>(
    policy: &IncrementalPolicy,
    now: Time,
    hostnames: impl IntoIterator<Item = &'a str>,
    mut prior: impl FnMut(&str) -> Option<R>,
) -> IncrementalPlan {
    let horizon = now.plus_days(policy.horizon_days);
    let names: Vec<&str> = hostnames.into_iter().collect();
    let mut decisions = Vec::with_capacity(names.len());
    for &hostname in &names {
        let decision = match prior(hostname) {
            None => Decision::Probe(SelectReason::New),
            Some(prev) => {
                let prev = prev.borrow();
                if prev.available && prev.https.error().is_some() {
                    Decision::Probe(SelectReason::PriorBroken)
                } else if prev
                    .https
                    .meta()
                    .is_some_and(|m| m.not_after.0 <= horizon.0)
                {
                    Decision::Probe(SelectReason::ExpiryHorizon)
                } else if policy.recently_disclosed.contains(hostname) {
                    Decision::Probe(SelectReason::RecentlyDisclosed)
                } else {
                    Decision::Splice
                }
            }
        };
        decisions.push((hostname.to_string(), decision));
    }

    // Rule 5: re-probe spliced hosts whose CAA climb can resolve
    // differently. The test is against the rule-1–4 probe set only —
    // an ancestor flipped by this pass has unchanged published records,
    // so the rule cannot cascade (module docs).
    let by_name: HashMap<&str, usize> = names.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let base_probe: Vec<bool> = decisions
        .iter()
        .map(|(_, d)| matches!(d, Decision::Probe(_)))
        .collect();
    for (i, &name) in names.iter().enumerate() {
        if base_probe[i] {
            continue;
        }
        let ancestor_changed = ancestors(name).any(|parent| match by_name.get(parent) {
            Some(&pi) => base_probe[pi],
            // Not in this epoch's population: if it was in the
            // previous one, it just churned out and un-published.
            None => prior(parent).is_some(),
        });
        if ancestor_changed {
            decisions[i].1 = Decision::Probe(SelectReason::AncestorChanged);
        }
    }

    // The realize set: every probe and its in-population ancestors.
    let mut realize_mask = vec![false; names.len()];
    for (i, (_, decision)) in decisions.iter().enumerate() {
        if matches!(decision, Decision::Probe(_)) {
            realize_mask[i] = true;
            for pi in ancestors(names[i]).filter_map(|parent| by_name.get(parent)) {
                realize_mask[*pi] = true;
            }
        }
    }
    let realize = (0..names.len()).filter(|&i| realize_mask[i]).collect();

    let mut stats = IncrementalStats::default();
    for (_, decision) in &decisions {
        stats.total += 1;
        match decision {
            Decision::Probe(reason) => {
                stats.probed += 1;
                match reason {
                    SelectReason::New => stats.new += 1,
                    SelectReason::PriorBroken => stats.prior_broken += 1,
                    SelectReason::ExpiryHorizon => stats.expiring += 1,
                    SelectReason::RecentlyDisclosed => stats.disclosed += 1,
                    SelectReason::AncestorChanged => stats.ancestor_changed += 1,
                }
            }
            Decision::Splice => stats.spliced += 1,
        }
    }
    IncrementalPlan {
        decisions,
        realize,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{CertMeta, HttpsStatus};
    use crate::ErrorCategory;
    use govscan_crypto::{Fingerprint, KeyAlgorithm, SignatureAlgorithm};

    fn meta(not_after: Time) -> CertMeta {
        CertMeta {
            issuer: "DigiCert".into(),
            key_algorithm: KeyAlgorithm::Rsa(2048),
            signature_algorithm: SignatureAlgorithm::Sha256WithRsa,
            not_before: Time(0),
            not_after,
            serial: "01".into(),
            fingerprint: Fingerprint([7; 32]),
            key_fingerprint: Fingerprint([8; 32]),
            wildcard: false,
            is_ev: false,
            self_issued: false,
            chain_len: 2,
        }
    }

    fn host(name: &str, https: HttpsStatus) -> ScanRecord {
        let mut r = ScanRecord::unavailable(name.to_string());
        r.available = true;
        r.https = https;
        r
    }

    /// now = 0, horizon 30 days.
    fn plan(policy: &IncrementalPolicy, records: Vec<ScanRecord>) -> IncrementalPlan {
        let names: Vec<String> = records
            .iter()
            .map(|r| r.hostname.clone())
            .chain(["fresh.gov".to_string()])
            .collect();
        plan_rescan(
            policy,
            Time(0),
            names.iter().map(|s| s.as_str()),
            move |name| records.iter().find(|r| r.hostname == name).cloned(),
        )
    }

    #[test]
    fn predicate_selects_exactly_the_at_risk_hosts() {
        let far = Time(0).plus_days(365);
        let near = Time(0).plus_days(10);
        let mut policy = IncrementalPolicy::new(30);
        policy
            .recently_disclosed
            .insert("disclosed-httponly.gov".to_string());
        let plan = plan(
            &policy,
            vec![
                host("valid-far.gov", HttpsStatus::Valid(meta(far))),
                host("valid-near.gov", HttpsStatus::Valid(meta(near))),
                host(
                    "broken.gov",
                    HttpsStatus::Invalid(ErrorCategory::SelfSigned, Some(meta(far))),
                ),
                host("httponly.gov", HttpsStatus::None),
                host("disclosed-httponly.gov", HttpsStatus::None),
                ScanRecord::unavailable("dark.gov".to_string()),
            ],
        );
        let by_name: std::collections::HashMap<&str, Decision> = plan
            .decisions
            .iter()
            .map(|(n, d)| (n.as_str(), *d))
            .collect();
        assert_eq!(by_name["valid-far.gov"], Decision::Splice);
        assert_eq!(
            by_name["valid-near.gov"],
            Decision::Probe(SelectReason::ExpiryHorizon)
        );
        assert_eq!(
            by_name["broken.gov"],
            Decision::Probe(SelectReason::PriorBroken)
        );
        assert_eq!(by_name["httponly.gov"], Decision::Splice);
        assert_eq!(
            by_name["disclosed-httponly.gov"],
            Decision::Probe(SelectReason::RecentlyDisclosed)
        );
        assert_eq!(by_name["dark.gov"], Decision::Splice);
        assert_eq!(by_name["fresh.gov"], Decision::Probe(SelectReason::New));

        assert_eq!(plan.stats.total, 7);
        assert_eq!(plan.stats.probed, 4);
        assert_eq!(plan.stats.spliced, 3);
        assert_eq!(plan.stats.new, 1);
        assert_eq!(plan.stats.prior_broken, 1);
        assert_eq!(plan.stats.expiring, 1);
        assert_eq!(plan.stats.disclosed, 1);
        assert!((plan.stats.probe_fraction() - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(
            plan.probes().collect::<Vec<_>>(),
            vec![
                "valid-near.gov",
                "broken.gov",
                "disclosed-httponly.gov",
                "fresh.gov"
            ]
        );
    }

    #[test]
    fn broken_beats_horizon_and_disclosure_in_attribution() {
        // A broken host with a near-expiry cert that is also disclosed:
        // one probe, attributed to the first matching rule.
        let mut policy = IncrementalPolicy::new(30);
        policy.recently_disclosed.insert("b.gov".to_string());
        let plan = plan(
            &policy,
            vec![host(
                "b.gov",
                HttpsStatus::Invalid(ErrorCategory::Expired, Some(meta(Time(0).plus_days(1)))),
            )],
        );
        assert_eq!(
            plan.decisions[0].1,
            Decision::Probe(SelectReason::PriorBroken)
        );
        assert_eq!(plan.stats.probed, 2, "b.gov plus the always-new host");
    }

    #[test]
    fn a_probed_ancestor_forces_its_descendants() {
        // agency.gov renews (near-expiry → rule 3); www.agency.gov is
        // quiet but its CAA climb passes through agency.gov, whose
        // published CA can rotate with the renewal.
        let far = Time(0).plus_days(365);
        let near = Time(0).plus_days(10);
        let plan = plan(
            &IncrementalPolicy::new(30),
            vec![
                host("agency.gov", HttpsStatus::Valid(meta(near))),
                host("www.agency.gov", HttpsStatus::Valid(meta(far))),
            ],
        );
        let by_name: std::collections::HashMap<&str, Decision> = plan
            .decisions
            .iter()
            .map(|(n, d)| (n.as_str(), *d))
            .collect();
        assert_eq!(
            by_name["agency.gov"],
            Decision::Probe(SelectReason::ExpiryHorizon)
        );
        assert_eq!(
            by_name["www.agency.gov"],
            Decision::Probe(SelectReason::AncestorChanged)
        );
        assert_eq!(plan.stats.ancestor_changed, 1);
    }

    #[test]
    fn a_churned_out_ancestor_forces_its_descendants() {
        // agency.gov was in the prior epoch but is gone from the input
        // population: its records un-publish, so every descendant's
        // relevant CAA set may resolve differently.
        let far = Time(0).plus_days(365);
        let prior_records = [
            host("agency.gov", HttpsStatus::Valid(meta(far))),
            host("www.agency.gov", HttpsStatus::Valid(meta(far))),
        ];
        let plan = plan_rescan(
            &IncrementalPolicy::new(30),
            Time(0),
            ["www.agency.gov"],
            move |name| prior_records.iter().find(|r| r.hostname == name).cloned(),
        );
        assert_eq!(
            plan.decisions[0].1,
            Decision::Probe(SelectReason::AncestorChanged)
        );
    }

    #[test]
    fn a_probed_sibling_does_not_force_a_splice() {
        // Only ancestors matter for the CAA climb: a probed sibling
        // under the same quiet apex leaves the host spliced.
        let far = Time(0).plus_days(365);
        let plan = plan(
            &IncrementalPolicy::new(30),
            vec![
                host("agency.gov", HttpsStatus::Valid(meta(far))),
                host("www.agency.gov", HttpsStatus::Valid(meta(far))),
                host(
                    "broken.agency.gov",
                    HttpsStatus::Invalid(ErrorCategory::SelfSigned, Some(meta(far))),
                ),
            ],
        );
        let by_name: std::collections::HashMap<&str, Decision> = plan
            .decisions
            .iter()
            .map(|(n, d)| (n.as_str(), *d))
            .collect();
        assert_eq!(by_name["www.agency.gov"], Decision::Splice);
        assert_eq!(by_name["agency.gov"], Decision::Splice);
        assert_eq!(plan.stats.ancestor_changed, 0);
    }

    #[test]
    fn an_unavailable_host_with_stale_meta_is_not_probed() {
        // Unreachable hosts keep whatever https field they were built
        // with (None), and the model holds them static — splice.
        let plan = plan(
            &IncrementalPolicy::new(30),
            vec![ScanRecord::unavailable("down.gov".to_string())],
        );
        assert_eq!(plan.decisions[0].1, Decision::Splice);
    }

    #[test]
    fn a_probe_realizes_its_in_population_ancestors() {
        // a.www.agency.gov is probed; its CAA climb reads www.agency.gov
        // and agency.gov, which stay spliced but must be realized. The
        // unrelated host is neither.
        let far = Time(0).plus_days(365);
        let prior_records = [
            host("unrelated.gov", HttpsStatus::Valid(meta(far))),
            host(
                "a.www.agency.gov",
                HttpsStatus::Invalid(ErrorCategory::SelfSigned, Some(meta(far))),
            ),
            host("agency.gov", HttpsStatus::Valid(meta(far))),
            host("www.agency.gov", HttpsStatus::Valid(meta(far))),
        ];
        let names: Vec<String> = prior_records.iter().map(|r| r.hostname.clone()).collect();
        let plan = plan_rescan(
            &IncrementalPolicy::new(30),
            Time(0),
            names.iter().map(|s| s.as_str()),
            |name| prior_records.iter().find(|r| r.hostname == name).cloned(),
        );
        assert_eq!(plan.probes().collect::<Vec<_>>(), vec!["a.www.agency.gov"]);
        assert_eq!(plan.realize, vec![1, 2, 3]);
    }

    #[test]
    fn with_no_prior_epoch_everything_is_realized() {
        let names = ["agency.gov", "www.agency.gov", "other.gov", "x.other.gov"];
        let plan = plan_rescan(&IncrementalPolicy::new(30), Time(0), names, |_| {
            None::<&ScanRecord>
        });
        assert_eq!(plan.stats.new, names.len());
        assert_eq!(plan.realize, (0..names.len()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_population_plans_cleanly() {
        let plan = plan_rescan(&IncrementalPolicy::new(30), Time(0), [], |_| {
            None::<&ScanRecord>
        });
        assert_eq!(plan.stats, IncrementalStats::default());
        assert!(plan.realize.is_empty());
        assert_eq!(plan.stats.probe_fraction(), 0.0);
    }
}
