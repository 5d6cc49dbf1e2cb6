//! Single-pass aggregation over a [`ScanDataset`].
//!
//! Every §5 analysis is derived from the same 135,408-host scan, yet the
//! original builders each re-walked the full dataset. This module makes
//! one pass over the records and produces an [`AggregateIndex`]: owned
//! per-host summaries (availability/https/validity flags, error
//! category, certificate bits) plus pre-grouped indices (by country, by
//! error category, by certificate fingerprint, by key fingerprint, by
//! issuer). The analysis modules consume the index through their
//! `build_from_index` entry points, their only builders: a caller
//! builds one index and passes it to each.
//!
//! The one-pass invariant is load-bearing and instrumented:
//! [`AggregateIndex::build`] calls [`ScanDataset::records`] exactly
//! once, which the dataset's walk counter ([`ScanDataset::walks`])
//! asserts in tests here and in `tests/equivalence.rs`.
//!
//! At paper scale the build itself is parallel: the record range is cut
//! into fixed-size contiguous shards, workers on the shared executor
//! ([`govscan_exec`]) build one partial index per shard, and the
//! partials are merged *in shard order* — issuer ids remapped to global
//! first-seen order, certificate slots rebased, grouped positions
//! concatenated ascending — so the final index is bit-identical to a
//! serial build at any worker count (DESIGN.md §11).

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

use govscan_crypto::{Fingerprint, KeyAlgorithm, SignatureAlgorithm};
use govscan_pki::Time;
use govscan_scanner::dataset::HostingKind;
use govscan_scanner::{ErrorCategory, ScanDataset, ScanRecord};

/// A multiply-rotate hasher for [`Fingerprint`] keys. Fingerprints are
/// SHA-256 outputs — already uniformly distributed — so the default
/// SipHash's keyed collision resistance buys nothing here while costing
/// most of the grouping time at the 135k-host scale.
#[derive(Debug, Clone, Copy, Default)]
pub struct FingerprintHasher(u64);

impl std::hash::Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("exact chunk"));
            self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
        }
        for &b in chunks.remainder() {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
        }
    }
}

/// A hash map keyed by certificate or public-key fingerprint.
pub type FingerprintMap<V> = HashMap<Fingerprint, V, BuildHasherDefault<FingerprintHasher>>;

/// Positions of one fingerprint group, in record order. Nearly every
/// certificate and key is presented by a single host, so the one-member
/// case is stored inline — grouping 135k hosts would otherwise allocate
/// a heap `Vec` per singleton, which dominates the whole build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Members {
    /// Exactly one member.
    One(u32),
    /// Two or more members, in record order. Boxed to keep the enum (and
    /// with it every hash bucket) at 16 bytes.
    Many(Box<Vec<u32>>),
}

impl Members {
    /// Group members as a slice, in record order.
    pub fn as_slice(&self) -> &[u32] {
        match self {
            Members::One(p) => std::slice::from_ref(p),
            Members::Many(v) => v,
        }
    }

    /// Member count (always ≥ 1).
    pub fn len(&self) -> usize {
        match self {
            Members::One(_) => 1,
            Members::Many(v) => v.len(),
        }
    }

    /// A group is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn push(&mut self, pos: u32) {
        match self {
            Members::One(a) => *self = Members::Many(Box::new(vec![*a, pos])),
            Members::Many(v) => v.push(pos),
        }
    }
}

/// Certificate facts shared by the issuer/key/duration/EV/CT/reuse
/// analyses. Present iff the probe retrieved a chain
/// (`HttpsStatus::meta()` was `Some`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertBits {
    /// Interned issuer id — resolve with [`AggregateIndex::issuer`].
    pub issuer: u32,
    /// Leaf certificate fingerprint.
    pub fingerprint: Fingerprint,
    /// Leaf public-key fingerprint.
    pub key_fingerprint: Fingerprint,
    /// Host public-key algorithm/size.
    pub key_algorithm: KeyAlgorithm,
    /// CA signing algorithm.
    pub signature_algorithm: SignatureAlgorithm,
    /// notBefore.
    pub not_before: Time,
    /// notAfter.
    pub not_after: Time,
    /// Total validity duration in days.
    pub validity_days: i64,
    /// Leaf carries a wildcard SAN/CN.
    pub wildcard: bool,
    /// Leaf asserts a recognised EV policy OID.
    pub is_ev: bool,
    /// Leaf is self-issued.
    pub self_issued: bool,
}

/// Everything the ported analyses need to know about one host.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSummary {
    /// The hostname dialled.
    pub hostname: String,
    /// Country inferred by the government filter.
    pub country: Option<&'static str>,
    /// Some endpoint returned a 200.
    pub available: bool,
    /// The host attempts https (valid or invalid).
    pub attempts: bool,
    /// The https chain validated.
    pub valid: bool,
    /// Valid https while also serving plain-http content.
    pub serves_both: bool,
    /// Strict-Transport-Security observed.
    pub hsts: bool,
    /// Plain http redirected to https.
    pub http_redirects_https: bool,
    /// Error category, for invalid https hosts.
    pub error: Option<ErrorCategory>,
    /// Hosting attribution.
    pub hosting: HostingKind,
    /// Certificate facts, when a chain was retrieved: an index into
    /// [`AggregateIndex::certs`] (kept out of line so the host spine
    /// stays compact — most hosts have no certificate).
    pub cert: Option<u32>,
}

/// Whole-dataset counters (Table 2's spine), accumulated in the same
/// single pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// All records, available or not.
    pub records: u64,
    /// Available hosts (the analysis denominator).
    pub available: u64,
    /// Available hosts serving http only.
    pub http_only: u64,
    /// Available hosts attempting https.
    pub https: u64,
    /// … with a valid chain.
    pub valid: u64,
    /// … valid and also serving plain http.
    pub valid_serving_both: u64,
    /// … with an invalid chain.
    pub invalid: u64,
}

/// The shared index: one [`ScanDataset`] walk, many derived views.
///
/// Grouped indices hold positions into [`Self::hosts`]; membership
/// populations differ by group (documented per field) and members are
/// always in record order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregateIndex {
    /// Per-host summaries, in record order.
    pub hosts: Vec<HostSummary>,
    /// Certificate facts for hosts with a retrieved chain, in record
    /// order; indexed by [`HostSummary::cert`].
    pub certs: Vec<CertBits>,
    /// Interned issuer names; `issuers[CertBits::issuer]`.
    pub issuers: Vec<String>,
    /// Whole-dataset counters.
    pub totals: Totals,
    /// All records with an inferred country (available or not).
    pub by_country: BTreeMap<&'static str, Vec<u32>>,
    /// Available hosts with invalid https, by error category.
    pub by_error: BTreeMap<ErrorCategory, Vec<u32>>,
    /// Available https-attempting hosts with a retrieved chain, in
    /// record order (the `https_attempting()` + `meta()` population).
    pub cert_hosts: Vec<u32>,
    /// That same population grouped by leaf certificate fingerprint.
    pub by_cert: FingerprintMap<Members>,
    /// … grouped by public-key fingerprint.
    pub by_key: FingerprintMap<Members>,
    /// … grouped by interned issuer id: `by_issuer[id]`.
    pub by_issuer: Vec<Vec<u32>>,
}

/// Fixed shard width for the parallel build. Deliberately *not* derived
/// from the worker count: the merge already makes the output independent
/// of the shard layout (proven by the invariance test comparing a
/// one-shard build against a many-shard one), but a fixed width keeps
/// the partials' memory footprint predictable and gives the executor
/// enough shards to balance across its workers.
const SHARD_SIZE: usize = 4096;

/// One shard's partial index over records `[base, base + len)`.
///
/// Grouped positions are already **global** (the shard layout is
/// contiguous, so `base + i` is known shard-locally); issuer ids and
/// certificate slots are shard-**local** and rebased by the merge.
#[derive(Debug, Default)]
struct Shard {
    hosts: Vec<HostSummary>,
    certs: Vec<CertBits>,
    issuers: Vec<String>,
    totals: Totals,
    by_country: HashMap<&'static str, Vec<u32>>,
    by_error: HashMap<ErrorCategory, Vec<u32>>,
    cert_hosts: Vec<u32>,
    by_cert: FingerprintMap<Members>,
    by_key: FingerprintMap<Members>,
    by_issuer: Vec<Vec<u32>>,
}

impl Shard {
    /// Index one contiguous run of records. This is the original
    /// single-pass build body, emitting global positions relative to
    /// `base` and shard-local issuer/certificate ids.
    fn build(records: &[ScanRecord], base: usize) -> Shard {
        // Roughly a third of scanned hosts present a certificate; sizing
        // the fingerprint tables to that (rather than a safe half) keeps
        // their fresh-page footprint down, and a rare growth rehash on an
        // unusually certificate-dense dataset is cheap.
        let cert_estimate = records.len() / 3;
        let mut shard = Shard {
            hosts: Vec::with_capacity(records.len()),
            certs: Vec::with_capacity(cert_estimate),
            cert_hosts: Vec::with_capacity(cert_estimate),
            by_cert: FingerprintMap::with_capacity_and_hasher(cert_estimate, Default::default()),
            by_key: FingerprintMap::with_capacity_and_hasher(cert_estimate, Default::default()),
            ..Shard::default()
        };
        let mut issuer_ids: HashMap<String, u32> = HashMap::new();
        for r in records {
            let pos = (base + shard.hosts.len()) as u32;
            let attempts = r.https.attempts();
            let valid = r.https.is_valid();
            shard.totals.records += 1;
            if let Some(cc) = r.country {
                shard.by_country.entry(cc).or_default().push(pos);
            }
            if r.available {
                shard.totals.available += 1;
                if !attempts {
                    shard.totals.http_only += 1;
                } else {
                    shard.totals.https += 1;
                    if valid {
                        shard.totals.valid += 1;
                        if r.serves_both() {
                            shard.totals.valid_serving_both += 1;
                        }
                    } else {
                        shard.totals.invalid += 1;
                    }
                }
            }
            let error = r.https.error();
            if r.available && attempts && !valid {
                let cat = error.expect("invalid https has a category");
                shard.by_error.entry(cat).or_default().push(pos);
            }
            let cert = r.https.meta().map(|meta| {
                let slot = shard.certs.len() as u32;
                let id = match issuer_ids.get(meta.issuer.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = issuer_ids.len() as u32;
                        issuer_ids.insert(meta.issuer.clone(), id);
                        shard.issuers.push(meta.issuer.clone());
                        shard.by_issuer.push(Vec::new());
                        id
                    }
                };
                if r.available && attempts {
                    shard.cert_hosts.push(pos);
                    shard
                        .by_cert
                        .entry(meta.fingerprint)
                        .and_modify(|m| m.push(pos))
                        .or_insert(Members::One(pos));
                    shard
                        .by_key
                        .entry(meta.key_fingerprint)
                        .and_modify(|m| m.push(pos))
                        .or_insert(Members::One(pos));
                    shard.by_issuer[id as usize].push(pos);
                }
                shard.certs.push(CertBits {
                    issuer: id,
                    fingerprint: meta.fingerprint,
                    key_fingerprint: meta.key_fingerprint,
                    key_algorithm: meta.key_algorithm,
                    signature_algorithm: meta.signature_algorithm,
                    not_before: meta.not_before,
                    not_after: meta.not_after,
                    validity_days: meta.validity_days(),
                    wildcard: meta.wildcard,
                    is_ev: meta.is_ev,
                    self_issued: meta.self_issued,
                });
                slot
            });
            shard.hosts.push(HostSummary {
                hostname: r.hostname.clone(),
                country: r.country,
                available: r.available,
                attempts,
                valid,
                serves_both: r.serves_both(),
                hsts: r.hsts,
                http_redirects_https: r.http_redirects_https,
                error,
                hosting: r.hosting,
                cert,
            });
        }
        shard
    }
}

/// Append one shard's members for a fingerprint group onto the global
/// group, preserving record order (shards merge ascending).
fn merge_members(map: &mut FingerprintMap<Members>, fp: Fingerprint, members: Members) {
    match map.entry(fp) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(members);
        }
        std::collections::hash_map::Entry::Occupied(mut e) => {
            for &pos in members.as_slice() {
                e.get_mut().push(pos);
            }
        }
    }
}

impl Totals {
    fn accumulate(&mut self, o: Totals) {
        self.records += o.records;
        self.available += o.available;
        self.http_only += o.http_only;
        self.https += o.https;
        self.valid += o.valid;
        self.valid_serving_both += o.valid_serving_both;
        self.invalid += o.invalid;
    }
}

impl AggregateIndex {
    /// Build the index in a single pass (exactly one
    /// [`ScanDataset::records`] call), sharded across the worker count
    /// resolved from `GOVSCAN_THREADS`.
    pub fn build(scan: &ScanDataset) -> AggregateIndex {
        Self::build_with_threads(scan, govscan_exec::resolve_threads("GOVSCAN_THREADS"))
    }

    /// [`Self::build`] with an explicit worker count. The output is
    /// bit-identical for every `threads` value; tests pin it to prove
    /// exactly that without racing the process environment.
    pub fn build_with_threads(scan: &ScanDataset, threads: usize) -> AggregateIndex {
        let records = scan.records();
        if threads <= 1 || records.len() <= SHARD_SIZE {
            // One shard covering everything: the serial path costs
            // exactly the original single-pass build plus an O(1) merge.
            return Self::merge(vec![Shard::build(records, 0)]);
        }
        let shards: Vec<(usize, &[ScanRecord])> = records
            .chunks(SHARD_SIZE)
            .enumerate()
            .map(|(i, chunk)| (i * SHARD_SIZE, chunk))
            .collect();
        let partials = govscan_exec::par_map(threads, shards, |_, (base, chunk)| {
            Shard::build(chunk, base)
        });
        Self::merge(partials)
    }

    /// Stitch shard partials into the final index, in shard order.
    ///
    /// Ordering argument (what makes this equal to a serial build):
    /// hosts, certificates, and every grouped-position list concatenate
    /// ascending because shards are contiguous and merged in order; an
    /// issuer first seen globally in shard *k* cannot appear in any
    /// earlier shard, so interning shard-local issuers in shard order
    /// reproduces global first-seen order exactly.
    fn merge(partials: Vec<Shard>) -> AggregateIndex {
        let total: usize = partials.iter().map(|p| p.hosts.len()).sum();
        let cert_estimate = total / 3;
        let mut index = AggregateIndex {
            hosts: Vec::with_capacity(total),
            certs: Vec::with_capacity(cert_estimate),
            cert_hosts: Vec::with_capacity(cert_estimate),
            by_cert: FingerprintMap::with_capacity_and_hasher(cert_estimate, Default::default()),
            by_key: FingerprintMap::with_capacity_and_hasher(cert_estimate, Default::default()),
            ..AggregateIndex::default()
        };
        let mut issuer_ids: HashMap<String, u32> = HashMap::new();
        // Build the two small keyed groupings through hash maps and sort
        // them into their BTreeMap fields once at the end: a per-record
        // ordered-map lookup is measurable at the 135k-host scale.
        let mut by_country: HashMap<&'static str, Vec<u32>> = HashMap::new();
        let mut by_error: HashMap<ErrorCategory, Vec<u32>> = HashMap::new();
        for part in partials {
            let cert_base = index.certs.len() as u32;
            // Shard-local issuer id → global id, preserving first-seen
            // order.
            let remap: Vec<u32> = part
                .issuers
                .into_iter()
                .map(|name| match issuer_ids.get(name.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = issuer_ids.len() as u32;
                        issuer_ids.insert(name.clone(), id);
                        index.issuers.push(name);
                        index.by_issuer.push(Vec::new());
                        id
                    }
                })
                .collect();
            for mut cb in part.certs {
                cb.issuer = remap[cb.issuer as usize];
                index.certs.push(cb);
            }
            for mut h in part.hosts {
                h.cert = h.cert.map(|slot| slot + cert_base);
                index.hosts.push(h);
            }
            index.cert_hosts.extend(part.cert_hosts);
            for (local, members) in part.by_issuer.into_iter().enumerate() {
                index.by_issuer[remap[local] as usize].extend(members);
            }
            for (fp, members) in part.by_cert {
                merge_members(&mut index.by_cert, fp, members);
            }
            for (fp, members) in part.by_key {
                merge_members(&mut index.by_key, fp, members);
            }
            for (cc, mut positions) in part.by_country {
                by_country.entry(cc).or_default().append(&mut positions);
            }
            for (cat, mut positions) in part.by_error {
                by_error.entry(cat).or_default().append(&mut positions);
            }
            index.totals.accumulate(part.totals);
        }
        index.by_country = by_country.into_iter().collect();
        index.by_error = by_error.into_iter().collect();
        index
    }

    /// The interned issuer name for a [`CertBits::issuer`] id.
    pub fn issuer(&self, id: u32) -> &str {
        &self.issuers[id as usize]
    }

    /// The host summary at a grouped-index position.
    pub fn host(&self, pos: u32) -> &HostSummary {
        &self.hosts[pos as usize]
    }

    /// The certificate facts for a host, when a chain was retrieved.
    pub fn cert_bits(&self, h: &HostSummary) -> Option<&CertBits> {
        h.cert.map(|i| &self.certs[i as usize])
    }

    /// The `https_attempting()` + `meta()` population, in record order.
    pub fn cert_hosts(&self) -> impl Iterator<Item = &HostSummary> {
        self.cert_hosts.iter().map(|&i| self.host(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govscan_scanner::classify::{CertMeta, HttpsStatus};
    use govscan_scanner::ScanRecord;

    fn meta(issuer: &str, fp: u8, key: u8) -> CertMeta {
        CertMeta {
            issuer: issuer.into(),
            key_algorithm: KeyAlgorithm::Rsa(2048),
            signature_algorithm: SignatureAlgorithm::Sha256WithRsa,
            not_before: Time::from_ymd(2020, 1, 1),
            not_after: Time::from_ymd(2020, 7, 1),
            serial: "01".into(),
            fingerprint: Fingerprint([fp; 32]),
            key_fingerprint: Fingerprint([key; 32]),
            wildcard: false,
            is_ev: false,
            self_issued: false,
            chain_len: 2,
        }
    }

    fn rec(
        host: &str,
        cc: Option<&'static str>,
        https: HttpsStatus,
        available: bool,
    ) -> ScanRecord {
        let mut r = ScanRecord::unavailable(host.to_string());
        r.available = available;
        r.https = https;
        r.country = cc;
        r
    }

    fn dataset() -> ScanDataset {
        ScanDataset::new(
            vec![
                rec(
                    "a.gov.bd",
                    Some("bd"),
                    HttpsStatus::Valid(meta("R3", 1, 1)),
                    true,
                ),
                rec(
                    "b.gov.bd",
                    Some("bd"),
                    HttpsStatus::Invalid(ErrorCategory::HostnameMismatch, Some(meta("R3", 1, 1))),
                    true,
                ),
                rec(
                    "c.gouv.fr",
                    Some("fr"),
                    HttpsStatus::Invalid(ErrorCategory::TimedOut, None),
                    true,
                ),
                rec("d.gov.za", Some("za"), HttpsStatus::None, true),
                rec("e.gov.za", Some("za"), HttpsStatus::None, false),
                rec(
                    "f.gov.in",
                    None,
                    HttpsStatus::Valid(meta("Other CA", 2, 2)),
                    true,
                ),
            ],
            Time::from_ymd(2020, 4, 22),
        )
    }

    #[test]
    fn build_walks_exactly_once() {
        let ds = dataset();
        assert_eq!(ds.walks(), 0);
        let index = AggregateIndex::build(&ds);
        assert_eq!(ds.walks(), 1, "one records() call");
        assert_eq!(index.hosts.len(), 6);
    }

    #[test]
    fn totals_match_the_dataset_spine() {
        let index = AggregateIndex::build(&dataset());
        let t = index.totals;
        assert_eq!(t.records, 6);
        assert_eq!(t.available, 5);
        assert_eq!(t.http_only, 1, "d.gov.za");
        assert_eq!(t.https, 4);
        assert_eq!(t.valid, 2);
        assert_eq!(t.invalid, 2);
        assert_eq!(t.available, t.http_only + t.https);
        assert_eq!(t.https, t.valid + t.invalid);
    }

    #[test]
    fn groups_hold_record_order_positions() {
        let index = AggregateIndex::build(&dataset());
        // by_country includes unavailable records (choropleth semantics).
        assert_eq!(index.by_country["za"].len(), 2);
        assert_eq!(index.by_country["bd"], vec![0, 1]);
        // The cert population excludes chains-less errors (TimedOut).
        assert_eq!(index.cert_hosts, vec![0, 1, 5]);
        // Shared cert + key fingerprints group a/b together.
        assert_eq!(index.by_cert[&Fingerprint([1; 32])].as_slice(), [0, 1]);
        assert_eq!(index.by_key[&Fingerprint([1; 32])].as_slice(), [0, 1]);
        // Errors grouped by category over available attempting hosts.
        assert_eq!(index.by_error[&ErrorCategory::HostnameMismatch], vec![1]);
        assert_eq!(index.by_error[&ErrorCategory::TimedOut], vec![2]);
    }

    /// A dataset big enough to span several `SHARD_SIZE` shards, with
    /// issuers and certificate/key fingerprints deliberately recurring
    /// across shard boundaries so the merge's interning, rebasing, and
    /// group concatenation all carry real weight.
    fn multi_shard_dataset() -> ScanDataset {
        let n = SHARD_SIZE * 3 + 777;
        let issuers = ["R3", "DigiCert", "Sectigo", "GovCA", "Self"];
        let mut records = Vec::with_capacity(n);
        for i in 0..n {
            let cc = ["bd", "fr", "za", "us", "kr"][i % 5];
            let https = match i % 7 {
                // Shared fingerprints recur every 97 records, straddling
                // shard boundaries (97 does not divide SHARD_SIZE).
                0 | 1 => HttpsStatus::Valid(meta(
                    issuers[(i / 97) % issuers.len()],
                    (i % 97) as u8,
                    (i % 89) as u8,
                )),
                2 => HttpsStatus::Invalid(
                    ErrorCategory::HostnameMismatch,
                    Some(meta(issuers[(i / 53) % issuers.len()], (i % 53) as u8, 7)),
                ),
                3 => HttpsStatus::Invalid(ErrorCategory::TimedOut, None),
                _ => HttpsStatus::None,
            };
            records.push(rec(
                &format!("h{i}.gov.{cc}"),
                (i % 11 != 0).then_some(cc),
                https,
                i % 13 != 0,
            ));
        }
        ScanDataset::new(records, Time::from_ymd(2020, 4, 22))
    }

    #[test]
    fn build_is_thread_count_invariant() {
        // The tentpole invariant for the parallel build: fixed-size
        // shards merged in order must reproduce the serial single-shard
        // build bit for bit, at any worker count.
        let ds = multi_shard_dataset();
        let serial = AggregateIndex::build_with_threads(&ds, 1);
        for threads in [2, 4, 8] {
            let parallel = AggregateIndex::build_with_threads(&ds, threads);
            assert_eq!(
                serial, parallel,
                "index must be identical at {threads} workers"
            );
        }
        // The parallel build still walks the dataset exactly once per
        // build (records() sliced, never re-fetched).
        assert_eq!(ds.walks(), 4);
        // Sanity: the dataset actually exercised the cross-shard paths.
        assert!(serial.hosts.len() > 3 * SHARD_SIZE);
        assert!(serial.issuers.len() >= 5);
        assert!(
            serial.by_cert.values().any(|m| m.len() > 1),
            "some fingerprint groups span records"
        );
    }

    #[test]
    fn issuers_are_interned_once() {
        let index = AggregateIndex::build(&dataset());
        assert_eq!(
            index.issuers,
            vec!["R3".to_string(), "Other CA".to_string()]
        );
        let a = *index.cert_bits(index.host(0)).expect("has cert");
        let b = *index.cert_bits(index.host(1)).expect("has cert");
        assert_eq!(a.issuer, b.issuer);
        assert_eq!(index.issuer(a.issuer), "R3");
        assert_eq!(index.by_issuer[a.issuer as usize], vec![0, 1]);
    }
}
