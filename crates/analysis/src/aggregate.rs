//! Single-pass aggregation over a [`ScanDataset`].
//!
//! Every §5 analysis is derived from the same 135,408-host scan, yet the
//! original builders each re-walked the full dataset. This module makes
//! one pass over the records and produces an [`AggregateIndex`]: owned
//! per-host summaries (availability/https/validity flags, error
//! category, certificate bits) plus pre-grouped indices (by country, by
//! error category, by certificate fingerprint, by key fingerprint, by
//! issuer). Each figure over scanned hosts has one builder, and it reads
//! the index: a caller builds one index per scan (or per comparison
//! group, [`AggregateIndex::from_records`]) and passes it to each.
//!
//! The one-pass invariant is load-bearing and instrumented:
//! [`AggregateIndex::build`] calls [`ScanDataset::records`] exactly
//! once, which the dataset's walk counter ([`ScanDataset::walks`])
//! asserts in tests here, in `tests/equivalence.rs` and in `repro`'s.

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

impl AggregateIndex {
    /// Build the index in a single pass: exactly one
    /// [`ScanDataset::records`] call, in record order.
    pub fn build(scan: &ScanDataset) -> AggregateIndex {
        Self::from_records(scan.records().iter())
    }

    /// [`Self::build`] over records that are not a whole dataset, such
    /// as a scanned comparison group.
    pub fn from_records<'a>(
        records: impl ExactSizeIterator<Item = &'a ScanRecord>,
    ) -> AggregateIndex {
        // Roughly a third of scanned hosts present a certificate; sizing
        // the fingerprint tables to that (rather than a safe half) keeps
        // their fresh-page footprint down, and a rare growth rehash on an
        // unusually certificate-dense dataset is cheap.
        let cert_estimate = records.len() / 3;
        let mut index = AggregateIndex {
            hosts: Vec::with_capacity(records.len()),
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
        for r in records {
            let pos = index.hosts.len() as u32;
            let attempts = r.https.attempts();
            let valid = r.https.is_valid();
            index.totals.records += 1;
            if let Some(cc) = r.country {
                by_country.entry(cc).or_default().push(pos);
            }
            if r.available {
                index.totals.available += 1;
                if !attempts {
                    index.totals.http_only += 1;
                } else {
                    index.totals.https += 1;
                    if valid {
                        index.totals.valid += 1;
                        if r.serves_both() {
                            index.totals.valid_serving_both += 1;
                        }
                    } else {
                        index.totals.invalid += 1;
                    }
                }
            }
            let error = r.https.error();
            if r.available && attempts && !valid {
                let cat = error.expect("invalid https has a category");
                by_error.entry(cat).or_default().push(pos);
            }
            let cert = r.https.meta().map(|meta| {
                let slot = index.certs.len() as u32;
                let id = match issuer_ids.get(meta.issuer.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = issuer_ids.len() as u32;
                        issuer_ids.insert(meta.issuer.clone(), id);
                        index.issuers.push(meta.issuer.clone());
                        index.by_issuer.push(Vec::new());
                        id
                    }
                };
                if r.available && attempts {
                    index.cert_hosts.push(pos);
                    index
                        .by_cert
                        .entry(meta.fingerprint)
                        .and_modify(|m| m.push(pos))
                        .or_insert(Members::One(pos));
                    index
                        .by_key
                        .entry(meta.key_fingerprint)
                        .and_modify(|m| m.push(pos))
                        .or_insert(Members::One(pos));
                    index.by_issuer[id as usize].push(pos);
                }
                index.certs.push(CertBits {
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
            index.hosts.push(HostSummary {
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
    use govscan_crypto::Digest;
    use govscan_scanner::classify::{CertMeta, HttpsStatus};

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

    /// A 13,065-record dataset whose issuers and certificate/key
    /// fingerprints recur across the whole record range, so issuer
    /// interning and every fingerprint group carry real weight.
    fn large_dataset() -> ScanDataset {
        let n = 13_065;
        let issuers = ["R3", "DigiCert", "Sectigo", "GovCA", "Self"];
        let mut records = Vec::with_capacity(n);
        for i in 0..n {
            let cc = ["bd", "fr", "za", "us", "kr"][i % 5];
            let https = match i % 7 {
                // Shared fingerprints recur every 97 records.
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

    /// Every field of the index as text: the `Vec` and `BTreeMap` fields
    /// in their own order, the two fingerprint maps sorted by key. The
    /// fixture's fingerprints are `[b; 32]`, so their abbreviated `Debug`
    /// form still tells them apart.
    fn canonical(index: &AggregateIndex) -> String {
        let sorted = |m: &FingerprintMap<Members>| {
            let mut groups: Vec<_> = m.iter().collect();
            groups.sort_unstable_by_key(|&(fp, _)| *fp);
            format!("{groups:?}")
        };
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{}\n{}\n{:?}",
            index.hosts,
            index.certs,
            index.issuers,
            index.totals,
            index.by_country,
            index.by_error,
            index.cert_hosts,
            sorted(&index.by_cert),
            sorted(&index.by_key),
            index.by_issuer,
        )
    }

    #[test]
    fn build_output_is_pinned() {
        let ds = large_dataset();
        let index = AggregateIndex::build(&ds);
        assert_eq!(ds.walks(), 1, "one records() call");
        assert_eq!(index.hosts.len(), 13_065);
        assert_eq!(index.issuers.len(), 5);
        assert!(
            index.by_cert.values().any(|m| m.len() > 1),
            "some fingerprint groups span records"
        );
        // Pinned across commits: the SHA-256 of the canonical rendering,
        // which the build produced at one and at several workers before
        // it became a single serial pass.
        let digest = govscan_crypto::Sha256::digest(canonical(&index).as_bytes());
        assert_eq!(
            govscan_crypto::hex::encode(&digest),
            "10ba61c5433e76b12f02f9989f2a1a5048d56d6d8dc2379fb16bc5eb03a8057f"
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
