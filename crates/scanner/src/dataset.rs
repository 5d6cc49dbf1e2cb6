//! Scan result records and the queryable dataset.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

use govscan_net::tls::TlsVersion;
use govscan_pki::caa::CaaRecord;
use govscan_pki::Time;

use crate::classify::HttpsStatus;

/// Hosting attribution (§5.4) as measured from the first A record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostingKind {
    /// A public cloud provider.
    Cloud(&'static str),
    /// A CDN.
    Cdn(&'static str),
    /// Privately hosted or unknown.
    Private,
}

impl HostingKind {
    /// Coarse label for Figures 5/6.
    pub fn coarse(self) -> &'static str {
        match self {
            HostingKind::Cloud(_) => "cloud",
            HostingKind::Cdn(_) => "cdn",
            HostingKind::Private => "private",
        }
    }

    /// Provider name if attributed.
    pub fn provider(self) -> Option<&'static str> {
        match self {
            HostingKind::Cloud(p) | HostingKind::Cdn(p) => Some(p),
            HostingKind::Private => None,
        }
    }
}

/// Everything the probe measured for one hostname.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRecord {
    /// The hostname dialled.
    pub hostname: String,
    /// Did any endpoint return a 200 (§4.1's availability definition)?
    pub available: bool,
    /// First A record.
    pub ip: Option<Ipv4Addr>,
    /// Plain http returned a 200.
    pub http_200: bool,
    /// Plain http redirected to https.
    pub http_redirects_https: bool,
    /// The https endpoint returned a 200.
    pub https_200: bool,
    /// Strict-Transport-Security header observed.
    pub hsts: bool,
    /// The https verdict.
    pub https: HttpsStatus,
    /// Negotiated TLS version, when the handshake completed.
    pub negotiated: Option<TlsVersion>,
    /// CAA relevant record set.
    pub caa: Vec<CaaRecord>,
    /// Hosting attribution.
    pub hosting: HostingKind,
    /// Country inferred by the government filter (None for non-gov).
    pub country: Option<&'static str>,
    /// Rank in the Tranco-like list, joined after scanning.
    pub tranco_rank: Option<u32>,
}

impl ScanRecord {
    /// A record for a host that never resolved / answered.
    pub fn unavailable(hostname: String) -> ScanRecord {
        ScanRecord {
            hostname,
            available: false,
            ip: None,
            http_200: false,
            http_redirects_https: false,
            https_200: false,
            hsts: false,
            https: HttpsStatus::None,
            negotiated: None,
            caa: Vec::new(),
            hosting: HostingKind::Private,
            country: None,
            tranco_rank: None,
        }
    }

    /// Serves content on both http and https (the paper's 4,126 bucket).
    pub fn serves_both(&self) -> bool {
        self.http_200 && self.https_200 && self.https.is_valid()
    }
}

/// A queryable scan dataset.
#[derive(Debug, Default)]
pub struct ScanDataset {
    records: Vec<ScanRecord>,
    index: HashMap<String, usize>,
    /// The snapshot time of the scan.
    pub scan_time: Option<Time>,
    /// Full-dataset walks handed out so far (instrumentation for the
    /// single-pass aggregation invariant; see `govscan_analysis::aggregate`).
    walks: AtomicU64,
}

impl Clone for ScanDataset {
    fn clone(&self) -> ScanDataset {
        ScanDataset {
            records: self.records.clone(),
            index: self.index.clone(),
            scan_time: self.scan_time,
            walks: AtomicU64::new(self.walks.load(Ordering::Relaxed)),
        }
    }
}

impl ScanDataset {
    /// Build from records (later records replace earlier duplicates).
    pub fn new(records: Vec<ScanRecord>, scan_time: Time) -> ScanDataset {
        let mut ds = ScanDataset {
            records: Vec::with_capacity(records.len()),
            index: HashMap::new(),
            scan_time: Some(scan_time),
            walks: AtomicU64::new(0),
        };
        for r in records {
            ds.push(r);
        }
        ds
    }

    /// Append one record (replacing any duplicate hostname).
    pub fn push(&mut self, record: ScanRecord) {
        match self.index.get(&record.hostname) {
            Some(&i) => self.records[i] = record,
            None => {
                self.index
                    .insert(record.hostname.clone(), self.records.len());
                self.records.push(record);
            }
        }
    }

    /// All records.
    ///
    /// Counts as one full-dataset walk: each call bumps [`Self::walks`],
    /// which the aggregation layer's tests use to assert that the
    /// full-report path touches the dataset exactly once.
    pub fn records(&self) -> &[ScanRecord] {
        self.walks.fetch_add(1, Ordering::Relaxed);
        &self.records
    }

    /// How many full-dataset walks ([`Self::records`], the filtered
    /// iterators, [`Self::by_country`]) have been handed out.
    pub fn walks(&self) -> u64 {
        self.walks.load(Ordering::Relaxed)
    }

    /// Look up by hostname.
    pub fn get(&self, hostname: &str) -> Option<&ScanRecord> {
        self.index.get(hostname).map(|&i| &self.records[i])
    }

    /// Index of `hostname`'s record in [`Self::records`].
    pub fn position(&self, hostname: &str) -> Option<usize> {
        self.index.get(hostname).copied()
    }

    /// The records, in order, moved out of the dataset.
    pub fn into_records(self) -> Vec<ScanRecord> {
        self.records
    }

    /// Look up by hostname, mutably — for annotating records in place.
    ///
    /// The hostname itself must not be changed through the returned
    /// reference: the dataset's index is keyed by it.
    pub fn get_mut(&mut self, hostname: &str) -> Option<&mut ScanRecord> {
        self.index.get(hostname).map(|&i| &mut self.records[i])
    }

    /// Total records (available or not).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records with a 200 somewhere — the paper's analysis denominator.
    pub fn available(&self) -> impl Iterator<Item = &ScanRecord> {
        self.records().iter().filter(|r| r.available)
    }

    /// Available records attempting https.
    pub fn https_attempting(&self) -> impl Iterator<Item = &ScanRecord> {
        self.available().filter(|r| r.https.attempts())
    }

    /// Available records with valid https.
    pub fn valid(&self) -> impl Iterator<Item = &ScanRecord> {
        self.available().filter(|r| r.https.is_valid())
    }

    /// Available records with invalid https.
    pub fn invalid(&self) -> impl Iterator<Item = &ScanRecord> {
        self.available()
            .filter(|r| r.https.attempts() && !r.https.is_valid())
    }

    /// Group available records by inferred country.
    pub fn by_country(&self) -> BTreeMap<&'static str, Vec<&ScanRecord>> {
        let mut map: BTreeMap<&'static str, Vec<&ScanRecord>> = BTreeMap::new();
        for r in self.records() {
            if let Some(cc) = r.country {
                map.entry(cc).or_default().push(r);
            }
        }
        map
    }

    /// Merge another dataset into this one.
    ///
    /// Collision policy: **last write wins** — a hostname present in
    /// both datasets keeps `other`'s record, at the position the
    /// hostname first appeared in `self` (exactly [`Self::push`]'s
    /// duplicate rule, so a merge behaves like re-scanning those hosts).
    /// Returns how many records were replaced rather than appended.
    ///
    /// Merging is meant to fold a *newer* partial scan into an older
    /// base (the disclosure follow-up merges its two `scan_list` passes
    /// this way); merging backwards in time almost certainly means the
    /// arguments are swapped, so debug builds assert monotonicity.
    pub fn extend(&mut self, other: ScanDataset) -> usize {
        if let (Some(base), Some(incoming)) = (self.scan_time, other.scan_time) {
            debug_assert!(
                incoming.0 >= base.0,
                "merging an older scan (t={}) over a newer one (t={})",
                incoming.0,
                base.0
            );
        }
        let mut replaced = 0;
        for r in other.records {
            if self.index.contains_key(&r.hostname) {
                replaced += 1;
            }
            self.push(r);
        }
        replaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{CertMeta, ErrorCategory};
    use govscan_crypto::{Fingerprint, KeyAlgorithm, SignatureAlgorithm};

    fn meta() -> CertMeta {
        CertMeta {
            issuer: "R3".into(),
            key_algorithm: KeyAlgorithm::Rsa(2048),
            signature_algorithm: SignatureAlgorithm::Sha256WithRsa,
            not_before: Time::from_ymd(2020, 1, 1),
            not_after: Time::from_ymd(2020, 7, 1),
            serial: "01".into(),
            fingerprint: Fingerprint([0xf; 32]),
            key_fingerprint: Fingerprint([0xa; 32]),
            wildcard: false,
            is_ev: false,
            self_issued: false,
            chain_len: 2,
        }
    }

    fn rec(host: &str, https: HttpsStatus, available: bool) -> ScanRecord {
        let mut r = ScanRecord::unavailable(host.to_string());
        r.available = available;
        r.https = https;
        r
    }

    #[test]
    fn dataset_queries() {
        let t = Time::from_ymd(2020, 4, 22);
        let ds = ScanDataset::new(
            vec![
                rec("a.gov", HttpsStatus::Valid(meta()), true),
                rec(
                    "b.gov",
                    HttpsStatus::Invalid(ErrorCategory::Expired, Some(meta())),
                    true,
                ),
                rec("c.gov", HttpsStatus::None, true),
                rec("d.gov", HttpsStatus::None, false),
            ],
            t,
        );
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.available().count(), 3);
        assert_eq!(ds.https_attempting().count(), 2);
        assert_eq!(ds.valid().count(), 1);
        assert_eq!(ds.invalid().count(), 1);
        assert!(ds.get("a.gov").unwrap().https.is_valid());
        assert!(ds.get("zzz.gov").is_none());
    }

    #[test]
    fn duplicate_hostnames_replace() {
        let t = Time::from_ymd(2020, 4, 22);
        let mut ds = ScanDataset::new(vec![rec("a.gov", HttpsStatus::None, false)], t);
        ds.push(rec("a.gov", HttpsStatus::Valid(meta()), true));
        assert_eq!(ds.len(), 1);
        assert!(ds.get("a.gov").unwrap().available);
    }

    #[test]
    fn extend_is_last_write_wins() {
        let t0 = Time::from_ymd(2020, 4, 22);
        let t1 = Time::from_ymd(2020, 6, 21);
        let mut base = ScanDataset::new(
            vec![
                rec(
                    "a.gov",
                    HttpsStatus::Invalid(ErrorCategory::Expired, Some(meta())),
                    true,
                ),
                rec("b.gov", HttpsStatus::None, true),
            ],
            t0,
        );
        let newer = ScanDataset::new(
            vec![
                rec("a.gov", HttpsStatus::Valid(meta()), true),
                rec("c.gov", HttpsStatus::None, false),
            ],
            t1,
        );
        let replaced = base.extend(newer);
        assert_eq!(replaced, 1, "only a.gov collided");
        assert_eq!(base.len(), 3);
        assert!(
            base.get("a.gov").unwrap().https.is_valid(),
            "collision keeps the incoming (newer) record"
        );
        // Replacement preserves the original position: a merge never
        // reorders the base dataset.
        assert_eq!(base.records()[0].hostname, "a.gov");
        assert_eq!(base.records()[2].hostname, "c.gov");
        assert_eq!(base.scan_time, Some(t0), "base keeps its own scan time");
    }

    #[test]
    fn by_country_groups() {
        let t = Time::from_ymd(2020, 4, 22);
        let mut a = rec("a.gov.bd", HttpsStatus::None, true);
        a.country = Some("bd");
        let mut b = rec("b.gov.bd", HttpsStatus::None, true);
        b.country = Some("bd");
        let mut c = rec("c.gouv.fr", HttpsStatus::None, true);
        c.country = Some("fr");
        let ds = ScanDataset::new(vec![a, b, c], t);
        let by = ds.by_country();
        assert_eq!(by["bd"].len(), 2);
        assert_eq!(by["fr"].len(), 1);
    }

    #[test]
    fn walk_counter_counts_full_iterations() {
        let t = Time::from_ymd(2020, 4, 22);
        let ds = ScanDataset::new(vec![rec("a.gov", HttpsStatus::None, true)], t);
        assert_eq!(ds.walks(), 0, "construction does not walk");
        let _ = ds.records();
        assert_eq!(ds.walks(), 1);
        let _ = ds.available().count();
        let _ = ds.by_country();
        assert_eq!(ds.walks(), 3);
        let _ = ds.get("a.gov");
        assert_eq!(ds.walks(), 3, "indexed lookups are not walks");
    }

    #[test]
    fn serves_both_requires_valid_https() {
        let mut r = rec("x.gov", HttpsStatus::Valid(meta()), true);
        r.http_200 = true;
        r.https_200 = true;
        assert!(r.serves_both());
        r.https = HttpsStatus::Invalid(ErrorCategory::Expired, None);
        assert!(!r.serves_both());
    }
}
