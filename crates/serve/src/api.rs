//! Typed responses: one struct per endpoint, lowered through the one
//! JSON encoder.
//!
//! Handlers in [`crate::server`] never format strings inline — they
//! build these structs from store/analysis types and call `to_json()`.
//! That split (mirroring a searcher/api separation) is what makes the
//! byte-identity tests against the written dataset meaningful: both
//! sides feed the same struct, so any byte difference is a data
//! difference, not a formatting one.
//!
//! Unbounded host lists are capped at [`MAX_LISTED_HOSTS`] entries with
//! an explicit `truncated` flag — counts are always exact, only the
//! name listings are bounded.

use govscan_analysis::choropleth::CountryRow;
use govscan_analysis::table2::Table2;
use govscan_analysis::trend::{EpochPoint, TrendSeries};
use govscan_pki::caa::{CaaRecord, CaaTag};
use govscan_scanner::classify::CertMeta;
use govscan_scanner::dataset::HostingKind;
use govscan_scanner::{ErrorCategory, ScanRecord};
use govscan_store::{HostState, SnapshotDiff};

use crate::json::Json;

/// Cap on hostname listings inside responses (diff churn lists, country
/// drill-downs). Counts stay exact; only the listings are bounded.
pub const MAX_LISTED_HOSTS: usize = 100;

/// A capped, sorted hostname listing with an explicit truncation flag.
fn host_listing(names: &[String]) -> Json {
    Json::object([
        ("count", Json::from(names.len())),
        (
            "hosts",
            Json::array(
                names
                    .iter()
                    .take(MAX_LISTED_HOSTS)
                    .map(|h| Json::from(h.as_str())),
            ),
        ),
        ("truncated", Json::from(names.len() > MAX_LISTED_HOSTS)),
    ])
}

fn caa_tag_label(tag: CaaTag) -> &'static str {
    match tag {
        CaaTag::Issue => "issue",
        CaaTag::IssueWild => "issuewild",
        CaaTag::Iodef => "iodef",
    }
}

/// `GET /snapshots` — one entry per loaded archive.
pub struct SnapshotsResponse {
    /// Per-archive entries, in load order.
    pub snapshots: Vec<SnapshotEntry>,
}

/// One loaded archive: identity, element counts, section stats.
pub struct SnapshotEntry {
    /// The label requests select it by (file stem, de-duplicated).
    pub label: String,
    /// Content digest (SHA-256 of the archive bytes), hex.
    pub digest: String,
    /// Label of the chain this archive belongs to (its own label for a
    /// standalone archive).
    pub chain: String,
    /// Epoch position within the chain (0 = base archive).
    pub epoch: u32,
    /// Archive size in bytes.
    pub bytes: u64,
    /// Archived scan time (seconds), if recorded.
    pub scan_time: Option<i64>,
    /// Host record count.
    pub hosts: u64,
    /// Certificate pool entries.
    pub certs: u64,
    /// CAA pool entries.
    pub caa: u64,
    /// String table entries.
    pub strings: u64,
    /// Section table: `(name, offset, len, checksum hex)`.
    pub sections: Vec<(String, u64, u64, String)>,
}

impl SnapshotsResponse {
    /// Lower to JSON.
    pub fn to_json(&self) -> Json {
        Json::object([(
            "snapshots",
            Json::array(self.snapshots.iter().map(|s| {
                Json::object([
                    ("label", Json::from(s.label.as_str())),
                    ("digest", Json::from(s.digest.as_str())),
                    ("chain", Json::from(s.chain.as_str())),
                    ("epoch", Json::from(u64::from(s.epoch))),
                    ("bytes", Json::from(s.bytes)),
                    ("scan_time", Json::from(s.scan_time)),
                    ("hosts", Json::from(s.hosts)),
                    ("certs", Json::from(s.certs)),
                    ("caa", Json::from(s.caa)),
                    ("strings", Json::from(s.strings)),
                    (
                        "sections",
                        Json::array(s.sections.iter().map(|(name, offset, len, checksum)| {
                            Json::object([
                                ("name", Json::from(name.as_str())),
                                ("offset", Json::from(*offset)),
                                ("len", Json::from(*len)),
                                ("fnv1a64", Json::from(checksum.as_str())),
                            ])
                        })),
                    ),
                ])
            })),
        )])
    }
}

/// `GET /hosts/{name}` — one host's full scan facts.
pub struct HostResponse {
    /// Digest (hex) of the archive the record came from.
    pub snapshot: String,
    /// The record itself.
    pub record: ScanRecord,
}

impl HostResponse {
    /// Lower to JSON.
    pub fn to_json(&self) -> Json {
        let r = &self.record;
        let (hosting_kind, provider) = match r.hosting {
            HostingKind::Private => ("private", None),
            HostingKind::Cloud(p) => ("cloud", Some(p)),
            HostingKind::Cdn(p) => ("cdn", Some(p)),
        };
        Json::object([
            ("snapshot", Json::from(self.snapshot.as_str())),
            ("hostname", Json::from(r.hostname.as_str())),
            ("country", Json::from(r.country)),
            ("available", Json::from(r.available)),
            ("ip", Json::from(r.ip.map(|ip| ip.to_string()))),
            ("http_200", Json::from(r.http_200)),
            ("http_redirects_https", Json::from(r.http_redirects_https)),
            ("https_200", Json::from(r.https_200)),
            ("hsts", Json::from(r.hsts)),
            ("state", Json::from(HostState::of(r).label())),
            ("error", Json::from(r.https.error().map(|c| c.label()))),
            ("tls_version", Json::from(r.negotiated.map(|v| v.label()))),
            (
                "hosting",
                Json::object([
                    ("kind", Json::from(hosting_kind)),
                    ("provider", Json::from(provider)),
                ]),
            ),
            ("tranco_rank", Json::from(r.tranco_rank)),
            (
                "certificate",
                match r.https.meta() {
                    Some(meta) => cert_json(meta),
                    None => Json::Null,
                },
            ),
            ("caa", Json::array(r.caa.iter().map(caa_json))),
        ])
    }
}

/// Certificate chain facts as served under `certificate`.
fn cert_json(meta: &CertMeta) -> Json {
    Json::object([
        ("issuer", Json::from(meta.issuer.as_str())),
        ("serial", Json::from(meta.serial.as_str())),
        ("fingerprint", Json::from(meta.fingerprint.to_hex())),
        ("key_fingerprint", Json::from(meta.key_fingerprint.to_hex())),
        ("key_algorithm", Json::from(meta.key_algorithm.label())),
        (
            "signature_algorithm",
            Json::from(meta.signature_algorithm.label()),
        ),
        ("not_before", Json::from(meta.not_before.0)),
        ("not_after", Json::from(meta.not_after.0)),
        ("validity_days", Json::from(meta.validity_days())),
        ("wildcard", Json::from(meta.wildcard)),
        ("is_ev", Json::from(meta.is_ev)),
        ("self_issued", Json::from(meta.self_issued)),
        ("chain_len", Json::from(meta.chain_len)),
    ])
}

fn caa_json(rec: &CaaRecord) -> Json {
    Json::object([
        ("critical", Json::from(rec.critical)),
        ("tag", Json::from(caa_tag_label(rec.tag))),
        ("value", Json::from(rec.value.as_str())),
    ])
}

/// `GET /table2` — the paper's Table 2 slice.
pub struct Table2Response {
    /// Digest (hex) of the archive the table was built from.
    pub snapshot: String,
    /// The table itself.
    pub table: Table2,
}

impl Table2Response {
    /// Lower to JSON. Error categories are emitted in their stable
    /// `ErrorCategory::ALL` order, zero counts included, so the shape
    /// is constant across archives.
    pub fn to_json(&self) -> Json {
        let t = &self.table;
        Json::object([
            ("snapshot", Json::from(self.snapshot.as_str())),
            ("total", Json::from(t.total)),
            ("http_only", Json::from(t.http_only)),
            ("https", Json::from(t.https)),
            ("valid", Json::from(t.valid)),
            ("valid_serving_both", Json::from(t.valid_serving_both)),
            ("invalid", Json::from(t.invalid)),
            ("https_share", Json::from(t.https_share().fraction())),
            ("valid_share", Json::from(t.valid_share().fraction())),
            (
                "not_valid_share",
                Json::from(t.not_valid_share().fraction()),
            ),
            ("exceptions", Json::from(t.exceptions())),
            (
                "errors",
                Json::array(ErrorCategory::ALL.iter().map(|cat| {
                    Json::object([
                        ("label", Json::from(cat.label())),
                        ("exception", Json::from(cat.is_exception())),
                        ("count", Json::from(t.count(*cat))),
                    ])
                })),
            ),
        ])
    }
}

/// `GET /choropleth` — Figure 1's three per-country layers.
pub struct ChoroplethResponse {
    /// Digest (hex) of the archive.
    pub snapshot: String,
    /// Rows in country-code order.
    pub rows: Vec<(&'static str, CountryRow)>,
}

impl ChoroplethResponse {
    /// Lower to JSON.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("snapshot", Json::from(self.snapshot.as_str())),
            (
                "countries",
                Json::array(self.rows.iter().map(|(cc, row)| country_row_json(cc, row))),
            ),
        ])
    }
}

fn country_row_json(cc: &str, row: &CountryRow) -> Json {
    Json::object([
        ("country", Json::from(cc)),
        ("total", Json::from(row.total)),
        ("available", Json::from(row.available)),
        ("https", Json::from(row.https)),
        ("valid", Json::from(row.valid)),
        ("availability", Json::from(row.availability().fraction())),
        ("https_share", Json::from(row.https_share().fraction())),
        ("valid_share", Json::from(row.valid_share().fraction())),
    ])
}

/// `GET /countries/{cc}` — one country's drill-down.
pub struct CountryResponse {
    /// Digest (hex) of the archive.
    pub snapshot: String,
    /// ISO code.
    pub country: String,
    /// The Figure 1 row.
    pub row: CountryRow,
    /// HSTS adopters among the country's available hosts.
    pub hsts: u64,
    /// Invalid-certificate counts per Table 2 category, stable order.
    pub errors: Vec<(ErrorCategory, u64)>,
    /// The country's hostnames, sorted (listing capped at
    /// [`MAX_LISTED_HOSTS`]).
    pub hostnames: Vec<String>,
}

impl CountryResponse {
    /// Lower to JSON.
    pub fn to_json(&self) -> Json {
        let mut pairs = match country_row_json(&self.country, &self.row) {
            Json::Object(pairs) => pairs,
            _ => unreachable!("country_row_json returns an object"),
        };
        pairs.insert(
            0,
            ("snapshot".to_owned(), Json::from(self.snapshot.as_str())),
        );
        pairs.push(("hsts".to_owned(), Json::from(self.hsts)));
        pairs.push((
            "errors".to_owned(),
            Json::array(self.errors.iter().map(|(cat, n)| {
                Json::object([
                    ("label", Json::from(cat.label())),
                    ("count", Json::from(*n)),
                ])
            })),
        ));
        pairs.push(("listing".to_owned(), host_listing(&self.hostnames)));
        Json::Object(pairs)
    }
}

/// `GET /diff?from=&to=` — everything that moved between two archives.
pub struct DiffResponse {
    /// Digest (hex) of the `from` archive.
    pub from: String,
    /// Digest (hex) of the `to` archive.
    pub to: String,
    /// The store-layer diff.
    pub diff: SnapshotDiff,
}

impl DiffResponse {
    /// Lower to JSON. Migration matrix cells keep the store's
    /// `BTreeMap` order; zero cells are absent (the matrix is sparse).
    pub fn to_json(&self) -> Json {
        let d = &self.diff;
        Json::object([
            ("from", Json::from(self.from.as_str())),
            ("to", Json::from(self.to.as_str())),
            ("before_time", Json::from(d.before_time.map(|t| t.0))),
            ("after_time", Json::from(d.after_time.map(|t| t.0))),
            ("hosts_before", Json::from(d.hosts_before)),
            ("hosts_after", Json::from(d.hosts_after)),
            ("tracked", Json::from(d.tracked())),
            ("moved", Json::from(d.moved())),
            ("appeared", host_listing(&d.appeared)),
            ("disappeared", host_listing(&d.disappeared)),
            ("newly_valid", host_listing(&d.newly_valid)),
            ("newly_broken", host_listing(&d.newly_broken)),
            ("hsts_gained", Json::from(d.hsts_gained)),
            ("hsts_lost", Json::from(d.hsts_lost)),
            ("chain_changed", Json::from(d.chain_changed)),
            (
                "migration",
                Json::array(d.migration.iter().map(|((before, after), n)| {
                    Json::object([
                        ("before", Json::from(before.label())),
                        ("after", Json::from(after.label())),
                        ("count", Json::from(*n)),
                    ])
                })),
            ),
            (
                "countries",
                Json::array(d.per_country.iter().map(|(cc, delta)| {
                    Json::object([
                        ("country", Json::from(*cc)),
                        ("valid_before", Json::from(delta.valid_before)),
                        ("valid_after", Json::from(delta.valid_after)),
                        ("invalid_before", Json::from(delta.invalid_before)),
                        ("invalid_after", Json::from(delta.invalid_after)),
                        ("improved", Json::from(delta.improved)),
                        ("regressed", Json::from(delta.regressed)),
                        ("improvement_rate", Json::from(delta.improvement_rate())),
                    ])
                })),
            ),
        ])
    }
}

/// `GET /trends[?chain=]` — the longitudinal trend series over one
/// registered epoch chain.
pub struct TrendsResponse {
    /// Label of the chain the series covers.
    pub chain: String,
    /// Per-epoch identity: `(label, digest hex, epoch index)`.
    pub epochs: Vec<(String, String, u32)>,
    /// The analysis-layer series, one point per epoch.
    pub series: TrendSeries,
}

impl TrendsResponse {
    /// Lower to JSON. Error counts keep the analysis layer's stable
    /// Table 2 label keys; country keys are ISO codes in `BTreeMap`
    /// order, so the shape is deterministic across requests.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("chain", Json::from(self.chain.as_str())),
            (
                "epochs",
                Json::array(self.epochs.iter().map(|(label, digest, epoch)| {
                    Json::object([
                        ("label", Json::from(label.as_str())),
                        ("digest", Json::from(digest.as_str())),
                        ("epoch", Json::from(u64::from(*epoch))),
                    ])
                })),
            ),
            (
                "points",
                Json::array(self.series.points.iter().map(epoch_point_json)),
            ),
        ])
    }
}

fn epoch_point_json(p: &EpochPoint) -> Json {
    Json::object([
        ("label", Json::from(p.label.as_str())),
        ("scan_time", Json::from(p.scan_time.map(|t| t.0))),
        ("hosts", Json::from(p.hosts)),
        ("available", Json::from(p.available)),
        ("attempting", Json::from(p.attempting)),
        ("valid", Json::from(p.valid)),
        ("validity", Json::from(p.validity())),
        ("hsts", Json::from(p.hsts)),
        (
            "errors",
            Json::Object(
                p.errors
                    .iter()
                    .map(|(label, n)| ((*label).to_owned(), Json::from(*n)))
                    .collect(),
            ),
        ),
        (
            "by_country",
            Json::Object(
                p.by_country
                    .iter()
                    .map(|(cc, c)| {
                        (
                            (*cc).to_owned(),
                            Json::object([
                                ("hosts", Json::from(c.hosts)),
                                ("available", Json::from(c.available)),
                                ("attempting", Json::from(c.attempting)),
                                ("valid", Json::from(c.valid)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Any non-200: `{"error": ..., "detail": ...}`.
pub struct ErrorResponse {
    /// Short machine-friendly error kind.
    pub error: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl ErrorResponse {
    /// Lower to JSON.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("error", Json::from(self.error)),
            ("detail", Json::from(self.detail.as_str())),
        ])
    }
}
