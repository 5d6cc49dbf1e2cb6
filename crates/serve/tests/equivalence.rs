//! The daemon's contract: every endpoint, served through the lazy
//! `Snapshot` facade, is byte-identical to JSON built from the dataset
//! the test wrote — and point queries stay lazy (a cold
//! `GET /hosts/{name}` never builds a `ScanDataset`).
//!
//! The expected ("eager") side re-derives each answer from that written
//! dataset, which no decoder touches, so a decode bug cannot hide on
//! both sides of a comparison; it shows up as a byte diff.

use std::path::PathBuf;
use std::sync::OnceLock;

use govscan_analysis::aggregate::AggregateIndex;
use govscan_analysis::{choropleth, table2};
use govscan_scanner::{ErrorCategory, ScanDataset, StudyPipeline};
use govscan_serve::api::{
    ChoroplethResponse, CountryResponse, DiffResponse, HostResponse, SnapshotEntry,
    SnapshotsResponse, Table2Response,
};
use govscan_serve::http::{Request, Response};
use govscan_serve::{json, ServeState};
use govscan_store::{diff_datasets, Snapshot};
use govscan_worldgen::{World, WorldConfig};

fn scan(seed: u64) -> ScanDataset {
    let world = World::generate(&WorldConfig::small(seed));
    StudyPipeline::new(&world).run().scan
}

/// The two datasets the archives hold: the expected side of every
/// comparison, never decoded from a file.
fn written() -> &'static (ScanDataset, ScanDataset) {
    static DATASETS: OnceLock<(ScanDataset, ScanDataset)> = OnceLock::new();
    DATASETS.get_or_init(|| (scan(0x5709), scan(0xBEEF)))
}

/// Two archives on disk, written once per test process.
fn archives() -> &'static (PathBuf, PathBuf) {
    static PATHS: OnceLock<(PathBuf, PathBuf)> = OnceLock::new();
    PATHS.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("govscan-serve-eq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let before = dir.join("before.snap");
        let after = dir.join("after.snap");
        Snapshot::write_file(&before, &written().0).expect("write before");
        Snapshot::write_file(&after, &written().1).expect("write after");
        (before, after)
    })
}

/// The shared daemon state under test, loaded over both archives.
fn state() -> &'static ServeState {
    static STATE: OnceLock<ServeState> = OnceLock::new();
    STATE.get_or_init(|| {
        let (before, after) = archives();
        ServeState::load(&[before, after]).expect("load archives")
    })
}

fn digest_hex(ds: &ScanDataset) -> String {
    Snapshot::digest_of(ds).expect("digest").to_hex()
}

fn get(path_and_query: &str) -> Response {
    let req = Request::parse_request_line(&format!("GET {path_and_query} HTTP/1.1"))
        .expect("well-formed request line");
    state().respond(&req)
}

fn ok(path_and_query: &str) -> String {
    let resp = get(path_and_query);
    assert_eq!(resp.status, 200, "GET {path_and_query}: {}", resp.body);
    json::parse(&resp.body).expect("valid JSON");
    resp.body
}

#[test]
fn table2_matches_eager() {
    let ds = &written().0;
    let expected = Table2Response {
        snapshot: digest_hex(ds),
        table: table2::build_from_index(&AggregateIndex::build(ds)),
    }
    .to_json()
    .encode();
    assert_eq!(ok("/table2"), expected);
}

#[test]
fn choropleth_matches_eager() {
    let ds = &written().0;
    let map = choropleth::build_from_index(&AggregateIndex::build(ds));
    let expected = ChoroplethResponse {
        snapshot: digest_hex(ds),
        rows: map.rows.iter().map(|(cc, row)| (*cc, *row)).collect(),
    }
    .to_json()
    .encode();
    assert_eq!(ok("/choropleth"), expected);
}

#[test]
fn every_country_matches_eager() {
    let ds = &written().0;
    let digest = digest_hex(ds);
    let map = choropleth::build_from_index(&AggregateIndex::build(ds));
    assert!(!map.rows.is_empty(), "fixture should span countries");
    for (cc, row) in &map.rows {
        // Re-derive the drill-down straight from the records, not via
        // AggregateIndex, so the handler's derivation is checked
        // independently.
        let in_country = |r: &&govscan_scanner::ScanRecord| r.country == Some(*cc);
        let hsts = ds
            .records()
            .iter()
            .filter(in_country)
            .filter(|r| r.hsts)
            .count() as u64;
        let mut errors = Vec::new();
        for cat in ErrorCategory::ALL {
            let n = ds
                .records()
                .iter()
                .filter(in_country)
                .filter(|r| r.https.error() == Some(cat))
                .count() as u64;
            if n > 0 {
                errors.push((cat, n));
            }
        }
        let mut hostnames: Vec<String> = ds
            .records()
            .iter()
            .filter(in_country)
            .map(|r| r.hostname.clone())
            .collect();
        hostnames.sort_unstable();
        let expected = CountryResponse {
            snapshot: digest.clone(),
            country: (*cc).to_owned(),
            row: *row,
            hsts,
            errors,
            hostnames,
        }
        .to_json()
        .encode();
        assert_eq!(ok(&format!("/countries/{cc}")), expected, "country {cc}");
    }
}

#[test]
fn host_queries_match_eager() {
    let ds = &written().0;
    let digest = digest_hex(ds);
    assert!(!ds.records().is_empty());
    for record in ds.records().iter().take(50) {
        let expected = HostResponse {
            snapshot: digest.clone(),
            record: record.clone(),
        }
        .to_json()
        .encode();
        assert_eq!(
            ok(&format!("/hosts/{}", record.hostname)),
            expected,
            "host {}",
            record.hostname
        );
    }
}

#[test]
fn diff_matches_eager() {
    let (before_path, after_path) = archives();
    let (before, after) = written();
    let expected = DiffResponse {
        from: digest_hex(before),
        to: digest_hex(after),
        diff: diff_datasets(before, after),
    }
    .to_json()
    .encode();
    let from = before_path.file_stem().unwrap().to_str().unwrap();
    let to = after_path.file_stem().unwrap().to_str().unwrap();
    assert_eq!(ok(&format!("/diff?from={from}&to={to}")), expected);
}

#[test]
fn snapshots_matches_eager() {
    let (before, after) = written();
    let entries = [(&archives().0, before), (&archives().1, after)]
        .iter()
        .map(|(path, ds)| {
            // Header fields come from a fresh reader over the same bytes,
            // not from the daemon's own `Snapshot`.
            let bytes = std::fs::read(path).expect("read");
            let size = bytes.len() as u64;
            let reader = Snapshot::from_bytes(bytes).expect("open");
            SnapshotEntry {
                label: path.file_stem().unwrap().to_str().unwrap().to_owned(),
                digest: digest_hex(ds),
                chain: path.file_stem().unwrap().to_str().unwrap().to_owned(),
                epoch: 0,
                bytes: size,
                scan_time: reader.scan_time().map(|t| t.0),
                hosts: reader.host_count(),
                certs: reader.cert_count(),
                caa: reader.caa_count(),
                strings: reader.string_count(),
                sections: reader
                    .sections()
                    .iter()
                    .map(|s| {
                        (
                            s.name.to_owned(),
                            s.offset,
                            s.len,
                            format!("{:016x}", s.checksum),
                        )
                    })
                    .collect(),
            }
        })
        .collect();
    let expected = SnapshotsResponse { snapshots: entries }.to_json().encode();
    assert_eq!(ok("/snapshots"), expected);
}

#[test]
fn cold_host_query_builds_no_dataset() {
    // A private state so the shared fixture's report queries can't
    // pollute the decode counter.
    let fresh = ServeState::load(&[&archives().0]).expect("load");
    let snap = fresh.archives()[0].snapshot();
    assert_eq!(
        snap.decoded_sections(),
        Vec::<&str>::new(),
        "open decodes nothing"
    );

    let name = &written().0.records()[0].hostname.clone();
    let req = Request::parse_request_line(&format!("GET /hosts/{name} HTTP/1.1")).unwrap();
    let resp = fresh.respond(&req);
    assert_eq!(resp.status, 200, "{}", resp.body);

    assert_eq!(
        snap.datasets_built(),
        0,
        "a point query must not materialise a full ScanDataset"
    );
    assert_eq!(
        snap.decoded_sections(),
        vec!["strings", "certs", "caa", "hosts", "by_host"],
    );

    // A report query is allowed to (and must) build exactly one.
    let req = Request::parse_request_line("GET /table2 HTTP/1.1").unwrap();
    assert_eq!(fresh.respond(&req).status, 200);
    assert_eq!(snap.datasets_built(), 1);
}

#[test]
fn snapshot_selectors_route_by_label_and_digest_prefix() {
    let after_digest = state().archives()[1].digest_hex().to_owned();
    let by_label = ok("/table2?snapshot=after");
    let by_prefix = ok(&format!("/table2?snapshot={}", &after_digest[..10]));
    assert_eq!(by_label, by_prefix);
    let parsed = json::parse(&by_label).unwrap();
    assert_eq!(
        parsed.get("snapshot").and_then(|j| j.as_str()),
        Some(after_digest.as_str())
    );
    // And the default (no selector) is the first archive, which differs.
    assert_ne!(ok("/table2"), by_label);
}

#[test]
fn errors_are_structured_json() {
    for (path, status) in [
        ("/nope", 404),
        ("/hosts/", 404),
        ("/hosts/no-such-host.gov", 404),
        ("/countries/zz", 404),
        ("/table2?snapshot=unknown", 404),
        ("/diff?from=before", 400),
        ("/diff?from=before&to=unknown", 404),
    ] {
        let resp = get(path);
        assert_eq!(resp.status, status, "GET {path}: {}", resp.body);
        let parsed = json::parse(&resp.body).expect("error bodies are JSON");
        assert!(parsed.get("error").is_some(), "GET {path}: {}", resp.body);
        assert!(parsed.get("detail").is_some(), "GET {path}: {}", resp.body);
    }
    let req = Request {
        method: "POST".to_owned(),
        path: "/table2".to_owned(),
        query: Vec::new(),
    };
    assert_eq!(state().respond(&req).status, 405);
}

#[test]
fn warm_reports_come_from_the_cache_byte_identically() {
    let fresh = ServeState::load(&[&archives().0]).expect("load");
    let req = Request::parse_request_line("GET /choropleth HTTP/1.1").unwrap();
    let cold = fresh.respond(&req);
    let (hits_before, misses) = fresh.cache_stats();
    assert_eq!((hits_before, misses), (0, 1));
    let warm = fresh.respond(&req);
    assert_eq!(
        fresh.cache_stats().0,
        1,
        "second render must be a cache hit"
    );
    assert_eq!(cold, warm);
}
