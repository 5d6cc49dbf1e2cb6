//! The two invariants the archive lives or dies by:
//!
//! 1. **Round-trip fidelity** — writing a real scan and reading it back
//!    yields a semantically identical dataset: equal canonical digests,
//!    byte-identical analysis renders, byte-identical re-encoding.
//! 2. **Corruption robustness** — every way a file can be damaged
//!    (truncation, foreign bytes, future version, bit rot, a crafted
//!    count behind a recomputed checksum) surfaces as the matching typed
//!    [`StoreError`] from the [`Snapshot`] reader, which verifies each
//!    section's checksum on first touch — never a panic, never an
//!    aborted allocation, and never a silently partial dataset.

mod common;

use std::collections::HashSet;
use std::sync::OnceLock;

use common::{entry, put_u64, reseal, Case};
use govscan_analysis::aggregate::AggregateIndex;
use govscan_analysis::{choropleth, durations, ev, hsts, issuers, keys, table2};
use govscan_scanner::dataset::HostingKind;
use govscan_scanner::{ScanDataset, StudyPipeline};
use govscan_store::{Snapshot, StoreError, MAGIC, VERSION};
use govscan_worldgen::{World, WorldConfig};

/// One small-but-real scan, shared across tests.
fn scan() -> &'static ScanDataset {
    static SCAN: OnceLock<ScanDataset> = OnceLock::new();
    SCAN.get_or_init(|| {
        let world = World::generate(&WorldConfig::small(0x5709));
        StudyPipeline::new(&world).run().scan
    })
}

fn snapshot() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| Snapshot::encode(scan()).expect("encodable"))
}

/// Full decode through the reader. Corruption surfaces either at open
/// (structure) or on the section's first touch (checksums, refs).
fn read_lazy(bytes: &[u8]) -> Result<ScanDataset, StoreError> {
    Snapshot::from_bytes(bytes.to_vec())?.dataset()
}

/// Render the full paper-figure set from a dataset via the single-pass
/// aggregation layer.
fn renders(ds: &ScanDataset) -> Vec<String> {
    let index = AggregateIndex::build(ds);
    vec![
        table2::build_from_index(&index).render(),
        choropleth::build_from_index(&index).render(),
        issuers::build_from_index(&index, 40).render(),
        keys::build_from_index(&index).render(),
        durations::build_from_index(&index).render(),
        hsts::build_from_index(&index).render(),
        ev::build_from_index(&index).render(),
    ]
}

#[test]
fn round_trip_is_semantically_lossless() {
    let original = scan();
    let restored = read_lazy(snapshot()).expect("valid snapshot reads back");

    assert_eq!(original.len(), restored.len());
    assert_eq!(original.scan_time, restored.scan_time);
    assert_eq!(
        Snapshot::digest_of(original).unwrap(),
        Snapshot::digest_of(&restored).unwrap(),
        "canonical digests must agree"
    );
    // Field-level spot check on every record (digest equality already
    // implies this; the explicit loop localises any future failure).
    for (a, b) in original.records().iter().zip(restored.records()) {
        assert_eq!(a, b, "record {} must survive the round trip", a.hostname);
    }
    assert_eq!(
        renders(original),
        renders(&restored),
        "analysis renders must be byte-identical"
    );
}

#[test]
fn lazy_point_queries_match_dataset_without_building_one() {
    let snap = Snapshot::from_bytes(snapshot().clone()).expect("valid snapshot");
    assert_eq!(
        snap.decoded_sections(),
        Vec::<&str>::new(),
        "open must decode nothing"
    );
    let expected = scan();
    // Every record is reachable by index and by name, identical to the
    // materialized dataset's view.
    for (i, want) in expected.records().iter().enumerate() {
        let by_index = snap.host(i as u64).expect("decodes").expect("in range");
        assert_eq!(&by_index, want, "host({i})");
        let by_name = snap
            .host_by_name(&want.hostname)
            .expect("decodes")
            .expect("known name");
        assert_eq!(
            &by_name,
            expected.get(&want.hostname).expect("dataset lookup"),
            "host_by_name({}) must match ScanDataset::get",
            want.hostname
        );
    }
    assert!(snap.host(expected.len() as u64).unwrap().is_none());
    assert!(snap
        .host_by_name("no-such-host.gov.invalid")
        .unwrap()
        .is_none());
    assert_eq!(
        snap.datasets_built(),
        0,
        "point queries must never materialize a full dataset"
    );
    assert_eq!(
        snap.decoded_sections(),
        vec!["strings", "certs", "caa", "hosts", "by_host"]
    );
    // Header-level accessors agree with the dataset the fixture wrote:
    // one pool entry per distinct certificate (leaf fingerprint and
    // chain length), CAA record and string.
    let records = expected.records();
    let metas = || records.iter().filter_map(|r| r.https.meta());
    let certs: HashSet<_> = metas().map(|m| (m.fingerprint, m.chain_len)).collect();
    let caa = records.iter().flat_map(|r| &r.caa);
    let mut strings: HashSet<&str> = caa.clone().map(|c| c.value.as_str()).collect();
    strings.extend(metas().flat_map(|m| [m.issuer.as_str(), m.serial.as_str()]));
    for r in records {
        strings.extend([r.hostname.as_str()].into_iter().chain(r.country));
        if let HostingKind::Cloud(p) | HostingKind::Cdn(p) = r.hosting {
            strings.insert(p);
        }
    }
    assert_eq!(
        (snap.version(), snap.scan_time(), snap.host_count()),
        (VERSION, expected.scan_time, records.len() as u64)
    );
    assert_eq!(
        (snap.cert_count(), snap.caa_count(), snap.string_count()),
        (certs.len() as u64, caa.count() as u64, strings.len() as u64)
    );
}

#[test]
fn archive_digest_equals_dataset_digest() {
    // Canonical encoding makes hashing the file equivalent to hashing
    // the canonical re-encoding of its dataset.
    let snap = Snapshot::from_bytes(snapshot().clone()).expect("valid snapshot");
    assert_eq!(snap.digest(), Snapshot::digest_of(scan()).unwrap());
    assert_eq!(snap.size_bytes(), snapshot().len() as u64);
}

#[test]
fn reencoding_is_byte_identical() {
    let restored = read_lazy(snapshot()).expect("valid snapshot");
    let again = Snapshot::encode(&restored).expect("encodable");
    assert_eq!(
        snapshot(),
        &again,
        "snapshot encoding must be canonical (read → write reproduces the file)"
    );
}

#[test]
fn snapshot_deduplicates_certificates() {
    let reader = Snapshot::from_bytes(snapshot().clone()).expect("valid snapshot");
    let with_cert = scan()
        .records()
        .iter()
        .filter(|r| r.https.meta().is_some())
        .count() as u64;
    assert!(reader.host_count() > 0);
    assert!(with_cert > 0, "fixture world must have certificates");
    // Content addressing must collapse hosts sharing a leaf (PR 3 made
    // issuance share chains) instead of storing one entry per host.
    assert!(
        reader.cert_count() <= with_cert,
        "pool ({}) cannot exceed hosts with certs ({with_cert})",
        reader.cert_count()
    );
    let describe = reader.describe().expect("describe");
    let head = format!("govscan snapshot v{VERSION} · {} bytes", snapshot().len());
    assert!(describe.starts_with(&head), "{describe}");
    for part in ["counts: ", "section hosts", "fnv1a64=", "cert[0] "] {
        assert!(describe.contains(part), "{part:?} in {describe}");
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = snapshot().clone();
    bytes[0] ^= 0xFF;
    match read_lazy(&bytes) {
        Err(StoreError::BadMagic { found }) => assert_eq!(found.len(), MAGIC.len()),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // A file that is something else entirely.
    assert!(matches!(
        read_lazy(b"PNG\r\n\x1a\n not a snapshot"),
        Err(StoreError::BadMagic { .. })
    ));
    // The empty file.
    assert!(matches!(read_lazy(b""), Err(StoreError::BadMagic { .. })));
}

#[test]
fn unsupported_version_is_rejected() {
    let mut bytes = snapshot().clone();
    bytes[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
    match read_lazy(&bytes) {
        Err(StoreError::UnsupportedVersion(v)) => assert_eq!(v, VERSION + 1),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncation_never_panics_and_never_yields_data() {
    let bytes = snapshot();
    // Chop the file at a spread of lengths including every boundary of
    // interest (mid-magic, mid-header, mid-section, mid-table).
    let cuts: Vec<usize> = (0..bytes.len())
        .step_by((bytes.len() / 97).max(1))
        .chain([1, 7, 8, 15, 23, 24, bytes.len() - 1])
        .collect();
    for cut in cuts {
        let err = read_lazy(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("truncation at {cut} bytes must not yield a dataset"));
        assert!(
            matches!(
                err,
                StoreError::BadMagic { .. }
                    | StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt { .. }
            ),
            "unexpected error at cut {cut}: {err:?}"
        );
    }
}

#[test]
fn flipped_byte_is_a_checksum_mismatch() {
    let bytes = snapshot();
    let reader = Snapshot::from_bytes(bytes.clone()).expect("valid snapshot");
    // Flip one byte inside each section's payload.
    let targets: Vec<(usize, &'static str)> = reader
        .sections()
        .iter()
        .filter(|s| s.len > 0)
        .map(|s| ((s.offset + s.len / 2) as usize, s.name))
        .collect();
    for (offset, section) in targets {
        let mut damaged = bytes.clone();
        damaged[offset] ^= 0x01;
        // The damage is attributed to its section: the meta section's
        // at open, every other when the full decode first touches it.
        match read_lazy(&damaged) {
            Err(StoreError::ChecksumMismatch { section: got }) => {
                assert_eq!(got, section, "damage attributed to its section")
            }
            other => {
                panic!("flip in {section} at {offset}: expected ChecksumMismatch, got {other:?}")
            }
        }
    }
}

#[test]
fn corrupt_section_error_is_cached_not_retried() {
    // Damage the certs pool; the reader must fail on first touch and
    // keep handing back the same (cloned) error afterwards.
    let reader = Snapshot::from_bytes(snapshot().clone()).expect("valid snapshot");
    let certs = reader
        .sections()
        .iter()
        .find(|s| s.name == "certs")
        .copied()
        .expect("certs section");
    let mut damaged = snapshot().clone();
    damaged[(certs.offset + certs.len / 2) as usize] ^= 0x01;
    let snap = Snapshot::from_bytes(damaged).expect("structurally valid");
    for _ in 0..2 {
        match snap.dataset() {
            Err(StoreError::ChecksumMismatch { section }) => assert_eq!(section, "certs"),
            other => panic!("expected cached ChecksumMismatch, got {other:?}"),
        }
    }
    // Undamaged sections still serve.
    assert!(snap.host_index("no-such-host.gov.invalid").is_ok());
}

/// Section ids and meta offsets of `GOVSNAP1` v1: meta is a presence
/// byte and scan time, then the host, cert, CAA and string counts.
const META: u32 = 1;
const HOSTS: u32 = 5;
const META_HOST_COUNT: usize = 9;
const META_STRING_COUNT: usize = 33;
/// 35⁻¹ mod 2⁶⁴: times the 35-byte host record width, it wraps to 1.
const WRAPS_TO_ONE: u64 = 12_649_195_936_257_978_251;

#[test]
fn crafted_edits_are_typed_errors_not_panics() {
    // Each case edits the archive and recomputes only the checksums the
    // format stores; FNV is not authentication, so only the checks
    // behind the checksum can catch it — on the point-query path and on
    // the full decode alike.
    assert_eq!(WRAPS_TO_ONE.wrapping_mul(35), 1);
    let cases: [Case; 3] = [
        (
            // The hostname id is the first 4 bytes of a host record.
            "first host's hostname id dangles",
            |b| {
                reseal(b, HOSTS, |h| {
                    h[..4].copy_from_slice(&u32::MAX.to_le_bytes())
                })
            },
            r#"Corrupt { context: "hosts""#,
        ),
        (
            // Strings are variable-width, so no cross-check bounds this.
            "meta string count 2^40",
            |b| reseal(b, META, |m| put_u64(m, META_STRING_COUNT, 1 << 40)),
            r#"Truncated { context: "strings" }"#,
        ),
        (
            "1-byte hosts section holding 35^-1 mod 2^64 hosts",
            |b| {
                let e = entry(b, HOSTS);
                put_u64(b, e + 12, 1);
                reseal(b, HOSTS, |_| {});
                reseal(b, META, |m| put_u64(m, META_HOST_COUNT, WRAPS_TO_ONE));
            },
            r#"Corrupt { context: "hosts""#,
        ),
    ];
    for (name, craft, expected) in cases {
        let mut bytes = snapshot().clone();
        craft(&mut bytes);
        let by_index = Snapshot::from_bytes(bytes.clone()).and_then(|snap| snap.host(0));
        for err in [by_index.map(drop), read_lazy(&bytes).map(drop)] {
            let err = format!("{:?}", err.expect_err(name));
            assert!(err.starts_with(expected), "{name}: unexpected {err}");
        }
    }
}
