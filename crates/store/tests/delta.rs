//! `GOVDLT1` delta semantics: chain resolution must be *exact* (a
//! resolved chain is byte-for-byte the archive a full rescan would have
//! written, proven by canonical-digest equality) and every way a delta
//! file or chain can be damaged — truncation, bit rot, a wrong or
//! missing base, misordered links, cross-family files, a crafted count
//! behind a recomputed checksum — must surface as the matching typed
//! [`StoreError`], never a panic, never an aborted allocation and never
//! a silently wrong epoch.

mod common;

use std::sync::OnceLock;

use common::{put_u64, reseal, u64_at, Case};
use govscan_crypto::Fingerprint;
use govscan_scanner::{ScanDataset, ScanRecord, StudyPipeline};
use govscan_store::{Delta, Snapshot, StoreError, DELTA_VERSION};
use govscan_worldgen::{World, WorldConfig};

/// One small-but-real scan, shared across tests: epoch 0.
fn scan() -> &'static ScanDataset {
    static SCAN: OnceLock<ScanDataset> = OnceLock::new();
    SCAN.get_or_init(|| {
        let world = World::generate(&WorldConfig::small(0xDE17A));
        StudyPipeline::new(&world).run().scan
    })
}

fn base() -> &'static Snapshot {
    static SNAP: OnceLock<Snapshot> = OnceLock::new();
    SNAP.get_or_init(|| {
        Snapshot::from_bytes(Snapshot::encode(scan()).expect("encodable")).expect("valid")
    })
}

/// Deterministically mutate `prev` into the next epoch: toggle HSTS on
/// a stride of hosts (changed), drop a stride (removed), and splice in
/// a few brand-new hosts at interior positions (added) — preserving the
/// relative order of everything untouched, as a monitor epoch does.
fn evolve_once(prev: &ScanDataset, step: usize) -> ScanDataset {
    let mut records: Vec<ScanRecord> = prev.records().to_vec();
    let n = records.len();
    for (i, r) in records.iter_mut().enumerate() {
        if i % 11 == step % 11 {
            r.hsts = !r.hsts;
        }
    }
    let mut kept: Vec<ScanRecord> = records
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 53 != step % 53)
        .map(|(_, r)| r)
        .collect();
    for j in 0..3 {
        let at = (step * 29 + j * 97) % kept.len();
        kept.insert(
            at,
            ScanRecord::unavailable(format!("epoch{step}-{j}.example.gov")),
        );
    }
    assert!(n > 60, "fixture world too small to exercise all strides");
    ScanDataset::new(kept, prev.scan_time.expect("scan has a time").plus_days(7))
}

fn epoch(k: usize) -> ScanDataset {
    let mut ds = scan().clone();
    for step in 1..=k {
        ds = evolve_once(&ds, step);
    }
    ds
}

#[test]
fn delta_resolves_to_the_full_next_archive() {
    let e1 = epoch(1);
    let full = Snapshot::encode(&e1).expect("encodable");
    let bytes = Delta::encode(base(), &e1).expect("encodable delta");
    let delta = Delta::from_bytes(bytes.clone()).expect("valid delta");

    assert_eq!(delta.version(), DELTA_VERSION);
    assert_eq!(delta.base_digest(), base().digest());
    assert_eq!(delta.scan_time(), e1.scan_time);
    assert_eq!(delta.new_host_count(), e1.len() as u64);
    assert!(delta.removed_count() > 0, "stride removal must fire");
    assert!(
        delta.patch_count() > 3,
        "changed + added hosts must be patched"
    );
    assert!(
        delta.patch_count() < e1.len() as u64 / 2,
        "most records are unchanged and must ride implicitly ({} of {})",
        delta.patch_count(),
        e1.len()
    );
    assert!(
        (bytes.len() as u64) < full.len() as u64 / 2,
        "delta ({}) must be much smaller than the full archive ({})",
        bytes.len(),
        full.len()
    );

    let resolved = delta.apply(base()).expect("chain resolves");
    assert_eq!(
        resolved.digest(),
        Snapshot::digest_of(&e1).expect("digestable"),
        "resolved chain must be byte-for-byte the full rescan archive"
    );
    assert_eq!(resolved.size_bytes(), full.len() as u64);

    // The human-readable dump names the structure.
    let describe = delta.describe();
    assert!(describe.contains("govscan delta v1"), "{describe}");
    assert!(describe.contains("patch"), "{describe}");
}

#[test]
fn identical_epoch_encodes_an_empty_delta() {
    let same = base().dataset().expect("decodes");
    let bytes = Delta::encode(base(), &same).expect("encodable");
    let delta = Delta::from_bytes(bytes.clone()).expect("valid delta");
    assert_eq!(delta.patch_count(), 0);
    assert_eq!(delta.removed_count(), 0);
    assert_eq!(delta.new_host_count(), same.len() as u64);
    assert!(
        bytes.len() < 1024,
        "an all-unchanged epoch must cost ~nothing ({} bytes)",
        bytes.len()
    );
    let resolved = delta.apply(base()).expect("resolves");
    assert_eq!(resolved.digest(), base().digest());
}

#[test]
fn chains_resolve_in_order_and_reject_misordering() {
    let e1 = epoch(1);
    let e2 = epoch(2);
    let dir = std::env::temp_dir().join(format!("govscan-store-delta-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let b = dir.join("e0.snap");
    let d1 = dir.join("e1.dlt");
    let d2 = dir.join("e2.dlt");
    Snapshot::write_file(&b, scan()).unwrap();
    Delta::write_file(&d1, base(), &e1).unwrap();
    let snap1 = Snapshot::from_bytes(Snapshot::encode(&e1).unwrap()).unwrap();
    Delta::write_file(&d2, &snap1, &e2).unwrap();

    let resolved = Snapshot::open_chain(&b, [&d1, &d2]).expect("chain resolves");
    assert_eq!(resolved.digest(), Snapshot::digest_of(&e2).unwrap());

    // A reordered chain dangles at the first link: d2 names snap1's
    // digest, not the base's.
    match Snapshot::open_chain(&b, [&d2, &d1]) {
        Err(StoreError::Corrupt { context, detail }) => {
            assert_eq!(context, "delta base");
            assert!(
                detail.contains(&base().digest().to_hex()),
                "error must name the digest it was given: {detail}"
            );
        }
        Err(other) => panic!("expected Corrupt(delta base), got {other:?}"),
        Ok(_) => panic!("misordered chain must not resolve"),
    }
    // A skipped link is the same failure.
    assert!(matches!(
        Snapshot::open_chain(&b, [&d2]),
        Err(StoreError::Corrupt {
            context: "delta base",
            ..
        })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cross_family_and_foreign_files_are_rejected() {
    let snap_bytes = Snapshot::encode(scan()).unwrap();
    let delta_bytes = Delta::encode(base(), &epoch(1)).unwrap();
    // A full archive is not a delta, and vice versa.
    assert!(matches!(
        Delta::from_bytes(snap_bytes),
        Err(StoreError::BadMagic { .. })
    ));
    assert!(matches!(
        Snapshot::from_bytes(delta_bytes.clone()),
        Err(StoreError::BadMagic { .. })
    ));
    assert!(matches!(
        Delta::from_bytes(b"PNG\r\n\x1a\n not a delta".to_vec()),
        Err(StoreError::BadMagic { .. })
    ));
    assert!(matches!(
        Delta::from_bytes(Vec::new()),
        Err(StoreError::BadMagic { .. })
    ));
    // A future version is refused by number, not misparsed.
    let mut future = delta_bytes;
    future[8..12].copy_from_slice(&(DELTA_VERSION + 1).to_le_bytes());
    match Delta::from_bytes(future) {
        Err(StoreError::UnsupportedVersion(v)) => assert_eq!(v, DELTA_VERSION + 1),
        Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
        Ok(_) => panic!("future version must not parse"),
    }
}

#[test]
fn truncation_never_panics_and_never_resolves() {
    let e1 = epoch(1);
    let bytes = Delta::encode(base(), &e1).unwrap();
    let cuts: Vec<usize> = (0..bytes.len())
        .step_by((bytes.len() / 97).max(1))
        .chain([1, 7, 8, 15, 23, 24, bytes.len() - 1])
        .collect();
    for cut in cuts {
        let result = Delta::from_bytes(bytes[..cut].to_vec()).and_then(|d| d.apply(base()));
        let err = result
            .err()
            .unwrap_or_else(|| panic!("truncation at {cut} bytes must not resolve a chain"));
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
    let e1 = epoch(1);
    let bytes = Delta::encode(base(), &e1).unwrap();
    let sections: Vec<(usize, &'static str)> = Delta::from_bytes(bytes.clone())
        .unwrap()
        .sections()
        .iter()
        .filter(|s| s.len > 0)
        .map(|s| ((s.offset + s.len / 2) as usize, s.name))
        .collect();
    assert_eq!(sections.len(), 4, "all four delta sections must be live");
    for (offset, section) in sections {
        let mut damaged = bytes.clone();
        damaged[offset] ^= 0x01;
        // Meta damage is caught at open; payload damage when `apply`
        // first touches the section — attributed to that section either
        // way. (A flip inside the embedded patch archive is caught by
        // the delta's own section checksum before the inner archive is
        // even parsed.)
        match Delta::from_bytes(damaged).and_then(|d| d.apply(base())) {
            Err(StoreError::ChecksumMismatch { section: got }) => {
                assert_eq!(got, section, "damage attributed to its section")
            }
            Err(other) => {
                panic!("flip in {section} at {offset}: expected ChecksumMismatch, got {other:?}")
            }
            Ok(_) => panic!("flip in {section} at {offset} must not resolve"),
        }
    }
}

#[test]
fn applying_to_the_wrong_base_is_a_dangling_chain() {
    // A delta against epoch 1 handed the epoch-0 base must refuse
    // before decoding anything host-level.
    let e1 = epoch(1);
    let snap1 = Snapshot::from_bytes(Snapshot::encode(&e1).unwrap()).unwrap();
    let d2 = Delta::from_bytes(Delta::encode(&snap1, &epoch(2)).unwrap()).unwrap();
    match d2.apply(base()) {
        Err(StoreError::Corrupt { context, detail }) => {
            assert_eq!(context, "delta base");
            assert!(detail.contains(&snap1.digest().to_hex()), "{detail}");
        }
        Err(other) => panic!("expected Corrupt(delta base), got {other:?}"),
        Ok(_) => panic!("wrong base must not resolve"),
    }
}

#[test]
fn reordered_unchanged_records_are_unrepresentable() {
    // The positional merge carries unchanged records forward in base
    // order; a dataset that reorders them cannot be expressed as a v1
    // delta and must be refused at encode time, not corrupted at apply.
    let mut records: Vec<ScanRecord> = scan().records().to_vec();
    assert!(records.len() > 2);
    records.swap(0, 1);
    let reordered = ScanDataset::new(records, scan().scan_time.unwrap());
    match Delta::encode(base(), &reordered) {
        Err(StoreError::Unrepresentable { field }) => {
            assert_eq!(field, "unchanged-record order")
        }
        other => panic!("expected Unrepresentable, got {other:?}"),
    }
}

/// The meta section's id and count offsets in `GOVDLT1` v1: meta is the
/// base digest, a presence byte and scan time, then the new host,
/// patch and removed counts.
const META: u32 = 1;
const META_NEW_HOST_COUNT: usize = 41;
const META_PATCH_COUNT: usize = 49;
const META_REMOVED_COUNT: usize = 57;

#[test]
fn crafted_counts_are_typed_errors_not_aborts() {
    // Each case edits one count and recomputes only the checksum the
    // format stores; FNV is not authentication.
    let cases: [Case; 4] = [
        (
            "table count u32::MAX",
            |b| {
                let table = u64_at(b, 16) as usize;
                b[table..table + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            },
            r#"Truncated { context: "section table" }"#,
        ),
        (
            "meta patch_count 2^62",
            |b| reseal(b, META, |m| put_u64(m, META_PATCH_COUNT, 1 << 62)),
            r#"Corrupt { context: "positions""#,
        ),
        (
            "meta new_host_count 2^40",
            |b| reseal(b, META, |m| put_u64(m, META_NEW_HOST_COUNT, 1 << 40)),
            r#"Corrupt { context: "delta base""#,
        ),
        (
            "meta removed_count 2^40",
            |b| reseal(b, META, |m| put_u64(m, META_REMOVED_COUNT, 1 << 40)),
            r#"Truncated { context: "removed" }"#,
        ),
    ];
    // The identical-epoch delta: its positions section is empty, so a
    // patch count whose product with the width wraps to 0 would match.
    let bytes = Delta::encode(base(), &base().dataset().unwrap()).unwrap();
    for (name, craft, expected) in cases {
        let mut crafted = bytes.clone();
        craft(&mut crafted);
        let result = Delta::from_bytes(crafted).and_then(|d| d.apply(base()));
        let err = format!("{:?}", result.err().expect(name));
        assert!(err.starts_with(expected), "{name}: unexpected {err}");
    }
}

/// Resolve `deltas` against `base` one `Delta::apply` at a time: each
/// epoch's digest until the first error, and that error.
fn apply_by_apply(
    base: &Snapshot,
    deltas: &[std::path::PathBuf],
) -> (Vec<Fingerprint>, Option<String>) {
    let mut digests = Vec::new();
    let mut snap = None;
    for path in deltas {
        match Delta::open(path).and_then(|d| d.apply(snap.as_ref().unwrap_or(base))) {
            Ok(next) => {
                digests.push(next.digest());
                snap = Some(next);
            }
            Err(e) => return (digests, Some(format!("{e:?}"))),
        }
    }
    (digests, None)
}

/// [`Snapshot::resolve_chain`] over `deltas`: each epoch's digest until
/// the first error, and that error, which must end the walk.
fn walk(base: &Snapshot, deltas: &[std::path::PathBuf]) -> (Vec<Fingerprint>, Option<String>) {
    let mut digests = Vec::new();
    let mut links = Snapshot::resolve_chain(base, deltas);
    for link in links.by_ref() {
        match link {
            Ok(snap) => digests.push(snap.digest()),
            Err(e) => {
                assert!(links.next().is_none(), "the walk stops at its first error");
                return (digests, Some(format!("{e:?}")));
            }
        }
    }
    (digests, None)
}

#[test]
fn the_chain_walker_resolves_every_epoch_as_apply_does() {
    const LINKS: usize = 4;
    let dir = std::env::temp_dir().join(format!("govscan-store-walk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut epochs = vec![scan().clone()];
    for step in 1..=LINKS {
        epochs.push(evolve_once(&epochs[step - 1], step));
    }
    let base_path = dir.join("e0.snap");
    Snapshot::write_file(&base_path, &epochs[0]).unwrap();
    let mut deltas = Vec::new();
    for k in 1..=LINKS {
        // The delta from the dataset in hand is the delta from the
        // decoded archive, byte for byte.
        let prev = Snapshot::from_bytes(Snapshot::encode(&epochs[k - 1]).unwrap()).unwrap();
        let in_hand = Delta::encode_from(prev.digest(), &epochs[k - 1], &epochs[k]).unwrap();
        assert_eq!(
            in_hand,
            Delta::encode(&prev, &epochs[k]).unwrap(),
            "epoch {k}"
        );
        let path = dir.join(format!("e{k}.dlt"));
        std::fs::write(&path, in_hand).unwrap();
        deltas.push(path);
    }

    let base = Snapshot::open(&base_path).unwrap();
    let (applied, none) = apply_by_apply(&base, &deltas);
    assert_eq!(none, None);
    let want: Vec<Fingerprint> = epochs[1..]
        .iter()
        .map(|e| Snapshot::digest_of(e).unwrap())
        .collect();
    assert_eq!(applied, want);
    let base = Snapshot::open(&base_path).unwrap();
    assert_eq!(walk(&base, &deltas), (want, None));
    assert_eq!(
        base.datasets_built(),
        1,
        "the walk decodes the base once and no epoch after it"
    );

    // A truncated middle delta, and a dangling one (epoch 3's delta in
    // epoch 2's place): the walk yields the epochs before it, then the
    // error apply-by-apply stops with.
    let truncated = dir.join("e2-truncated.dlt");
    let bytes = std::fs::read(&deltas[1]).unwrap();
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    for broken in [
        vec![deltas[0].clone(), truncated, deltas[2].clone()],
        vec![deltas[0].clone(), deltas[2].clone(), deltas[3].clone()],
    ] {
        let (digests, err) = walk(&base, &broken);
        assert_eq!(digests.len(), 1, "{err:?}");
        assert!(err.is_some());
        assert_eq!((digests, err), apply_by_apply(&base, &broken));
    }
    // A dangling base: the first link names epoch 1, not epoch 0.
    let (digests, err) = walk(&base, &deltas[1..]);
    assert!(digests.is_empty());
    assert!(
        err.as_deref()
            .is_some_and(|e| e.starts_with(r#"Corrupt { context: "delta base""#)),
        "{err:?}"
    );
    assert_eq!((digests, err), apply_by_apply(&base, &deltas[1..]));
    std::fs::remove_dir_all(&dir).ok();
}
