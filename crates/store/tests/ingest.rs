//! The incremental ingest path of the streamed pipeline:
//!
//! 1. **Shard equivalence** — appending a dataset shard by shard through
//!    [`SnapshotWriter::append_records`] produces byte-for-byte the same
//!    archive as the one-pass [`Snapshot::encode`], because interning is
//!    online and depends only on record order.
//! 2. **Failure typing** — an I/O failure mid-append surfaces as the
//!    typed [`StoreError::Io`], never a panic, and the partial bytes it
//!    leaves behind are rejected by the [`Snapshot`] reader as damage,
//!    never decoded into a silently short dataset.

use std::io::{Cursor, Seek, SeekFrom, Write};
use std::sync::OnceLock;

use govscan_scanner::{ScanDataset, StudyPipeline};
use govscan_store::{Snapshot, SnapshotWriter, StoreError};
use govscan_worldgen::{World, WorldConfig};

fn scan() -> &'static ScanDataset {
    static SCAN: OnceLock<ScanDataset> = OnceLock::new();
    SCAN.get_or_init(|| {
        let world = World::generate(&WorldConfig::small(0x1497));
        StudyPipeline::new(&world).run().scan
    })
}

#[test]
fn shard_by_shard_append_matches_one_pass_encoding() {
    let ds = scan();
    let one_pass = Snapshot::encode(ds).expect("encodable");
    // A spread of shard sizes, including degenerate single-record shards
    // and one shard larger than the dataset.
    for shard_size in [1, 7, 97, ds.len() + 1] {
        let mut w =
            SnapshotWriter::new(Cursor::new(Vec::new()), ds.scan_time).expect("writable buffer");
        for shard in ds.records().chunks(shard_size) {
            w.append_records(shard).expect("clean append");
        }
        assert_eq!(w.host_count(), ds.len() as u64);
        assert!(w.cert_count() > 0, "fixture world has certificates");
        assert!(
            w.pooled_bytes() < one_pass.len(),
            "buffered pools stay smaller than the archive itself"
        );
        let streamed = w.finish().expect("finishable").into_inner();
        assert_eq!(
            streamed, one_pass,
            "shard size {shard_size}: online interning must make shard order invisible"
        );
    }
}

/// A writer that reports "disk full" once `budget` bytes are down.
struct FailingWriter {
    inner: Cursor<Vec<u8>>,
    budget: u64,
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.inner.position() + buf.len() as u64 > self.budget {
            return Err(std::io::Error::other("disk full"));
        }
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Seek for FailingWriter {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

#[test]
fn mid_append_io_failure_is_a_typed_error() {
    let ds = scan();
    // Room for the header and a handful of records, then the disk fills.
    let out = FailingWriter {
        inner: Cursor::new(Vec::new()),
        budget: 24 + 10 * 35,
    };
    let mut w = SnapshotWriter::new(out, ds.scan_time).expect("header fits the budget");
    match w.append_records(ds.records()) {
        Err(StoreError::Io(e)) => assert_eq!(e.to_string(), "disk full"),
        other => panic!("expected StoreError::Io, got {:?}", other.map(drop)),
    }
    assert!(
        w.host_count() <= 10,
        "nothing past the failed write is counted as appended"
    );
    // A writer whose budget cannot even hold the header fails at new().
    let tiny = FailingWriter {
        inner: Cursor::new(Vec::new()),
        budget: 8,
    };
    match SnapshotWriter::new(tiny, ds.scan_time) {
        Err(StoreError::Io(_)) => {}
        other => panic!("expected StoreError::Io, got {:?}", other.map(drop)),
    }
}

#[test]
fn abandoned_mid_append_bytes_are_rejected_as_damage() {
    let ds = scan();
    let mut cur = Cursor::new(Vec::new());
    {
        let mut w = SnapshotWriter::new(&mut cur, ds.scan_time).expect("writable buffer");
        w.append_records(ds.records().iter().take(100))
            .expect("clean append");
        // Dropped without finish(): no pools, no table, placeholder
        // header — exactly what an aborted pipeline run leaves behind.
    }
    let partial = cur.into_inner();
    assert_eq!(partial.len(), 24 + 100 * 35, "header + 100 host records");
    let err = Snapshot::from_bytes(partial)
        .and_then(|s| s.dataset())
        .expect_err("partial archive must not decode");
    assert!(
        matches!(
            err,
            StoreError::Truncated { .. } | StoreError::Corrupt { .. }
        ),
        "unexpected error for mid-append bytes: {err:?}"
    );
}
