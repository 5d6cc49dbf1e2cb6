//! The [`Snapshot`] facade: the one `GOVSNAP1` reader. It opens cheap
//! and decodes on first touch.
//!
//! A query daemon opens an archive once, then answers many point
//! queries, most of which need only a sliver of the file; a batch job
//! wants the whole [`ScanDataset`] once. `Snapshot` serves both:
//!
//! * [`Snapshot::open`] / [`Snapshot::from_bytes`] parse and validate
//!   only the header, section table, and the 41-byte meta section
//!   (whose counts are cross-validated against section sizes). No pool
//!   payload is checksummed or decoded.
//! * Each pool section (strings, certs, CAA) decodes on first touch
//!   behind a [`OnceLock`], with its FNV-1a checksum verified at that
//!   moment. A failed decode is cached too — every later caller gets a
//!   clone of the same [`StoreError`] instead of a retry.
//!   [`Snapshot::dataset`] touches all four, so it has verified every
//!   section's checksum before it returns a record.
//! * Host records resolve *by index* straight out of the fixed-width
//!   hosts section ([`Snapshot::host`]) without ever assembling a
//!   `ScanDataset`; a hostname → index map ([`Snapshot::host_by_name`])
//!   is built on demand by reading only the 4-byte hostname id of each
//!   35-byte record.
//! * The facade also owns the writer-side conveniences
//!   ([`Snapshot::encode`], [`Snapshot::write_file`],
//!   [`Snapshot::digest_of`]) that used to be free functions, so the
//!   whole archive API is one type.
//!
//! Laziness is observable: [`Snapshot::decoded_sections`] reports which
//! cells have initialized and [`Snapshot::datasets_built`] counts full
//! materializations — the serve-path tests assert a cold
//! `GET /hosts/{name}` builds no dataset at all.

use std::collections::HashMap;
use std::io::{BufWriter, Cursor, Seek};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use govscan_crypto::{Digest, Fingerprint, Sha256};
use govscan_pki::caa::CaaRecord;
use govscan_pki::Time;
use govscan_scanner::classify::CertMeta;
use govscan_scanner::{ScanDataset, ScanRecord};

use crate::container::decode_strings;
use crate::error::{Result, StoreError};
use crate::snapshot::{
    assemble_dataset, decode_caa, decode_certs, decode_host_record, Layout, Section, SectionId,
    SnapshotWriter, HOST_RECORD_LEN,
};
use crate::wire::Decoder;

/// A snapshot archive held in memory, decoded section by section on
/// first touch. See the [module docs](self) for the laziness contract.
///
/// The type is `Sync`: all lazy state lives behind [`OnceLock`]s and an
/// atomic counter, so one `Snapshot` can back concurrent readers (the
/// `govscan-serve` daemon shares one per archive across its worker
/// pool).
pub struct Snapshot {
    bytes: Vec<u8>,
    layout: Layout,
    strings: OnceLock<Result<Vec<String>>>,
    certs: OnceLock<Result<Vec<CertMeta>>>,
    caa: OnceLock<Result<Vec<CaaRecord>>>,
    /// Hosts-section checksum verification, run once before the first
    /// record decode (records themselves decode per call, not en bloc).
    hosts_verified: OnceLock<Result<()>>,
    by_host: OnceLock<Result<HashMap<String, u64>>>,
    digest: OnceLock<Fingerprint>,
    datasets_built: AtomicU64,
}

impl Snapshot {
    // --- Construction.

    /// Open `bytes` as a snapshot, validating only the header, section
    /// table, and meta counts (the meta section's checksum included).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot> {
        let layout = Layout::parse(&bytes)?;
        Ok(Snapshot {
            bytes,
            layout,
            strings: OnceLock::new(),
            certs: OnceLock::new(),
            caa: OnceLock::new(),
            hosts_verified: OnceLock::new(),
            by_host: OnceLock::new(),
            digest: OnceLock::new(),
            datasets_built: AtomicU64::new(0),
        })
    }

    /// Read and open a snapshot file.
    pub fn open(path: impl AsRef<Path>) -> Result<Snapshot> {
        Snapshot::from_bytes(std::fs::read(path)?)
    }

    // --- Writer-side conveniences (the facade half of the old free
    // --- functions; `SnapshotWriter` remains the streaming core).

    /// Encode a whole dataset into an in-memory snapshot.
    pub fn encode(dataset: &ScanDataset) -> Result<Vec<u8>> {
        let mut w = SnapshotWriter::new(Cursor::new(Vec::new()), dataset.scan_time)?;
        for record in dataset.records() {
            w.add(record)?;
        }
        Ok(w.finish()?.into_inner())
    }

    /// Write a dataset snapshot to `path`, returning the byte size.
    pub fn write_file(path: impl AsRef<Path>, dataset: &ScanDataset) -> Result<u64> {
        let file = std::fs::File::create(path)?;
        let mut w = SnapshotWriter::new(BufWriter::new(file), dataset.scan_time)?;
        for record in dataset.records() {
            w.add(record)?;
        }
        let mut out = w.finish()?;
        Ok(out.stream_position()?)
    }

    /// The canonical content digest of a dataset: SHA-256 over its v1
    /// snapshot encoding. Encoding is deterministic and decoding is
    /// byte-lossless, so this survives a round-trip through a file.
    pub fn digest_of(dataset: &ScanDataset) -> Result<Fingerprint> {
        Ok(Fingerprint::from_digest(&Sha256::digest(
            &Snapshot::encode(dataset)?,
        )))
    }

    // --- Cheap header-level accessors (no decoding).

    /// Format version of the file (always [`crate::VERSION`] for now).
    pub fn version(&self) -> u32 {
        self.layout.frame.version
    }

    /// The archived scan time.
    pub fn scan_time(&self) -> Option<Time> {
        self.layout.scan_time
    }

    /// The validated section table, in id order.
    pub fn sections(&self) -> &[Section] {
        &self.layout.frame.sections
    }

    /// Number of host records.
    pub fn host_count(&self) -> u64 {
        self.layout.host_count
    }

    /// Entries in the content-addressed certificate pool.
    pub fn cert_count(&self) -> u64 {
        self.layout.cert_count
    }

    /// Entries in the CAA pool.
    pub fn caa_count(&self) -> u64 {
        self.layout.caa_count
    }

    /// Entries in the string table.
    pub fn string_count(&self) -> u64 {
        self.layout.string_count
    }

    /// Total archive size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// This archive's content digest: SHA-256 over its bytes.
    ///
    /// Because encoding is canonical (same dataset → same bytes, proven
    /// by the re-encode byte-identity tests), this equals
    /// [`Snapshot::digest_of`] of the decoded dataset — without
    /// decoding anything. Computed once, then cached.
    pub fn digest(&self) -> Fingerprint {
        *self
            .digest
            .get_or_init(|| Fingerprint::from_digest(&Sha256::digest(&self.bytes)))
    }

    // --- Lazy section access.

    fn verified_payload(&self, id: SectionId) -> Result<&[u8]> {
        self.layout.frame.verified(&self.bytes, id)
    }

    /// The decoded string pool (first touch verifies + decodes).
    fn strings(&self) -> Result<&[String]> {
        self.strings
            .get_or_init(|| {
                decode_strings(
                    self.verified_payload(SectionId::Strings)?,
                    self.layout.string_count,
                    "strings",
                )
            })
            .as_deref()
            .map_err(StoreError::clone)
    }

    /// The decoded certificate pool.
    fn certs(&self) -> Result<&[CertMeta]> {
        self.certs
            .get_or_init(|| {
                decode_certs(
                    self.verified_payload(SectionId::Certs)?,
                    self.layout.cert_count,
                    self.strings()?,
                )
            })
            .as_deref()
            .map_err(StoreError::clone)
    }

    /// The decoded CAA pool.
    fn caa(&self) -> Result<&[CaaRecord]> {
        self.caa
            .get_or_init(|| {
                decode_caa(
                    self.verified_payload(SectionId::Caa)?,
                    self.layout.caa_count,
                    self.strings()?,
                )
            })
            .as_deref()
            .map_err(StoreError::clone)
    }

    /// The hosts-section payload, checksum verified exactly once.
    fn hosts_payload(&self) -> Result<&[u8]> {
        self.hosts_verified
            .get_or_init(|| self.verified_payload(SectionId::Hosts).map(drop))
            .clone()?;
        // Checksum verified above; plain bounds-checked access.
        self.layout.frame.payload(&self.bytes, SectionId::Hosts)
    }

    // --- Point queries.

    /// Decode the host record at `index` (archive order), resolving its
    /// pool references. Builds no [`ScanDataset`]. Returns `None` past
    /// the end.
    pub fn host(&self, index: u64) -> Result<Option<ScanRecord>> {
        if index >= self.layout.host_count {
            return Ok(None);
        }
        let payload = self.hosts_payload()?;
        let start = index as usize * HOST_RECORD_LEN;
        let mut d = Decoder::new(&payload[start..start + HOST_RECORD_LEN], "hosts");
        let record = decode_host_record(&mut d, self.strings()?, self.certs()?, self.caa()?)?;
        d.finish()?;
        Ok(Some(record))
    }

    /// The archive index of the record for `name`, if present. The
    /// name → index map is built on the first call by reading only the
    /// 4-byte hostname id of each fixed-width record.
    pub fn host_index(&self, name: &str) -> Result<Option<u64>> {
        let map = self
            .by_host
            .get_or_init(|| {
                let strings = self.strings()?;
                let payload = self.hosts_payload()?;
                let mut map = HashMap::with_capacity(self.layout.host_count as usize);
                let mut d = Decoder::new(payload, "hosts");
                for i in 0..self.layout.host_count {
                    let hostname_id = d.u32()?;
                    d.bytes(HOST_RECORD_LEN - 4)?;
                    let Some(hostname) = strings.get(hostname_id as usize) else {
                        return d.corrupt(format!("hostname string id {hostname_id} out of range"));
                    };
                    // Duplicate hostnames keep the first record, matching
                    // `ScanDataset::get`'s front-to-back scan.
                    map.entry(hostname.clone()).or_insert(i);
                }
                d.finish()?;
                Ok(map)
            })
            .as_ref()
            .map_err(StoreError::clone)?;
        Ok(map.get(name).copied())
    }

    /// Look up one host by name without materializing a dataset.
    pub fn host_by_name(&self, name: &str) -> Result<Option<ScanRecord>> {
        match self.host_index(name)? {
            Some(i) => self.host(i),
            None => Ok(None),
        }
    }

    // --- Whole-archive operations.

    /// Rebuild the archived [`ScanDataset`] (decodes everything).
    /// Counted by [`Snapshot::datasets_built`] so tests can prove the
    /// point-query paths never fall back to this.
    pub fn dataset(&self) -> Result<ScanDataset> {
        self.datasets_built.fetch_add(1, Ordering::Relaxed);
        let strings = self.strings()?;
        let certs = self.certs()?;
        let caa = self.caa()?;
        let mut d = Decoder::new(self.hosts_payload()?, "hosts");
        let mut records = Vec::with_capacity(self.layout.host_count as usize);
        for _ in 0..self.layout.host_count {
            records.push(decode_host_record(&mut d, strings, certs, caa)?);
        }
        d.finish()?;
        Ok(assemble_dataset(records, self.layout.scan_time))
    }

    /// A human-readable dump of the archive structure: header line,
    /// element counts, the section table with checksums, and the first
    /// certificates of the content-addressed pool. All hex goes through
    /// `govscan_crypto`'s one encoder.
    pub fn describe(&self) -> Result<String> {
        use std::fmt::Write as _;
        let certs = self.certs()?;
        let l = &self.layout;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "govscan snapshot v{} · {} bytes · scan_time {:?}",
            l.frame.version,
            self.bytes.len(),
            l.scan_time.map(|t| t.0),
        );
        let _ = writeln!(
            out,
            "counts: {} hosts · {} certs · {} caa · {} strings",
            l.host_count, l.cert_count, l.caa_count, l.string_count
        );
        for s in &l.frame.sections {
            let _ = writeln!(
                out,
                "  section {:<8} id={} offset={:<10} len={:<10} fnv1a64={}",
                s.name,
                s.id,
                s.offset,
                s.len,
                govscan_crypto::hex::encode(&s.checksum.to_be_bytes()),
            );
        }
        for (i, meta) in certs.iter().take(5).enumerate() {
            let _ = writeln!(
                out,
                "  cert[{i}] {} issuer={:?} serial={}",
                meta.fingerprint.to_hex(),
                meta.issuer,
                meta.serial,
            );
        }
        Ok(out)
    }

    // --- Laziness observability.

    /// Names of the sections whose lazy cells have initialized, in
    /// canonical order. `"hosts"` appears once the hosts payload has
    /// been checksum-verified (i.e. any record was touched);
    /// `"by_host"` once the name index exists.
    pub fn decoded_sections(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.strings.get().is_some() {
            out.push("strings");
        }
        if self.certs.get().is_some() {
            out.push("certs");
        }
        if self.caa.get().is_some() {
            out.push("caa");
        }
        if self.hosts_verified.get().is_some() {
            out.push("hosts");
        }
        if self.by_host.get().is_some() {
            out.push("by_host");
        }
        out
    }

    /// How many times [`Snapshot::dataset`] has materialized the full
    /// dataset.
    pub fn datasets_built(&self) -> u64 {
        self.datasets_built.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Format-level construction tests live in `tests/roundtrip.rs`,
    // which exercises the reader against real worlds; here we only pin
    // the pure-facade behaviours that need no dataset.

    #[test]
    fn open_rejects_garbage() {
        assert!(matches!(
            Snapshot::from_bytes(b"NOTASNAP0000".to_vec()),
            Err(StoreError::BadMagic { .. })
        ));
        assert!(Snapshot::from_bytes(Vec::new()).is_err());
    }

    #[test]
    fn empty_dataset_round_trips_lazily() {
        let bytes = Snapshot::encode(&ScanDataset::default()).unwrap();
        let snap = Snapshot::from_bytes(bytes).unwrap();
        assert_eq!(snap.host_count(), 0);
        assert_eq!(snap.decoded_sections(), Vec::<&str>::new());
        assert!(snap.host(0).unwrap().is_none());
        assert!(snap.host_by_name("nope.gov").unwrap().is_none());
        assert_eq!(snap.datasets_built(), 0);
        let ds = snap.dataset().unwrap();
        assert_eq!(ds.len(), 0);
        assert_eq!(snap.datasets_built(), 1);
    }

    #[test]
    fn digest_matches_digest_of() {
        let ds = ScanDataset::default();
        let bytes = Snapshot::encode(&ds).unwrap();
        let snap = Snapshot::from_bytes(bytes).unwrap();
        assert_eq!(snap.digest(), Snapshot::digest_of(&ds).unwrap());
    }
}
