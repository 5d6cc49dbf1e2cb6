//! The versioned binary snapshot format: the `GOVSNAP1` writer and the
//! section decoders behind [`crate::Snapshot`].
//!
//! A snapshot is the durable, columnar form of one [`ScanDataset`], in
//! the container it shares with `GOVDLT1` deltas (the crate-private
//! `container` module):
//!
//! ```text
//! header   (24 bytes)   magic "GOVSNAP1" · version u32 · reserved u32 ·
//!                       section-table offset u64 (backpatched at finish)
//! hosts    (streamed)   fixed-width 35-byte records referencing pools
//! caa      (pool)       5-byte CAA entries; hosts reference runs
//! certs    (pool)       95-byte entries, content-addressed by leaf
//!                       fingerprint (+ presented chain length)
//! strings  (pool)       deduplicated, length-prefixed UTF-8
//! meta                  scan time + element counts (cross-validated)
//! table                 per section: id · offset · length · FNV-1a64
//! ```
//!
//! The writer streams host records as they are added — memory stays
//! bounded by the pools (strings, deduplicated certificates, CAA runs),
//! never by the host count. [`crate::Snapshot`] is the one reader: it
//! parses the header, table and meta counts here at open, then verifies
//! each section's checksum before it decodes anything from it.
//! Round-tripping is semantically lossless: the rebuilt dataset renders
//! every analysis byte-identically (proven in `tests/roundtrip.rs`),
//! and re-encoding it reproduces the archive
//! byte for byte, which is what makes [`crate::Snapshot::digest`] a
//! meaningful identity.

use std::collections::HashMap;
use std::io::{Seek, SeekFrom, Write};
use std::net::Ipv4Addr;

use govscan_crypto::{Fingerprint, KeyAlgorithm, SignatureAlgorithm};
use govscan_net::tls::TlsVersion;
use govscan_pki::caa::{CaaRecord, CaaTag};
use govscan_pki::Time;
use govscan_scanner::classify::{CertMeta, HttpsStatus};
use govscan_scanner::dataset::HostingKind;
use govscan_scanner::{ErrorCategory, ScanDataset, ScanRecord};

pub use crate::container::Section;
use crate::container::{
    decode_time, encode_header, encode_table, encode_time, Frame, SectionKind, HEADER_LEN,
    TABLE_OFFSET_AT,
};
use crate::error::{Result, StoreError};
use crate::intern::{intern_static, StringTable, NO_STRING};
use crate::wire::{Checksum, Decoder, Encoder};

/// File magic: the first eight bytes of every govscan snapshot.
pub const MAGIC: [u8; 8] = *b"GOVSNAP1";

/// Current format version.
pub const VERSION: u32 = 1;

/// Fixed-width encodings (v1).
pub(crate) const HOST_RECORD_LEN: usize = 35;
const CERT_RECORD_LEN: usize = 95;
const CAA_RECORD_LEN: usize = 5;

/// Sentinel for "no certificate" in a host record.
const NO_CERT: u32 = u32::MAX;

/// Section identifiers, in the order they appear in the section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub(crate) enum SectionId {
    Meta = 1,
    Strings = 2,
    Certs = 3,
    Caa = 4,
    Hosts = 5,
}

impl SectionKind for SectionId {
    const NAMES: &'static [&'static str] = &["meta", "strings", "certs", "caa", "hosts"];

    fn id(self) -> u32 {
        self as u32
    }
}

// --- Enum codecs. Wire codes are positions in each type's stable `ALL`
// --- order, so adding variants appends codes instead of renumbering.

fn error_code(c: ErrorCategory) -> u8 {
    ErrorCategory::ALL
        .iter()
        .position(|&x| x == c)
        .expect("every category is in ALL") as u8
}

fn error_from(code: u8) -> Option<ErrorCategory> {
    ErrorCategory::ALL.get(code as usize).copied()
}

fn tls_code(v: TlsVersion) -> u8 {
    TlsVersion::ALL
        .iter()
        .position(|&x| x == v)
        .expect("every version is in ALL") as u8
}

fn tls_from(code: u8) -> Option<TlsVersion> {
    TlsVersion::ALL.get(code as usize).copied()
}

fn sig_code(s: SignatureAlgorithm) -> u8 {
    SignatureAlgorithm::ALL
        .iter()
        .position(|&x| x == s)
        .expect("every algorithm is in ALL") as u8
}

fn sig_from(code: u8) -> Option<SignatureAlgorithm> {
    SignatureAlgorithm::ALL.get(code as usize).copied()
}

// --- Host record flags.

const F_AVAILABLE: u16 = 1 << 0;
const F_HTTP_200: u16 = 1 << 1;
const F_HTTP_REDIRECTS: u16 = 1 << 2;
const F_HTTPS_200: u16 = 1 << 3;
const F_HSTS: u16 = 1 << 4;
const F_HAS_IP: u16 = 1 << 5;
const F_ATTEMPTS: u16 = 1 << 6;
const F_VALID: u16 = 1 << 7;

// --- Cert record flags.

const CF_WILDCARD: u8 = 1 << 0;
const CF_EV: u8 = 1 << 1;
const CF_SELF_ISSUED: u8 = 1 << 2;

/// Streams a [`ScanDataset`] into the snapshot format.
///
/// Host records are written to `out` as they are [`added`](Self::add);
/// only the pools (strings, deduplicated certificates, CAA entries) are
/// buffered until [`finish`](Self::finish).
pub struct SnapshotWriter<W: Write + Seek> {
    out: W,
    /// Stream position where this snapshot started (offsets are relative
    /// to it, so snapshots can be embedded mid-stream).
    base: u64,
    scan_time: Option<Time>,
    strings: StringTable,
    /// Content-addressed certificate pool: leaf fingerprint plus the
    /// presented chain length (the one [`CertMeta`] field not derived
    /// from the leaf bytes themselves) → pool index.
    cert_ids: HashMap<(Fingerprint, u16), u32>,
    certs: Encoder,
    cert_count: u32,
    #[cfg(debug_assertions)]
    cert_metas: Vec<CertMeta>,
    caa: Encoder,
    caa_count: u32,
    /// One host record's encoding, reused for every record.
    record: Encoder,
    hosts_checksum: Checksum,
    hosts_len: u64,
    host_count: u64,
}

impl<W: Write + Seek> SnapshotWriter<W> {
    /// Begin a snapshot at the writer's current position.
    pub fn new(mut out: W, scan_time: Option<Time>) -> Result<SnapshotWriter<W>> {
        let base = out.stream_position()?;
        // Placeholder header; the table offset is backpatched by finish().
        out.write_all(encode_header(&MAGIC, VERSION, 0).as_bytes())?;
        Ok(SnapshotWriter {
            out,
            base,
            scan_time,
            strings: StringTable::new(),
            cert_ids: HashMap::new(),
            certs: Encoder::new(),
            cert_count: 0,
            #[cfg(debug_assertions)]
            cert_metas: Vec::new(),
            caa: Encoder::new(),
            caa_count: 0,
            record: Encoder::new(),
            hosts_checksum: Checksum::default(),
            hosts_len: 0,
            host_count: 0,
        })
    }

    fn intern_cert(&mut self, meta: &CertMeta) -> Result<u32> {
        let chain_len = u16::try_from(meta.chain_len)
            .map_err(|_| StoreError::Unrepresentable { field: "chain_len" })?;
        if let Some(&id) = self.cert_ids.get(&(meta.fingerprint, chain_len)) {
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                &self.cert_metas[id as usize], meta,
                "content-addressing invariant: same (fingerprint, chain length) must mean identical metadata"
            );
            return Ok(id);
        }
        let id = self.cert_count;
        self.cert_ids.insert((meta.fingerprint, chain_len), id);
        self.cert_count += 1;
        #[cfg(debug_assertions)]
        self.cert_metas.push(meta.clone());
        let issuer = self.strings.intern(&meta.issuer)?;
        let serial = self.strings.intern(&meta.serial)?;
        let e = &mut self.certs;
        e.bytes(meta.fingerprint.as_bytes());
        e.bytes(meta.key_fingerprint.as_bytes());
        e.u32(issuer);
        e.u32(serial);
        match meta.key_algorithm {
            KeyAlgorithm::Rsa(bits) => {
                e.u8(0);
                e.u16(bits);
            }
            KeyAlgorithm::Ec(bits) => {
                e.u8(1);
                e.u16(bits);
            }
        }
        e.u8(sig_code(meta.signature_algorithm));
        e.i64(meta.not_before.0);
        e.i64(meta.not_after.0);
        let mut flags = 0u8;
        if meta.wildcard {
            flags |= CF_WILDCARD;
        }
        if meta.is_ev {
            flags |= CF_EV;
        }
        if meta.self_issued {
            flags |= CF_SELF_ISSUED;
        }
        e.u8(flags);
        e.u16(chain_len);
        debug_assert_eq!(e.len(), self.cert_count as usize * CERT_RECORD_LEN);
        Ok(id)
    }

    /// Append one record. Records keep their order; duplicate hostnames
    /// are stored as-is (the dataset they came from already resolved
    /// collisions — see [`ScanDataset::push`]).
    pub fn add(&mut self, record: &ScanRecord) -> Result<()> {
        // CAA run for this host, appended to the pool.
        let caa_offset = self.caa_count;
        let caa_len = u16::try_from(record.caa.len())
            .map_err(|_| StoreError::Unrepresentable { field: "caa run" })?;
        for rec in &record.caa {
            let value = self.strings.intern(&rec.value)?;
            let mut flags = match rec.tag {
                CaaTag::Issue => 0u8,
                CaaTag::IssueWild => 1,
                CaaTag::Iodef => 2,
            };
            if rec.critical {
                flags |= 0x80;
            }
            self.caa.u8(flags);
            self.caa.u32(value);
            self.caa_count += 1;
        }

        let (attempts, valid) = (record.https.attempts(), record.https.is_valid());
        let error = record.https.error();
        let cert = match record.https.meta() {
            Some(meta) => self.intern_cert(meta)?,
            None => NO_CERT,
        };
        if record.tranco_rank == Some(u32::MAX) {
            return Err(StoreError::Unrepresentable {
                field: "tranco_rank",
            });
        }

        // Interned in this order (hostname, provider, country) after the
        // CAA values and the certificate: ids are first-seen.
        let hostname = self.strings.intern(&record.hostname)?;
        let (hosting_tag, provider) = match record.hosting {
            HostingKind::Private => (0u8, NO_STRING),
            HostingKind::Cloud(p) => (1, self.strings.intern(p)?),
            HostingKind::Cdn(p) => (2, self.strings.intern(p)?),
        };
        let country = match record.country {
            Some(cc) => self.strings.intern(cc)?,
            None => NO_STRING,
        };

        let e = &mut self.record;
        e.clear();
        e.u32(hostname);
        let mut flags = 0u16;
        let mut set = |bit: u16, on: bool| {
            if on {
                flags |= bit;
            }
        };
        set(F_AVAILABLE, record.available);
        set(F_HTTP_200, record.http_200);
        set(F_HTTP_REDIRECTS, record.http_redirects_https);
        set(F_HTTPS_200, record.https_200);
        set(F_HSTS, record.hsts);
        set(F_HAS_IP, record.ip.is_some());
        set(F_ATTEMPTS, attempts);
        set(F_VALID, valid);
        e.u16(flags);
        e.u32(record.ip.map(u32::from).unwrap_or(0));
        e.u8(error.map(error_code).unwrap_or(u8::MAX));
        e.u8(record.negotiated.map(tls_code).unwrap_or(u8::MAX));
        e.u8(hosting_tag);
        e.u32(provider);
        e.u32(cert);
        e.u32(country);
        e.u32(record.tranco_rank.unwrap_or(u32::MAX));
        e.u32(caa_offset);
        e.u16(caa_len);
        debug_assert_eq!(e.len(), HOST_RECORD_LEN);

        self.out.write_all(e.as_bytes())?;
        // Bookkeeping only after the bytes are down, so a failed write
        // leaves the counters describing what actually reached the sink.
        self.hosts_checksum.update(e.as_bytes());
        self.hosts_len += e.len() as u64;
        self.host_count += 1;
        Ok(())
    }

    /// Append a batch of records in order — the incremental ingest path
    /// of the streamed generate→scan→archive pipeline, which appends
    /// each scanned shard while the next is still being produced.
    /// Interning is online (string and certificate ids are assigned in
    /// first-seen order across the whole stream), so appending shard by
    /// shard produces byte-for-byte the same archive as adding every
    /// record in one pass.
    ///
    /// On error the writer is left mid-stream and should be dropped: the
    /// partial archive has no section table, and [`crate::Snapshot`]
    /// rejects it as truncated.
    pub fn append_records<'r>(
        &mut self,
        records: impl IntoIterator<Item = &'r ScanRecord>,
    ) -> Result<()> {
        for record in records {
            self.add(record)?;
        }
        Ok(())
    }

    /// Host records appended so far.
    pub fn host_count(&self) -> u64 {
        self.host_count
    }

    /// Entries in the content-addressed certificate pool so far.
    pub fn cert_count(&self) -> u32 {
        self.cert_count
    }

    /// Buffered pool footprint in bytes (certificate + CAA encodings
    /// plus interned string text) — everything [`Self::finish`] still
    /// holds in memory. This is the writer's whole memory story: host
    /// records are already on disk.
    pub fn pooled_bytes(&self) -> usize {
        self.certs.len() + self.caa.len() + self.strings.text_bytes()
    }

    /// Write the pools, metadata, and section table; backpatch the
    /// header; return the underlying writer.
    ///
    /// Every pool is already its section payload (the string table keeps
    /// its text in the section's encoding). The payloads are
    /// FNV-1a-checksummed and written in one serial pass, in the
    /// canonical v1 order (CAA, certs, strings, meta), which is what
    /// keeps [`crate::Snapshot::digest`] a meaningful identity.
    pub fn finish(mut self) -> Result<W> {
        let hosts = Section {
            id: SectionId::Hosts as u32,
            name: SectionId::Hosts.name(),
            offset: HEADER_LEN,
            len: self.hosts_len,
            checksum: self.hosts_checksum.value(),
        };

        let mut meta = Encoder::new();
        encode_time(&mut meta, self.scan_time);
        meta.u64(self.host_count);
        meta.u64(self.cert_count as u64);
        meta.u64(self.caa_count as u64);
        meta.u64(self.strings.len() as u64);

        let payloads = [
            (SectionId::Caa, self.caa.as_bytes()),
            (SectionId::Certs, self.certs.as_bytes()),
            (SectionId::Strings, self.strings.payload()),
            (SectionId::Meta, meta.as_bytes()),
        ];

        // Pools follow the streamed host section, in canonical order.
        let mut cursor = HEADER_LEN + self.hosts_len;
        let mut table = vec![hosts];
        for (id, payload) in payloads {
            self.out.write_all(payload)?;
            table.push(Section {
                id: id as u32,
                name: id.name(),
                offset: cursor,
                len: payload.len() as u64,
                checksum: Checksum::of(payload),
            });
            cursor += payload.len() as u64;
        }

        let table_offset = cursor;
        let t = encode_table(&mut table);
        self.out.write_all(t.as_bytes())?;

        // Backpatch the table offset in the header.
        self.out
            .seek(SeekFrom::Start(self.base + TABLE_OFFSET_AT))?;
        self.out.write_all(&table_offset.to_le_bytes())?;
        self.out
            .seek(SeekFrom::Start(self.base + table_offset + t.len() as u64))?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// The parsed skeleton of a snapshot: its container frame and the
/// (tiny, always-verified) meta section's counts. Parsing it touches
/// none of the pool payloads.
pub(crate) struct Layout {
    /// Header version and section table.
    pub(crate) frame: Frame,
    /// The archived scan time.
    pub(crate) scan_time: Option<Time>,
    /// Number of host records.
    pub(crate) host_count: u64,
    pub(crate) cert_count: u64,
    pub(crate) caa_count: u64,
    pub(crate) string_count: u64,
}

impl Layout {
    /// Parse and structurally validate `bytes` as a snapshot.
    ///
    /// Checks, in order: the container frame (magic, version, table
    /// bounds), the meta section's checksum (41 bytes — the one payload
    /// cheap enough to always verify), and the meta counts against the
    /// fixed-width section payload sizes. Pool payloads are *not*
    /// checksummed here; [`crate::Snapshot`] verifies each on first
    /// touch. Any failure is a typed [`StoreError`] — never a panic.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Layout> {
        let frame = Frame::parse::<SectionId>(bytes, &MAGIC, VERSION)?;
        let mut meta = Decoder::new(frame.verified(bytes, SectionId::Meta)?, "meta");
        let layout = Layout {
            scan_time: decode_time(&mut meta)?,
            host_count: meta.u64()?,
            cert_count: meta.u64()?,
            caa_count: meta.u64()?,
            string_count: meta.u64()?,
            frame,
        };
        meta.finish()?;
        let frame = &layout.frame;
        frame.check_width(SectionId::Hosts, layout.host_count, HOST_RECORD_LEN)?;
        frame.check_width(SectionId::Certs, layout.cert_count, CERT_RECORD_LEN)?;
        frame.check_width(SectionId::Caa, layout.caa_count, CAA_RECORD_LEN)?;
        Ok(layout)
    }
}

// --- Section decoders behind `crate::Snapshot`. Each takes a
// --- (bounds-checked, checksum-verified) payload slice plus the element
// --- count cross-validated by `Layout::parse`; the string pool decodes
// --- through `container::decode_strings`.

pub(crate) fn decode_certs(
    payload: &[u8],
    count: u64,
    strings: &[String],
) -> Result<Vec<CertMeta>> {
    let mut d = Decoder::new(payload, "certs");
    let string = |d: &Decoder<'_>, id: u32| -> Result<String> {
        match strings.get(id as usize) {
            Some(s) => Ok(s.clone()),
            None => d.corrupt(format!("string id {id} out of range")),
        }
    };
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let fingerprint = Fingerprint::from_digest(d.bytes(32)?);
        let key_fingerprint = Fingerprint::from_digest(d.bytes(32)?);
        let issuer_id = d.u32()?;
        let issuer = string(&d, issuer_id)?;
        let serial_id = d.u32()?;
        let serial = string(&d, serial_id)?;
        let key_tag = d.u8()?;
        let key_bits = d.u16()?;
        let key_algorithm = match key_tag {
            0 => KeyAlgorithm::Rsa(key_bits),
            1 => KeyAlgorithm::Ec(key_bits),
            t => return d.corrupt(format!("unknown key algorithm tag {t}")),
        };
        let sig = d.u8()?;
        let Some(signature_algorithm) = sig_from(sig) else {
            return d.corrupt(format!("unknown signature algorithm code {sig}"));
        };
        let not_before = Time(d.i64()?);
        let not_after = Time(d.i64()?);
        let flags = d.u8()?;
        let chain_len = d.u16()? as usize;
        out.push(CertMeta {
            issuer,
            key_algorithm,
            signature_algorithm,
            not_before,
            not_after,
            serial,
            fingerprint,
            key_fingerprint,
            wildcard: flags & CF_WILDCARD != 0,
            is_ev: flags & CF_EV != 0,
            self_issued: flags & CF_SELF_ISSUED != 0,
            chain_len,
        });
    }
    d.finish()?;
    Ok(out)
}

pub(crate) fn decode_caa(payload: &[u8], count: u64, strings: &[String]) -> Result<Vec<CaaRecord>> {
    let mut d = Decoder::new(payload, "caa");
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let flags = d.u8()?;
        let value_id = d.u32()?;
        let tag = match flags & 0x7f {
            0 => CaaTag::Issue,
            1 => CaaTag::IssueWild,
            2 => CaaTag::Iodef,
            t => return d.corrupt(format!("unknown CAA tag {t}")),
        };
        let Some(value) = strings.get(value_id as usize) else {
            return d.corrupt(format!("CAA value string id {value_id} out of range"));
        };
        out.push(CaaRecord {
            critical: flags & 0x80 != 0,
            tag,
            value: value.clone(),
        });
    }
    d.finish()?;
    Ok(out)
}

/// Decode one fixed-width host record from `d`, resolving pool
/// references: the hot loop of [`crate::Snapshot::dataset`] and the
/// whole of its by-index host access.
pub(crate) fn decode_host_record(
    d: &mut Decoder<'_>,
    strings: &[String],
    certs: &[CertMeta],
    caa: &[CaaRecord],
) -> Result<ScanRecord> {
    let hostname_id = d.u32()?;
    let Some(hostname) = strings.get(hostname_id as usize) else {
        return d.corrupt(format!("hostname string id {hostname_id} out of range"));
    };
    let flags = d.u16()?;
    let ip_raw = d.u32()?;
    let error_raw = d.u8()?;
    let negotiated_raw = d.u8()?;
    let hosting_tag = d.u8()?;
    let provider_id = d.u32()?;
    let cert_id = d.u32()?;
    let country_id = d.u32()?;
    let rank_raw = d.u32()?;
    let caa_offset = d.u32()? as usize;
    let caa_len = d.u16()? as usize;

    let cert = match cert_id {
        NO_CERT => None,
        id => match certs.get(id as usize) {
            Some(meta) => Some(meta.clone()),
            None => return d.corrupt(format!("certificate id {id} out of range")),
        },
    };
    let error = match error_raw {
        u8::MAX => None,
        code => match error_from(code) {
            Some(c) => Some(c),
            None => return d.corrupt(format!("unknown error category code {code}")),
        },
    };
    let https = match (flags & F_ATTEMPTS != 0, flags & F_VALID != 0) {
        (false, false) => {
            if error.is_some() || cert.is_some() {
                return d.corrupt("https=None record carries error or certificate");
            }
            HttpsStatus::None
        }
        (true, true) => match (cert, error) {
            (Some(meta), None) => HttpsStatus::Valid(meta),
            _ => return d.corrupt("valid record must have a certificate and no error"),
        },
        (true, false) => match error {
            Some(cat) => HttpsStatus::Invalid(cat, cert),
            None => return d.corrupt("invalid record without an error category"),
        },
        (false, true) => return d.corrupt("valid flag without attempts flag"),
    };
    let negotiated = match negotiated_raw {
        u8::MAX => None,
        code => match tls_from(code) {
            Some(v) => Some(v),
            None => return d.corrupt(format!("unknown TLS version code {code}")),
        },
    };
    let hosting = match (hosting_tag, provider_id) {
        (0, NO_STRING) => HostingKind::Private,
        (tag @ (1 | 2), id) => match strings.get(id as usize) {
            Some(p) => {
                let p = intern_static(p);
                if tag == 1 {
                    HostingKind::Cloud(p)
                } else {
                    HostingKind::Cdn(p)
                }
            }
            None => return d.corrupt(format!("provider string id {id} out of range")),
        },
        (tag, _) => return d.corrupt(format!("unknown hosting tag {tag}")),
    };
    let country = match country_id {
        NO_STRING => None,
        id => match strings.get(id as usize) {
            Some(cc) => Some(intern_static(cc)),
            None => return d.corrupt(format!("country string id {id} out of range")),
        },
    };
    let caa_run = match caa.get(caa_offset..caa_offset + caa_len) {
        Some(run) => run.to_vec(),
        None => {
            return d.corrupt(format!(
                "CAA run {caa_offset}+{caa_len} out of range ({} entries)",
                caa.len()
            ))
        }
    };
    Ok(ScanRecord {
        hostname: hostname.clone(),
        available: flags & F_AVAILABLE != 0,
        ip: (flags & F_HAS_IP != 0).then(|| Ipv4Addr::from(ip_raw)),
        http_200: flags & F_HTTP_200 != 0,
        http_redirects_https: flags & F_HTTP_REDIRECTS != 0,
        https_200: flags & F_HTTPS_200 != 0,
        hsts: flags & F_HSTS != 0,
        https,
        negotiated,
        caa: caa_run,
        hosting,
        country,
        tranco_rank: (rank_raw != u32::MAX).then_some(rank_raw),
    })
}

/// Assemble decoded records into a [`ScanDataset`] carrying `scan_time`.
pub(crate) fn assemble_dataset(records: Vec<ScanRecord>, scan_time: Option<Time>) -> ScanDataset {
    let mut dataset = match scan_time {
        Some(t) => ScanDataset::new(records, t),
        None => {
            let mut ds = ScanDataset::default();
            for r in records {
                ds.push(r);
            }
            ds
        }
    };
    dataset.scan_time = scan_time;
    dataset
}
