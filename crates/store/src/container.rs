//! The container both archive formats share: `GOVSNAP1` snapshots
//! ([`crate::snapshot`]) and `GOVDLT1` deltas ([`crate::delta`]).
//!
//! ```text
//! header    (24 bytes)  magic (8 bytes) · version u32 · reserved u32 ·
//!                       section-table offset u64
//! payloads              one per section, where the table says
//! table                 count u32, then per section:
//!                       id u32 · offset u64 · length u64 · FNV-1a64 u64
//! ```
//!
//! A format brings its magic, version and section ids ([`SectionKind`]);
//! this module owns the rest: header and table encode and parse,
//! bounds-checked and checksum-verified payloads, the count × width
//! cross-check, and the string-list and scan-time codecs. No count read
//! from a file sizes an allocation beyond what the bytes present can
//! hold, so a crafted count ends in a typed [`StoreError`].

use govscan_pki::Time;

use crate::error::{Result, StoreError};
use crate::wire::{Checksum, Decoder, Encoder};

/// Fixed header size: magic + version + reserved + table offset.
pub(crate) const HEADER_LEN: u64 = 24;

/// Where the table offset sits in the header, for writers that stream
/// their payloads and backpatch it.
pub(crate) const TABLE_OFFSET_AT: u64 = 16;

/// One section-table entry: id, offset, length, checksum.
const TABLE_ENTRY_LEN: usize = 4 + 8 + 8 + 8;

/// One entry of a decoded section table.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// Numeric section id, in the id space of the file's format.
    pub id: u32,
    /// Human-readable name (`"unknown"` for ids the format lacks).
    pub name: &'static str,
    /// Payload offset from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a 64 checksum of the payload.
    pub checksum: u64,
}

/// A format's section ids, numbered from 1.
pub(crate) trait SectionKind: Copy {
    /// Section names, indexed by id − 1.
    const NAMES: &'static [&'static str];
    /// The id stored in the section table.
    fn id(self) -> u32;
    /// The name errors and dumps use.
    fn name(self) -> &'static str {
        Self::NAMES[self.id() as usize - 1]
    }
}

/// The parsed frame of a container: header fields and the section
/// table. Parsing it touches no payload.
pub(crate) struct Frame {
    /// Format version of the file.
    pub(crate) version: u32,
    /// The section table, in file order.
    pub(crate) sections: Vec<Section>,
}

impl Frame {
    /// Parse the header and section table of `bytes` as a container
    /// with `magic` at `version`. Ids `K` does not define are kept as
    /// `"unknown"`: tolerated, never decoded.
    pub(crate) fn parse<K: SectionKind>(
        bytes: &[u8],
        magic: &[u8; 8],
        version: u32,
    ) -> Result<Frame> {
        if bytes.len() < magic.len() || bytes[..magic.len()] != magic[..] {
            if bytes.len() >= magic.len() {
                return Err(StoreError::BadMagic {
                    found: bytes[..magic.len()].to_vec(),
                });
            }
            // Too short to even hold the magic: an empty or chopped file.
            if bytes.is_empty() || !magic.starts_with(bytes) {
                return Err(StoreError::BadMagic {
                    found: bytes.to_vec(),
                });
            }
            return Err(StoreError::Truncated { context: "header" });
        }
        let mut header = Decoder::new(bytes, "header");
        header.bytes(magic.len())?;
        let found = header.u32()?;
        if found != version {
            return Err(StoreError::UnsupportedVersion(found));
        }
        let _reserved = header.u32()?;
        let table_offset = header.u64()?;
        let table_bytes = usize::try_from(table_offset)
            .ok()
            .and_then(|o| bytes.get(o..))
            .ok_or(StoreError::Truncated {
                context: "section table",
            })?;
        let mut table = Decoder::new(table_bytes, "section table");
        let count = table.u32()?;
        // The count is read from the file: reserve no more entries than
        // the table's bytes can hold, so a damaged count ends in
        // `Truncated` below rather than an aborted allocation.
        let mut sections =
            Vec::with_capacity((count as usize).min(table.remaining() / TABLE_ENTRY_LEN));
        for _ in 0..count {
            let id = table.u32()?;
            sections.push(Section {
                id,
                name: (id as usize)
                    .checked_sub(1)
                    .and_then(|i| K::NAMES.get(i))
                    .copied()
                    .unwrap_or("unknown"),
                offset: table.u64()?,
                len: table.u64()?,
                checksum: table.u64()?,
            });
        }
        Ok(Frame { version, sections })
    }

    /// The table entry of a required section.
    pub(crate) fn section<K: SectionKind>(&self, kind: K) -> Result<&Section> {
        self.sections
            .iter()
            .find(|s| s.id == kind.id())
            .ok_or(StoreError::Corrupt {
                context: "section table",
                detail: format!("missing required section {:?}", kind.name()),
            })
    }

    /// The bounds-checked payload of `kind`, without verifying its
    /// checksum (for callers that already did).
    pub(crate) fn payload<'b, K: SectionKind>(&self, bytes: &'b [u8], kind: K) -> Result<&'b [u8]> {
        slice(bytes, self.section(kind)?)
    }

    /// The payload of `kind` with its FNV-1a checksum verified.
    pub(crate) fn verified<'b, K: SectionKind>(
        &self,
        bytes: &'b [u8],
        kind: K,
    ) -> Result<&'b [u8]> {
        let s = self.section(kind)?;
        let payload = slice(bytes, s)?;
        if Checksum::of(payload) != s.checksum {
            return Err(StoreError::ChecksumMismatch { section: s.name });
        }
        Ok(payload)
    }

    /// Cross-check a fixed-width section: its length must be exactly
    /// `count` records of `width` bytes. The product is checked, so a
    /// count that overflows it is corruption, not a wrapped match.
    pub(crate) fn check_width<K: SectionKind>(
        &self,
        kind: K,
        count: u64,
        width: usize,
    ) -> Result<()> {
        let len = self.section(kind)?.len;
        if count.checked_mul(width as u64) != Some(len) {
            return Err(StoreError::Corrupt {
                context: kind.name(),
                detail: format!("{len} bytes for {count} records of {width}"),
            });
        }
        Ok(())
    }
}

/// The bytes `s` names, or `Truncated` if they run past the end.
fn slice<'b>(bytes: &'b [u8], s: &Section) -> Result<&'b [u8]> {
    let start = usize::try_from(s.offset).map_err(|_| StoreError::Truncated { context: s.name })?;
    let len = usize::try_from(s.len).map_err(|_| StoreError::Truncated { context: s.name })?;
    start
        .checked_add(len)
        .and_then(|end| bytes.get(start..end))
        .ok_or(StoreError::Truncated { context: s.name })
}

/// The 24-byte header for `magic` at `version`, naming the section
/// table at `table_offset` (zero as a placeholder to backpatch at
/// [`TABLE_OFFSET_AT`]).
pub(crate) fn encode_header(magic: &[u8; 8], version: u32, table_offset: u64) -> Encoder {
    let mut header = Encoder::new();
    header.bytes(magic);
    header.u32(version);
    header.u32(0); // reserved
    header.u64(table_offset);
    debug_assert_eq!(header.len() as u64, HEADER_LEN);
    header
}

/// The section table: entry count, then the entries in id order.
pub(crate) fn encode_table(sections: &mut [Section]) -> Encoder {
    sections.sort_by_key(|s| s.id);
    let mut t = Encoder::new();
    t.u32(sections.len() as u32);
    for s in sections.iter() {
        t.u32(s.id);
        t.u64(s.offset);
        t.u64(s.len);
        t.u64(s.checksum);
    }
    t
}

/// A whole container built in memory: header, `payloads` in order,
/// then the table.
pub(crate) fn assemble<K: SectionKind>(
    magic: &[u8; 8],
    version: u32,
    payloads: &[(K, &[u8])],
) -> Vec<u8> {
    let table_offset = HEADER_LEN + payloads.iter().map(|(_, p)| p.len() as u64).sum::<u64>();
    let mut out = encode_header(magic, version, table_offset);
    let mut table = Vec::with_capacity(payloads.len());
    for &(kind, payload) in payloads {
        table.push(Section {
            id: kind.id(),
            name: kind.name(),
            offset: out.len() as u64,
            len: payload.len() as u64,
            checksum: Checksum::of(payload),
        });
        out.bytes(payload);
    }
    out.bytes(encode_table(&mut table).as_bytes());
    out.into_bytes()
}

/// Append a string list: each entry a u32 byte length, then its UTF-8.
pub(crate) fn encode_strings<'s>(e: &mut Encoder, strings: impl IntoIterator<Item = &'s str>) {
    for s in strings {
        e.u32(s.len() as u32);
        e.bytes(s.as_bytes());
    }
}

/// Decode a string list of exactly `count` entries that fills
/// `payload`. Every entry carries a 4-byte length, so no more than
/// `payload.len() / 4` entries are reserved, whatever `count` claims.
pub(crate) fn decode_strings(
    payload: &[u8],
    count: u64,
    context: &'static str,
) -> Result<Vec<String>> {
    let mut d = Decoder::new(payload, context);
    let mut out = Vec::with_capacity(count.min(payload.len() as u64 / 4) as usize);
    for _ in 0..count {
        let len = d.u32()? as usize;
        match std::str::from_utf8(d.bytes(len)?) {
            Ok(s) => out.push(s.to_owned()),
            Err(e) => return d.corrupt(format!("invalid UTF-8 string: {e}")),
        }
    }
    d.finish()?;
    Ok(out)
}

/// Append an optional scan time: a presence byte, then the time (zero
/// when absent).
pub(crate) fn encode_time(e: &mut Encoder, time: Option<Time>) {
    e.u8(u8::from(time.is_some()));
    e.i64(time.map_or(0, |t| t.0));
}

/// Read an optional scan time written by [`encode_time`].
pub(crate) fn decode_time(d: &mut Decoder<'_>) -> Result<Option<Time>> {
    let present = d.u8()?;
    let time = d.i64()?;
    Ok((present != 0).then_some(Time(time)))
}
