//! Byte-level encoding primitives for the snapshot format.
//!
//! All integers are little-endian and fixed-width; there is no varint
//! layer — fixed widths keep host records addressable by index and make
//! truncation detectable by arithmetic instead of by parse failure.
//! Section payloads are checksummed with 64-bit FNV-1a: the archive
//! guards against storage rot and truncation, not adversaries (a
//! tampered file is out of the threat model, exactly as for ZMap-era
//! scan archives).

use crate::error::{Result, StoreError};

/// 64-bit FNV-1a over a byte stream, used as the per-section checksum.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    /// Fold more payload bytes into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The checksum value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// One-shot checksum of a complete payload.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut c = Checksum::default();
        c.update(bytes);
        c.value()
    }
}

/// Append-only encoder for one section payload.
///
/// Sections are built in memory (they are pool tables, small next to the
/// host records, which stream through [`crate::snapshot::SnapshotWriter`]
/// directly) and checksummed when written out.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh empty payload.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Empty the payload, keeping its buffer for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Consume the encoder, yielding the payload buffer (used when a
    /// section is encoded off-thread and shipped back whole).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked decoder over a section payload.
///
/// Every read names the structure being decoded so a short payload
/// surfaces as [`StoreError::Truncated`] with a useful context instead
/// of a slice panic.
#[derive(Debug, Clone, Copy)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Decoder<'a> {
    /// Decode `buf`, attributing truncation to `context`.
    pub fn new(buf: &'a [u8], context: &'static str) -> Decoder<'a> {
        Decoder {
            buf,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                context: self.context,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Fail with a corruption error at this decoder's context.
    pub fn corrupt<T>(&self, detail: impl Into<String>) -> Result<T> {
        Err(StoreError::Corrupt {
            context: self.context,
            detail: detail.into(),
        })
    }

    /// Require the payload to be fully consumed (pool sections encode
    /// their own counts; trailing garbage means a damaged or mismatched
    /// count).
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt {
                context: self.context,
                detail: format!("{} trailing bytes after last record", self.remaining()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut e = Encoder::new();
        e.u8(0xAB);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(0x0123_4567_89AB_CDEF);
        e.i64(-42);
        e.bytes(b"xyz");
        let mut d = Decoder::new(e.as_bytes(), "test");
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.bytes(3).unwrap(), b"xyz");
        d.finish().unwrap();
    }

    #[test]
    fn short_reads_are_truncation_not_panics() {
        let mut d = Decoder::new(&[1, 2], "short");
        assert!(matches!(
            d.u32(),
            Err(StoreError::Truncated { context: "short" })
        ));
        // The failed read consumed nothing.
        assert_eq!(d.remaining(), 2);
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let d = Decoder::new(&[0], "tail");
        assert!(matches!(d.finish(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn checksum_is_order_sensitive_and_incremental() {
        assert_ne!(Checksum::of(b"ab"), Checksum::of(b"ba"));
        let mut c = Checksum::default();
        c.update(b"a");
        c.update(b"b");
        assert_eq!(c.value(), Checksum::of(b"ab"));
    }
}
