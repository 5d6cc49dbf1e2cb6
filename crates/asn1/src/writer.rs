//! DER encoding.

use crate::oid::Oid;
use crate::tag::Tag;
use crate::time::Time;

/// A DER encoder that builds a byte buffer top-down.
///
/// Constructed types take a closure that writes their content into a nested
/// writer; the length octets are fixed up when the closure returns, so the
/// caller never computes lengths by hand.
#[derive(Default)]
pub struct DerWriter {
    buf: Vec<u8>,
}

impl DerWriter {
    /// A fresh, empty writer.
    pub fn new() -> DerWriter {
        DerWriter::default()
    }

    /// Finish and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (mostly for tests).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn write_len(&mut self, len: usize) {
        if len < 0x80 {
            self.buf.push(len as u8);
        } else {
            let bytes = (usize::BITS / 8 - len.leading_zeros() / 8) as usize;
            self.buf.push(0x80 | bytes as u8);
            for i in (0..bytes).rev() {
                self.buf.push((len >> (i * 8)) as u8);
            }
        }
    }

    /// Write a complete TLV with the given tag and content bytes.
    pub fn tlv(&mut self, tag: Tag, content: &[u8]) {
        self.buf.push(tag.0);
        self.write_len(content.len());
        self.buf.extend_from_slice(content);
    }

    /// Append pre-encoded DER verbatim (e.g. a nested certificate).
    pub fn raw(&mut self, der: &[u8]) {
        self.buf.extend_from_slice(der);
    }

    /// BOOLEAN.
    pub fn boolean(&mut self, value: bool) {
        self.tlv(Tag::BOOLEAN, &[if value { 0xff } else { 0x00 }]);
    }

    /// INTEGER from an i64 (minimal two's-complement encoding).
    pub fn integer_i64(&mut self, value: i64) {
        let bytes = value.to_be_bytes();
        let mut start = 0;
        // Trim redundant leading octets while preserving the sign bit.
        while start < 7 {
            let b = bytes[start];
            let next_msb = bytes[start + 1] & 0x80;
            if (b == 0x00 && next_msb == 0) || (b == 0xff && next_msb != 0) {
                start += 1;
            } else {
                break;
            }
        }
        self.tlv(Tag::INTEGER, &bytes[start..]);
    }

    /// INTEGER from unsigned big-endian magnitude bytes (used for serial
    /// numbers). A leading zero octet is inserted if the MSB is set.
    pub fn integer_bytes(&mut self, magnitude: &[u8]) {
        let mut trimmed = magnitude;
        while trimmed.len() > 1 && trimmed[0] == 0 {
            trimmed = &trimmed[1..];
        }
        if trimmed.is_empty() {
            self.tlv(Tag::INTEGER, &[0]);
        } else if trimmed[0] & 0x80 != 0 {
            let mut content = Vec::with_capacity(trimmed.len() + 1);
            content.push(0);
            content.extend_from_slice(trimmed);
            self.tlv(Tag::INTEGER, &content);
        } else {
            self.tlv(Tag::INTEGER, trimmed);
        }
    }

    /// BIT STRING with zero unused bits.
    pub fn bit_string(&mut self, bits: &[u8]) {
        let mut content = Vec::with_capacity(bits.len() + 1);
        content.push(0);
        content.extend_from_slice(bits);
        self.tlv(Tag::BIT_STRING, &content);
    }

    /// BIT STRING from named-bit flags (DER named-bit encoding: trailing
    /// zero bits are trimmed). `bits[i]` is bit i, MSB-first.
    pub fn bit_string_named(&mut self, bits: &[bool]) {
        let last_set = bits.iter().rposition(|&b| b);
        match last_set {
            None => self.tlv(Tag::BIT_STRING, &[0]),
            Some(last) => {
                let nbytes = last / 8 + 1;
                let mut content = vec![0u8; nbytes + 1];
                content[0] = (7 - (last % 8) as u8) % 8;
                for (i, &bit) in bits.iter().enumerate().take(last + 1) {
                    if bit {
                        content[1 + i / 8] |= 0x80 >> (i % 8);
                    }
                }
                self.tlv(Tag::BIT_STRING, &content);
            }
        }
    }

    /// OCTET STRING.
    pub fn octet_string(&mut self, bytes: &[u8]) {
        self.tlv(Tag::OCTET_STRING, bytes);
    }

    /// NULL.
    pub fn null(&mut self) {
        self.tlv(Tag::NULL, &[]);
    }

    /// OBJECT IDENTIFIER.
    pub fn oid(&mut self, oid: &Oid) {
        self.tlv(Tag::OID, &oid.to_der_content());
    }

    /// UTF8String.
    pub fn utf8(&mut self, s: &str) {
        self.tlv(Tag::UTF8_STRING, s.as_bytes());
    }

    /// PrintableString (caller is responsible for the restricted alphabet).
    pub fn printable(&mut self, s: &str) {
        self.tlv(Tag::PRINTABLE_STRING, s.as_bytes());
    }

    /// IA5String (ASCII; used for dNSNames in SAN extensions).
    pub fn ia5(&mut self, s: &str) {
        self.tlv(Tag::IA5_STRING, s.as_bytes());
    }

    /// UTCTime or GeneralizedTime, selected by year per RFC 5280.
    pub fn time(&mut self, t: Time) {
        let (generalized, content) = t.to_der_content();
        let tag = if generalized {
            Tag::GENERALIZED_TIME
        } else {
            Tag::UTC_TIME
        };
        self.tlv(tag, &content);
    }

    /// SEQUENCE whose content is written by `f`.
    pub fn sequence(&mut self, f: impl FnOnce(&mut DerWriter)) {
        self.constructed(Tag::SEQUENCE, f);
    }

    /// SET whose content is written by `f`.
    pub fn set(&mut self, f: impl FnOnce(&mut DerWriter)) {
        self.constructed(Tag::SET, f);
    }

    /// Context-specific constructed tag `[n]` whose content is written by `f`.
    pub fn context(&mut self, n: u8, f: impl FnOnce(&mut DerWriter)) {
        self.constructed(Tag::context(n), f);
    }

    /// Context-specific primitive tag `[n]` with raw content (IMPLICIT).
    pub fn context_primitive(&mut self, n: u8, content: &[u8]) {
        self.tlv(Tag::context_primitive(n), content);
    }

    /// Any constructed TLV whose content is written by `f`.
    pub fn constructed(&mut self, tag: Tag, f: impl FnOnce(&mut DerWriter)) {
        let mut inner = DerWriter::new();
        f(&mut inner);
        let content = inner.finish();
        self.tlv(tag, &content);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(f: impl FnOnce(&mut DerWriter)) -> Vec<u8> {
        let mut w = DerWriter::new();
        f(&mut w);
        w.finish()
    }

    #[test]
    fn short_and_long_lengths() {
        let short = encode(|w| w.octet_string(&[0u8; 127]));
        assert_eq!(&short[..2], &[0x04, 0x7f]);
        let long = encode(|w| w.octet_string(&[0u8; 128]));
        assert_eq!(&long[..3], &[0x04, 0x81, 0x80]);
        let longer = encode(|w| w.octet_string(&[0u8; 300]));
        assert_eq!(&longer[..4], &[0x04, 0x82, 0x01, 0x2c]);
    }

    #[test]
    fn integer_minimal_encoding() {
        assert_eq!(encode(|w| w.integer_i64(0)), vec![0x02, 0x01, 0x00]);
        assert_eq!(encode(|w| w.integer_i64(127)), vec![0x02, 0x01, 0x7f]);
        assert_eq!(encode(|w| w.integer_i64(128)), vec![0x02, 0x02, 0x00, 0x80]);
        assert_eq!(encode(|w| w.integer_i64(256)), vec![0x02, 0x02, 0x01, 0x00]);
        assert_eq!(encode(|w| w.integer_i64(-1)), vec![0x02, 0x01, 0xff]);
        assert_eq!(
            encode(|w| w.integer_i64(-129)),
            vec![0x02, 0x02, 0xff, 0x7f]
        );
    }

    #[test]
    fn integer_bytes_adds_sign_octet() {
        assert_eq!(
            encode(|w| w.integer_bytes(&[0x80])),
            vec![0x02, 0x02, 0x00, 0x80]
        );
        assert_eq!(encode(|w| w.integer_bytes(&[0x7f])), vec![0x02, 0x01, 0x7f]);
        assert_eq!(
            encode(|w| w.integer_bytes(&[0x00, 0x00, 0x05])),
            vec![0x02, 0x01, 0x05],
            "leading zeros trimmed"
        );
        assert_eq!(encode(|w| w.integer_bytes(&[])), vec![0x02, 0x01, 0x00]);
    }

    #[test]
    fn named_bit_string_trims_trailing_zeros() {
        // keyCertSign is bit 5: named-bit encoding → 1 byte, 2 unused bits.
        let ku = encode(|w| w.bit_string_named(&[false, false, false, false, false, true]));
        assert_eq!(ku, vec![0x03, 0x02, 0x02, 0x04]);
        // digitalSignature (bit 0) only → 7 unused bits, 0x80.
        let ds = encode(|w| w.bit_string_named(&[true]));
        assert_eq!(ds, vec![0x03, 0x02, 0x07, 0x80]);
        // Empty.
        let none = encode(|w| w.bit_string_named(&[false, false]));
        assert_eq!(none, vec![0x03, 0x01, 0x00]);
    }

    #[test]
    fn nested_sequences() {
        let der = encode(|w| {
            w.sequence(|w| {
                w.integer_i64(1);
                w.sequence(|w| w.null());
            })
        });
        assert_eq!(
            der,
            vec![0x30, 0x07, 0x02, 0x01, 0x01, 0x30, 0x02, 0x05, 0x00]
        );
    }

    #[test]
    fn boolean_and_context() {
        assert_eq!(encode(|w| w.boolean(true)), vec![0x01, 0x01, 0xff]);
        assert_eq!(encode(|w| w.boolean(false)), vec![0x01, 0x01, 0x00]);
        let ctx = encode(|w| w.context(0, |w| w.integer_i64(2)));
        assert_eq!(ctx, vec![0xa0, 0x03, 0x02, 0x01, 0x02]);
        let ctxp = encode(|w| w.context_primitive(2, b"ab"));
        assert_eq!(ctxp, vec![0x82, 0x02, b'a', b'b']);
    }
}
