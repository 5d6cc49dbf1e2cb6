//! DER decoding.

use crate::error::{Asn1Error, Result};
use crate::oid::Oid;
use crate::tag::Tag;
use crate::time::Time;

/// A zero-copy DER reader over a byte slice.
///
/// Reads proceed left-to-right; constructed types return a nested reader
/// over their content. Strictness follows DER: definite lengths only, and
/// length octets must be minimal.
#[derive(Debug, Clone)]
pub struct DerReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> DerReader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> DerReader<'a> {
        DerReader { data, pos: 0 }
    }

    /// True if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Require that every byte has been consumed: a SEQUENCE or SET
    /// read into this reader must end exactly where its last field does.
    pub fn finish(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(Asn1Error::TrailingData)
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Peek the tag of the next TLV without consuming it.
    pub fn peek_tag(&self) -> Option<Tag> {
        self.data.get(self.pos).map(|&b| Tag(b))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.data.len() - self.pos < n {
            return Err(Asn1Error::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read the next TLV, returning its tag and content slice.
    pub fn read_tlv(&mut self) -> Result<(Tag, &'a [u8])> {
        let tag_byte = self.take(1)?[0];
        if tag_byte & 0x1f == 0x1f {
            return Err(Asn1Error::BadValue("high tag numbers unsupported"));
        }
        let first_len = self.take(1)?[0];
        let len = if first_len < 0x80 {
            first_len as usize
        } else if first_len == 0x80 {
            return Err(Asn1Error::BadLength); // indefinite: forbidden in DER
        } else {
            let n = (first_len & 0x7f) as usize;
            if n > 8 {
                return Err(Asn1Error::BadLength);
            }
            let octets = self.take(n)?;
            if octets[0] == 0 {
                return Err(Asn1Error::BadLength); // non-minimal
            }
            let mut len: usize = 0;
            for &b in octets {
                len = len.checked_mul(256).ok_or(Asn1Error::BadLength)? + b as usize;
            }
            if len < 0x80 {
                return Err(Asn1Error::BadLength); // non-minimal
            }
            len
        };
        let content = self.take(len)?;
        Ok((Tag(tag_byte), content))
    }

    /// Read the next TLV, requiring the given tag.
    pub fn expect(&mut self, tag: Tag) -> Result<&'a [u8]> {
        let save = self.pos;
        let (found, content) = self.read_tlv()?;
        if found != tag {
            self.pos = save;
            return Err(Asn1Error::UnexpectedTag {
                expected: tag.0,
                found: found.0,
            });
        }
        Ok(content)
    }

    /// If the next TLV has the given tag, read it; otherwise return `None`
    /// without consuming anything. Used for OPTIONAL fields.
    pub fn optional(&mut self, tag: Tag) -> Result<Option<&'a [u8]>> {
        match self.peek_tag() {
            Some(t) if t == tag => Ok(Some(self.expect(tag)?)),
            _ => Ok(None),
        }
    }

    /// Read a SEQUENCE and return a reader over its content.
    pub fn sequence(&mut self) -> Result<DerReader<'a>> {
        Ok(DerReader::new(self.expect(Tag::SEQUENCE)?))
    }

    /// Read a SET and return a reader over its content.
    pub fn set(&mut self) -> Result<DerReader<'a>> {
        Ok(DerReader::new(self.expect(Tag::SET)?))
    }

    /// Read a context-specific constructed `[n]` and return its content.
    pub fn context(&mut self, n: u8) -> Result<DerReader<'a>> {
        Ok(DerReader::new(self.expect(Tag::context(n))?))
    }

    /// Read a BOOLEAN.
    pub fn boolean(&mut self) -> Result<bool> {
        let content = self.expect(Tag::BOOLEAN)?;
        match content {
            [0x00] => Ok(false),
            [0xff] => Ok(true),
            _ => Err(Asn1Error::BadValue("boolean must be 00 or ff")),
        }
    }

    /// Read an INTEGER as i64 (fails on values outside i64's range).
    pub fn integer_i64(&mut self) -> Result<i64> {
        let content = self.expect(Tag::INTEGER)?;
        if content.is_empty() || content.len() > 8 {
            return Err(Asn1Error::BadValue("integer out of i64 range"));
        }
        let negative = content[0] & 0x80 != 0;
        let mut value: i64 = if negative { -1 } else { 0 };
        for &b in content {
            value = (value << 8) | b as i64;
        }
        Ok(value)
    }

    /// Read an INTEGER as raw magnitude bytes (sign octet stripped). Used
    /// for serial numbers of arbitrary width.
    pub fn integer_bytes(&mut self) -> Result<&'a [u8]> {
        let content = self.expect(Tag::INTEGER)?;
        if content.is_empty() {
            return Err(Asn1Error::BadValue("empty integer"));
        }
        if content.len() > 1 && content[0] == 0 {
            Ok(&content[1..])
        } else {
            Ok(content)
        }
    }

    /// Read a BIT STRING, returning `(unused_bits, bytes)`.
    pub fn bit_string(&mut self) -> Result<(u8, &'a [u8])> {
        let content = self.expect(Tag::BIT_STRING)?;
        let (&unused, rest) = content
            .split_first()
            .ok_or(Asn1Error::BadValue("empty bit string"))?;
        if unused > 7 || (rest.is_empty() && unused != 0) {
            return Err(Asn1Error::BadValue("bad unused-bit count"));
        }
        Ok((unused, rest))
    }

    /// Read an OCTET STRING.
    pub fn octet_string(&mut self) -> Result<&'a [u8]> {
        self.expect(Tag::OCTET_STRING)
    }

    /// Read a NULL.
    pub fn null(&mut self) -> Result<()> {
        let content = self.expect(Tag::NULL)?;
        if !content.is_empty() {
            return Err(Asn1Error::BadValue("non-empty null"));
        }
        Ok(())
    }

    /// Read an OBJECT IDENTIFIER.
    pub fn oid(&mut self) -> Result<Oid> {
        Oid::from_der_content(self.expect(Tag::OID)?)
    }

    /// Read a UTF8String.
    pub fn utf8(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.expect(Tag::UTF8_STRING)?)
            .map_err(|_| Asn1Error::BadValue("invalid utf-8"))
    }

    /// Read any of the string types X.509 uses for names (UTF8String,
    /// PrintableString, IA5String), returning the text.
    pub fn any_string(&mut self) -> Result<&'a str> {
        let save = self.pos;
        let (tag, content) = self.read_tlv()?;
        if tag != Tag::UTF8_STRING && tag != Tag::PRINTABLE_STRING && tag != Tag::IA5_STRING {
            self.pos = save;
            return Err(Asn1Error::UnexpectedTag {
                expected: Tag::UTF8_STRING.0,
                found: tag.0,
            });
        }
        std::str::from_utf8(content).map_err(|_| Asn1Error::BadValue("invalid string bytes"))
    }

    /// Read a UTCTime or GeneralizedTime.
    pub fn time(&mut self) -> Result<Time> {
        let save = self.pos;
        let (tag, content) = self.read_tlv()?;
        match tag {
            Tag::UTC_TIME => Time::from_der_content(false, content),
            Tag::GENERALIZED_TIME => Time::from_der_content(true, content),
            _ => {
                self.pos = save;
                Err(Asn1Error::UnexpectedTag {
                    expected: Tag::UTC_TIME.0,
                    found: tag.0,
                })
            }
        }
    }

    /// Read the next TLV and return its full encoding (tag + length +
    /// content) as a slice. Used to capture `tbsCertificate` bytes for
    /// signature verification.
    pub fn read_raw_tlv(&mut self) -> Result<&'a [u8]> {
        let start = self.pos;
        self.read_tlv()?;
        Ok(&self.data[start..self.pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::DerWriter;

    #[test]
    fn round_trip_primitives() {
        let mut w = DerWriter::new();
        w.boolean(true);
        w.integer_i64(-42);
        w.octet_string(b"bytes");
        w.null();
        w.utf8("héllo");
        w.ia5("example.gov");
        let der = w.finish();

        let mut r = DerReader::new(&der);
        assert!(r.boolean().unwrap());
        assert_eq!(r.integer_i64().unwrap(), -42);
        assert_eq!(r.octet_string().unwrap(), b"bytes");
        r.null().unwrap();
        assert_eq!(r.utf8().unwrap(), "héllo");
        assert_eq!(r.any_string().unwrap(), "example.gov");
        assert!(r.is_empty());
    }

    #[test]
    fn rejects_indefinite_length() {
        // 0x30 0x80 ... : BER indefinite, forbidden in DER.
        let mut r = DerReader::new(&[0x30, 0x80, 0x00, 0x00]);
        assert_eq!(r.read_tlv().unwrap_err(), Asn1Error::BadLength);
    }

    #[test]
    fn rejects_non_minimal_length() {
        // Length 5 encoded as 0x81 0x05 (should be 0x05).
        let mut r = DerReader::new(&[0x04, 0x81, 0x05, 1, 2, 3, 4, 5]);
        assert_eq!(r.read_tlv().unwrap_err(), Asn1Error::BadLength);
        // Long form with leading zero octet.
        let mut r = DerReader::new(&[0x04, 0x82, 0x00, 0x81]);
        assert_eq!(r.read_tlv().unwrap_err(), Asn1Error::BadLength);
    }

    #[test]
    fn truncated_input() {
        let mut w = DerWriter::new();
        w.octet_string(&[1, 2, 3, 4]);
        let der = w.finish();
        let mut r = DerReader::new(&der[..der.len() - 1]);
        assert_eq!(r.read_tlv().unwrap_err(), Asn1Error::Truncated);
    }

    #[test]
    fn unexpected_tag_does_not_consume() {
        let mut w = DerWriter::new();
        w.integer_i64(7);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert!(r.octet_string().is_err());
        // Reader must be unmoved so the caller can retry.
        assert_eq!(r.integer_i64().unwrap(), 7);
    }

    #[test]
    fn optional_fields() {
        let mut w = DerWriter::new();
        w.context(3, |w| w.integer_i64(9));
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert_eq!(r.optional(Tag::context(0)).unwrap(), None);
        let inner = r.optional(Tag::context(3)).unwrap().unwrap();
        assert_eq!(DerReader::new(inner).integer_i64().unwrap(), 9);
    }

    #[test]
    fn raw_tlv_captures_full_encoding() {
        let mut w = DerWriter::new();
        w.sequence(|w| w.integer_i64(300));
        let der = w.finish();
        let mut r = DerReader::new(&der);
        let raw = r.read_raw_tlv().unwrap();
        assert_eq!(raw, &der[..]);
    }

    #[test]
    fn finish_rejects_unread_bytes() {
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.integer_i64(1);
            w.null();
        });
        let der = w.finish();
        let mut seq = DerReader::new(&der).sequence().unwrap();
        assert_eq!(seq.integer_i64().unwrap(), 1);
        assert_eq!(seq.finish(), Err(Asn1Error::TrailingData));
        seq.null().unwrap();
        assert_eq!(seq.finish(), Ok(()));
    }

    #[test]
    fn bit_string_unused_bits() {
        let mut r = DerReader::new(&[0x03, 0x02, 0x04, 0xb0]);
        let (unused, bits) = r.bit_string().unwrap();
        assert_eq!(unused, 4);
        assert_eq!(bits, &[0xb0]);
        // unused > 7 is invalid.
        let mut r = DerReader::new(&[0x03, 0x02, 0x08, 0xb0]);
        assert!(r.bit_string().is_err());
    }

    #[test]
    fn boolean_strictness() {
        // DER requires 0xff for TRUE; 0x01 is BER and must be rejected.
        let mut r = DerReader::new(&[0x01, 0x01, 0x01]);
        assert!(r.boolean().is_err());
    }

    #[test]
    fn integer_i64_bounds() {
        let mut w = DerWriter::new();
        w.integer_i64(i64::MAX);
        w.integer_i64(i64::MIN);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert_eq!(r.integer_i64().unwrap(), i64::MAX);
        assert_eq!(r.integer_i64().unwrap(), i64::MIN);
    }

    #[test]
    fn serial_magnitude_strips_sign_octet() {
        let mut w = DerWriter::new();
        w.integer_bytes(&[0xde, 0xad, 0xbe, 0xef]);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert_eq!(r.integer_bytes().unwrap(), &[0xde, 0xad, 0xbe, 0xef]);
    }
}
