//! DER encoding.

use crate::oid::{self, Oid};
use crate::tag::Tag;
use crate::time::Time;

/// A DER encoder that writes every element into one byte buffer.
///
/// Constructed types take a closure that writes their content straight
/// into the same buffer after a one-octet length placeholder; when the
/// closure returns, the length is backpatched (shifting the content right
/// when the long form needs more octets), so the caller never computes
/// lengths by hand and nesting allocates nothing.
#[derive(Default)]
pub struct DerWriter {
    buf: Vec<u8>,
}

impl DerWriter {
    /// A fresh, empty writer.
    pub fn new() -> DerWriter {
        DerWriter::default()
    }

    /// An empty writer whose buffer holds `capacity` bytes before it
    /// grows.
    pub fn with_capacity(capacity: usize) -> DerWriter {
        DerWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Finish and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
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
            let bytes = long_form_octets(len);
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
            self.buf.push(Tag::INTEGER.0);
            self.write_len(trimmed.len() + 1);
            self.buf.push(0);
            self.buf.extend_from_slice(trimmed);
        } else {
            self.tlv(Tag::INTEGER, trimmed);
        }
    }

    /// BIT STRING with zero unused bits.
    pub fn bit_string(&mut self, bits: &[u8]) {
        self.buf.push(Tag::BIT_STRING.0);
        self.write_len(bits.len() + 1);
        self.buf.push(0);
        self.buf.extend_from_slice(bits);
    }

    /// BIT STRING with zero unused bits whose bytes are the DER written by
    /// `f` (how a SubjectPublicKeyInfo wraps its key).
    pub fn bit_string_with(&mut self, f: impl FnOnce(&mut DerWriter)) {
        self.nested(Tag::BIT_STRING, |w| {
            w.buf.push(0);
            f(w);
        });
    }

    /// BIT STRING from named-bit flags (DER named-bit encoding: trailing
    /// zero bits are trimmed). `bits[i]` is bit i, MSB-first.
    pub fn bit_string_named(&mut self, bits: &[bool]) {
        let last_set = bits.iter().rposition(|&b| b);
        match last_set {
            None => self.tlv(Tag::BIT_STRING, &[0]),
            Some(last) => {
                let nbytes = last / 8 + 1;
                self.buf.push(Tag::BIT_STRING.0);
                self.write_len(nbytes + 1);
                self.buf.push((7 - (last % 8) as u8) % 8);
                let start = self.buf.len();
                self.buf.resize(start + nbytes, 0);
                for (i, &bit) in bits.iter().enumerate().take(last + 1) {
                    if bit {
                        self.buf[start + i / 8] |= 0x80 >> (i % 8);
                    }
                }
            }
        }
    }

    /// OCTET STRING.
    pub fn octet_string(&mut self, bytes: &[u8]) {
        self.tlv(Tag::OCTET_STRING, bytes);
    }

    /// OCTET STRING whose bytes are the DER written by `f` (how an X.509
    /// extension wraps its value).
    pub fn octet_string_with(&mut self, f: impl FnOnce(&mut DerWriter)) {
        self.nested(Tag::OCTET_STRING, f);
    }

    /// NULL.
    pub fn null(&mut self) {
        self.tlv(Tag::NULL, &[]);
    }

    /// OBJECT IDENTIFIER, encoded in place from its arcs.
    pub fn oid(&mut self, oid: &Oid) {
        self.nested(Tag::OID, |w| oid.write_der_content(&mut w.buf));
    }

    /// OBJECT IDENTIFIER from its dotted form (`"2.5.29.17"`), encoded in
    /// place without building an [`Oid`].
    ///
    /// Panics on a malformed OID — reserved for static strings such as
    /// the constants X.509 encoders name their attributes and algorithms
    /// by, which their own tests cover.
    pub fn oid_dotted(&mut self, dotted: &str) {
        self.nested(Tag::OID, |w| {
            oid::write_dotted_der_content(dotted, &mut w.buf).expect("static OID must parse")
        });
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
        let tag_at = self.buf.len();
        self.nested(Tag::UTC_TIME, |w| {
            if t.write_der_content(&mut w.buf) {
                w.buf[tag_at] = Tag::GENERALIZED_TIME.0;
            }
        });
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
        self.nested(tag, f);
    }

    /// Write `tag`, a one-octet length placeholder, then whatever `f`
    /// writes, and backpatch the length. A content of 128 bytes or more
    /// needs a long-form length, so the content moves right by the extra
    /// length octets.
    fn nested(&mut self, tag: Tag, f: impl FnOnce(&mut DerWriter)) {
        self.buf.push(tag.0);
        self.buf.push(0);
        let start = self.buf.len();
        f(self);
        let len = self.buf.len() - start;
        if len < 0x80 {
            self.buf[start - 1] = len as u8;
            return;
        }
        let extra = long_form_octets(len);
        let end = self.buf.len();
        self.buf.resize(end + extra, 0);
        self.buf.copy_within(start..end, start + extra);
        self.buf[start - 1] = 0x80 | extra as u8;
        for i in 0..extra {
            self.buf[start + i] = (len >> ((extra - 1 - i) * 8)) as u8;
        }
    }
}

/// Number of octets after the `0x8n` prefix in the long form of `len`.
fn long_form_octets(len: usize) -> usize {
    (usize::BITS / 8 - len.leading_zeros() / 8) as usize
}

/// The writer as it was before it kept one buffer: each constructed
/// element encodes into a child writer that is then copied into its
/// parent, OIDs go through `Oid::to_der_content`, and times through
/// `format!`. Kept only as the reference the single-buffer writer must
/// match byte for byte.
#[cfg(test)]
pub(crate) mod reference {
    use crate::oid::Oid;
    use crate::tag::Tag;
    use crate::time::Time;

    #[derive(Default)]
    pub(crate) struct NestedWriter {
        buf: Vec<u8>,
    }

    impl NestedWriter {
        pub(crate) fn finish(self) -> Vec<u8> {
            self.buf
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

        pub(crate) fn tlv(&mut self, tag: Tag, content: &[u8]) {
            self.buf.push(tag.0);
            self.write_len(content.len());
            self.buf.extend_from_slice(content);
        }

        pub(crate) fn integer_bytes(&mut self, magnitude: &[u8]) {
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

        pub(crate) fn bit_string(&mut self, bits: &[u8]) {
            let mut content = Vec::with_capacity(bits.len() + 1);
            content.push(0);
            content.extend_from_slice(bits);
            self.tlv(Tag::BIT_STRING, &content);
        }

        pub(crate) fn bit_string_named(&mut self, bits: &[bool]) {
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

        pub(crate) fn oid(&mut self, oid: &Oid) {
            self.tlv(Tag::OID, &oid.to_der_content());
        }

        pub(crate) fn time(&mut self, t: Time) {
            let dt = t.to_datetime();
            if (1950..2050).contains(&dt.year) {
                let s = format!(
                    "{:02}{:02}{:02}{:02}{:02}{:02}Z",
                    dt.year % 100,
                    dt.month,
                    dt.day,
                    dt.hour,
                    dt.minute,
                    dt.second
                );
                self.tlv(Tag::UTC_TIME, s.as_bytes());
            } else {
                let s = format!(
                    "{:04}{:02}{:02}{:02}{:02}{:02}Z",
                    dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second
                );
                self.tlv(Tag::GENERALIZED_TIME, s.as_bytes());
            }
        }

        pub(crate) fn constructed(&mut self, tag: Tag, f: impl FnOnce(&mut NestedWriter)) {
            let mut inner = NestedWriter::default();
            f(&mut inner);
            let content = inner.finish();
            self.tlv(tag, &content);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::NestedWriter;
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

    /// One element of a DER tree both writers can encode.
    enum Node {
        Octets(Vec<u8>),
        Serial(Vec<u8>),
        Bits(Vec<u8>),
        NamedBits(Vec<bool>),
        Oid(Oid),
        Time(Time),
        Constructed(Tag, Vec<Node>),
        /// A BIT STRING wrapping the encoding of its children.
        BitsWith(Vec<Node>),
        /// An OCTET STRING wrapping the encoding of its children.
        OctetsWith(Vec<Node>),
    }

    fn write(w: &mut DerWriter, node: &Node) {
        match node {
            Node::Octets(b) => w.octet_string(b),
            Node::Serial(b) => w.integer_bytes(b),
            Node::Bits(b) => w.bit_string(b),
            Node::NamedBits(b) => w.bit_string_named(b),
            Node::Oid(o) => w.oid(o),
            Node::Time(t) => w.time(*t),
            Node::Constructed(tag, kids) => {
                w.constructed(*tag, |w| kids.iter().for_each(|k| write(w, k)))
            }
            Node::BitsWith(kids) => w.bit_string_with(|w| kids.iter().for_each(|k| write(w, k))),
            Node::OctetsWith(kids) => {
                w.octet_string_with(|w| kids.iter().for_each(|k| write(w, k)))
            }
        }
    }

    fn write_reference(w: &mut NestedWriter, node: &Node) {
        let encode_kids = |kids: &[Node]| {
            let mut inner = NestedWriter::default();
            kids.iter().for_each(|k| write_reference(&mut inner, k));
            inner.finish()
        };
        match node {
            Node::Octets(b) => w.tlv(Tag::OCTET_STRING, b),
            Node::Serial(b) => w.integer_bytes(b),
            Node::Bits(b) => w.bit_string(b),
            Node::NamedBits(b) => w.bit_string_named(b),
            Node::Oid(o) => w.oid(o),
            Node::Time(t) => w.time(*t),
            Node::Constructed(tag, kids) => {
                w.constructed(*tag, |w| kids.iter().for_each(|k| write_reference(w, k)))
            }
            Node::BitsWith(kids) => w.bit_string(&encode_kids(kids)),
            Node::OctetsWith(kids) => w.tlv(Tag::OCTET_STRING, &encode_kids(kids)),
        }
    }

    fn assert_same(node: &Node) -> Vec<u8> {
        let mut single = DerWriter::new();
        write(&mut single, node);
        let mut nested = NestedWriter::default();
        write_reference(&mut nested, node);
        let (single, nested) = (single.finish(), nested.finish());
        assert_eq!(single, nested);
        single
    }

    /// Content lengths on both sides of every length-octet boundary.
    const LENGTHS: [usize; 7] = [0, 127, 128, 255, 256, 65_535, 65_536];

    #[test]
    fn single_buffer_matches_nested_writer_at_length_boundaries() {
        for len in LENGTHS {
            // Constructed content of exactly `len` bytes: one OCTET
            // STRING whose own header is subtracted from the budget, or
            // nothing at all.
            let inner = |len: usize| -> Vec<Node> {
                if len == 0 {
                    return vec![];
                }
                let header = |n: usize| 2 + if n < 0x80 { 0 } else { long_form_octets(n) };
                let n = (len.saturating_sub(6)..len)
                    .find(|&n| n + header(n) == len)
                    .expect("one OCTET STRING fills the content");
                vec![Node::Octets(vec![0xab; n])]
            };
            for tag in [Tag::SEQUENCE, Tag::SET, Tag::context(3)] {
                let der = assert_same(&Node::Constructed(tag, inner(len)));
                let mut r = crate::DerReader::new(&der);
                let (found, content) = r.read_tlv().unwrap();
                assert_eq!((found, content.len()), (tag, len));
            }
            assert_same(&Node::OctetsWith(inner(len)));
            assert_same(&Node::BitsWith(inner(len)));
            assert_same(&Node::Octets(vec![7; len]));
            assert_same(&Node::Bits(vec![0xff; len]));
            assert_same(&Node::Serial(vec![0x80; len]));
            assert_same(&Node::Serial(vec![0x01; len]));
        }
    }

    #[test]
    fn single_buffer_matches_nested_writer_deeply_nested() {
        // Ten levels, each wrapping the previous one plus a sibling, so
        // every level crosses a different length boundary on the way up.
        let mut node = Node::Octets(vec![1; 120]);
        for depth in 0..10 {
            let sibling = Node::Octets(vec![depth as u8; depth * 40]);
            node = match depth % 4 {
                0 => Node::Constructed(Tag::SEQUENCE, vec![node, sibling]),
                1 => Node::OctetsWith(vec![sibling, node]),
                2 => Node::Constructed(Tag::context(depth as u8), vec![node]),
                _ => Node::BitsWith(vec![node, sibling]),
            };
        }
        let der = assert_same(&node);
        assert!(der.len() > 1_500);
        // And a chain 40 deep of single-child SEQUENCEs around a 70 KB
        // leaf: every level needs a three-octet long-form length.
        let mut node = Node::Octets(vec![9; 70_000]);
        for _ in 0..40 {
            node = Node::Constructed(Tag::SEQUENCE, vec![node]);
        }
        assert_same(&node);
    }

    #[test]
    fn single_buffer_matches_nested_writer_on_primitives() {
        let mut named = [false; 20];
        for i in [0, 3, 8, 15, 19] {
            named[i] = true;
            assert_same(&Node::NamedBits(named[..=i].to_vec()));
        }
        assert_same(&Node::NamedBits(vec![]));
        assert_same(&Node::NamedBits(vec![false; 9]));
        for dotted in [
            "1.2.840.113549.1.1.11",
            "0.39",
            "2.999.1",
            "2.25.18446744073709551615",
        ] {
            assert_same(&Node::Oid(Oid::parse(dotted).unwrap()));
        }
        for t in [
            Time::from_ymd_hms(1950, 1, 1, 0, 0, 0),
            Time::from_ymd_hms(2049, 12, 31, 23, 59, 59),
            Time::from_ymd_hms(2050, 1, 1, 0, 0, 0),
            Time::from_ymd_hms(1949, 12, 31, 23, 59, 59),
            Time::from_ymd_hms(2120, 6, 1, 1, 2, 3),
            Time::from_ymd_hms(1, 1, 1, 0, 0, 0),
            Time::from_ymd_hms(12_000, 1, 1, 0, 0, 0),
            Time::from_ymd_hms(-40, 1, 1, 0, 0, 0),
        ] {
            assert_same(&Node::Time(t));
        }
    }

    #[test]
    fn dotted_oids_encode_like_parsed_ones() {
        for dotted in [
            "1.2.840.113549.1.1.11",
            "2.5.29.17",
            "0.9.2342.19200300.100.1.25",
        ] {
            let mut w = DerWriter::new();
            w.oid_dotted(dotted);
            assert_eq!(w.finish(), encode(|w| w.oid(&Oid::parse(dotted).unwrap())));
        }
    }

    #[test]
    #[should_panic(expected = "static OID must parse")]
    fn malformed_dotted_oid_panics() {
        DerWriter::new().oid_dotted("1.40");
    }
}
