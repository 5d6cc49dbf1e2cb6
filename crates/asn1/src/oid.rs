//! Object identifiers: dotted-form parsing and DER content encoding.

use crate::error::{Asn1Error, Result};

/// An ASN.1 OBJECT IDENTIFIER.
///
/// Stored as its component arcs; encoding to and from DER content octets
/// (base-128 with the first two arcs packed) is provided here.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(Vec<u64>);

impl Oid {
    /// Parse a dotted string such as `"1.2.840.113549.1.1.11"`.
    pub fn parse(s: &str) -> Result<Oid> {
        let arcs: Vec<u64> = s
            .split('.')
            .map(|p| p.parse::<u64>().map_err(|_| Asn1Error::BadOid))
            .collect::<Result<_>>()?;
        Self::from_arcs(arcs)
    }

    /// Construct from raw arcs, enforcing X.660 constraints on the first
    /// two (first arc ≤ 2; second arc ≤ 39 when the first is 0 or 1).
    pub fn from_arcs(arcs: Vec<u64>) -> Result<Oid> {
        if arcs.len() < 2 || arcs[0] > 2 || (arcs[0] < 2 && arcs[1] > 39) {
            return Err(Asn1Error::BadOid);
        }
        Ok(Oid(arcs))
    }

    /// The component arcs.
    pub fn arcs(&self) -> &[u64] {
        &self.0
    }

    /// Encode to DER content octets (the bytes inside the OID TLV).
    pub fn to_der_content(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.0.len() + 1);
        self.write_der_content(&mut out);
        out
    }

    /// [`Self::to_der_content`], appended to `out` in place.
    pub(crate) fn write_der_content(&self, out: &mut Vec<u8>) {
        encode_base128(self.0[0] * 40 + self.0[1], out);
        for &arc in &self.0[2..] {
            encode_base128(arc, out);
        }
    }

    /// Decode from DER content octets.
    pub fn from_der_content(content: &[u8]) -> Result<Oid> {
        if content.is_empty() {
            return Err(Asn1Error::BadOid);
        }
        let mut arcs = Vec::new();
        let mut iter = content.iter().copied().peekable();
        let mut first = true;
        while iter.peek().is_some() {
            let mut value: u64 = 0;
            let mut seen_first_byte = false;
            loop {
                let b = iter.next().ok_or(Asn1Error::BadOid)?;
                // Leading 0x80 continuation octets are non-minimal.
                if !seen_first_byte && b == 0x80 {
                    return Err(Asn1Error::BadOid);
                }
                seen_first_byte = true;
                value = value
                    .checked_mul(128)
                    .and_then(|v| v.checked_add((b & 0x7f) as u64))
                    .ok_or(Asn1Error::BadOid)?;
                if b & 0x80 == 0 {
                    break;
                }
            }
            if first {
                // First encoded arc packs the first two dotted arcs.
                let (a, b) = if value < 40 {
                    (0, value)
                } else if value < 80 {
                    (1, value - 40)
                } else {
                    (2, value - 80)
                };
                arcs.push(a);
                arcs.push(b);
                first = false;
            } else {
                arcs.push(value);
            }
        }
        Ok(Oid(arcs))
    }
}

/// Append the DER content octets of the dotted OID `dotted` to `out`,
/// parsing it arc by arc as it goes: the same bytes as
/// `Oid::parse(dotted)?.to_der_content()`, with no allocation. On an
/// error `out` may hold a partial encoding.
pub(crate) fn write_dotted_der_content(dotted: &str, out: &mut Vec<u8>) -> Result<()> {
    let mut arcs = dotted
        .split('.')
        .map(|p| p.parse::<u64>().map_err(|_| Asn1Error::BadOid));
    let (first, second) = match (arcs.next(), arcs.next()) {
        (Some(first), Some(second)) => (first?, second?),
        _ => return Err(Asn1Error::BadOid),
    };
    if first > 2 || (first < 2 && second > 39) {
        return Err(Asn1Error::BadOid);
    }
    encode_base128(first * 40 + second, out);
    for arc in arcs {
        encode_base128(arc?, out);
    }
    Ok(())
}

fn encode_base128(mut value: u64, out: &mut Vec<u8>) {
    let mut stack = [0u8; 10];
    let mut n = 0;
    loop {
        stack[n] = (value & 0x7f) as u8;
        value >>= 7;
        n += 1;
        if value == 0 {
            break;
        }
    }
    for i in (0..n).rev() {
        let mut b = stack[i];
        if i != 0 {
            b |= 0x80;
        }
        out.push(b);
    }
}

impl std::fmt::Display for Oid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, arc) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{arc}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encoding_rsa_sha256() {
        // 1.2.840.113549.1.1.11 → 2a 86 48 86 f7 0d 01 01 0b
        let oid = Oid::parse("1.2.840.113549.1.1.11").unwrap();
        assert_eq!(
            oid.to_der_content(),
            vec![0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d, 0x01, 0x01, 0x0b]
        );
    }

    #[test]
    fn known_encoding_ec_pubkey() {
        // 1.2.840.10045.2.1 → 2a 86 48 ce 3d 02 01
        let oid = Oid::parse("1.2.840.10045.2.1").unwrap();
        assert_eq!(
            oid.to_der_content(),
            vec![0x2a, 0x86, 0x48, 0xce, 0x3d, 0x02, 0x01]
        );
    }

    #[test]
    fn round_trip_various() {
        for s in [
            "1.2.840.113549.1.1.11",
            "2.5.29.17",
            "0.9.2342.19200300.100.1.25",
            "2.23.140.1.1",
            "1.3.6.1.4.1.44947.1.1.1",
        ] {
            let oid = Oid::parse(s).unwrap();
            let content = oid.to_der_content();
            let back = Oid::from_der_content(&content).unwrap();
            assert_eq!(back.to_string(), s);
        }
    }

    #[test]
    fn first_arc_packing_boundaries() {
        // 0.39 → single byte 39; 1.0 → 40; 2.0 → 80; 2.999 → 80+999.
        assert_eq!(Oid::parse("0.39").unwrap().to_der_content(), vec![39]);
        assert_eq!(Oid::parse("1.0").unwrap().to_der_content(), vec![40]);
        assert_eq!(Oid::parse("2.0").unwrap().to_der_content(), vec![80]);
        let back = Oid::from_der_content(&Oid::parse("2.999").unwrap().to_der_content()).unwrap();
        assert_eq!(back.to_string(), "2.999");
    }

    #[test]
    fn rejects_invalid() {
        assert!(Oid::parse("").is_err());
        assert!(Oid::parse("1").is_err());
        assert!(Oid::parse("3.1").is_err(), "first arc > 2");
        assert!(Oid::parse("1.40").is_err(), "second arc > 39 under root 1");
        assert!(Oid::parse("1.2.x").is_err());
        assert!(Oid::from_der_content(&[]).is_err());
        assert!(
            Oid::from_der_content(&[0x80, 0x01]).is_err(),
            "non-minimal base-128"
        );
        assert!(
            Oid::from_der_content(&[0xaa]).is_err(),
            "dangling continuation bit"
        );
    }

    #[test]
    fn dotted_writer_matches_parse_then_encode() {
        for s in [
            "1.2.840.113549.1.1.11",
            "2.5.29.17",
            "0.39",
            "2.999",
            "2.25.18446744073709551615",
        ] {
            let mut out = Vec::new();
            write_dotted_der_content(s, &mut out).unwrap();
            assert_eq!(out, Oid::parse(s).unwrap().to_der_content(), "{s}");
        }
        for bad in ["", "1", "3.1", "1.40", "1.2.x", "1..2"] {
            assert_eq!(
                write_dotted_der_content(bad, &mut Vec::new()),
                Err(Asn1Error::BadOid),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn large_arc() {
        let oid = Oid::parse("2.25.329800735698586629295641978511506172918").ok();
        // Arc exceeds u64 — parse must fail cleanly, not panic.
        assert!(oid.is_none());
        // But a large-but-fitting arc round-trips.
        let oid = Oid::parse("2.25.18446744073709551615").unwrap();
        let back = Oid::from_der_content(&oid.to_der_content()).unwrap();
        assert_eq!(back, oid);
    }
}
