//! X.509 certificates: the typed model and its DER encoding.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use govscan_asn1::{Asn1Error, DerReader, DerWriter, Result, Tag, Time};
use govscan_crypto::sign::SignError;
use govscan_crypto::{hex, Fingerprint, KeyAlgorithm, KeyPair, PublicKey, Sha256};
use govscan_crypto::{Digest, Signature, SignatureAlgorithm};

use crate::extensions::Extensions;
use crate::name::DistinguishedName;
use crate::oids;

/// The notBefore/notAfter window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    /// Start of validity.
    pub not_before: Time,
    /// End of validity.
    pub not_after: Time,
}

impl Validity {
    /// Total validity in whole days (§5.3.1 groups certificates by this).
    pub fn days(&self) -> i64 {
        self.not_after.days_since(self.not_before)
    }

    /// Whether `at` falls inside the window.
    pub fn contains(&self, at: Time) -> bool {
        self.not_before <= at && at <= self.not_after
    }
}

/// The to-be-signed portion of a certificate (RFC 5280 §4.1.1.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// Serial number as unsigned big-endian magnitude.
    pub serial: Vec<u8>,
    /// The signature algorithm the issuer intends to use (must match the
    /// outer signatureAlgorithm).
    pub signature_alg: SignatureAlgorithm,
    /// Issuer distinguished name.
    pub issuer: DistinguishedName,
    /// Validity window.
    pub validity: Validity,
    /// Subject distinguished name.
    pub subject: DistinguishedName,
    /// Subject public key (algorithm metadata + key bytes).
    pub public_key: PublicKey,
    /// v3 extensions.
    pub extensions: Extensions,
}

/// Initial buffer size for one certificate's DER: a typical leaf fits,
/// so encoding it grows the buffer at most once.
const DER_CAPACITY: usize = 640;

/// A complete certificate: TBS + signature.
///
/// Immutable. The fields sit behind one `Arc`, so a clone (a chain
/// copied into a TLS session, a path built by the validator) only bumps
/// a reference count. The DER is encoded once, when the certificate is
/// built ([`Certificate::sign`], [`Certificate::new`]); the TBS bytes
/// inside it are exactly the bytes the signature was made over, and
/// [`Certificate::to_der`], [`Certificate::fingerprint`] and every
/// signature check reuse them. To change a field, clone the parts
/// ([`Certificate::tbs`], [`Certificate::signature`]) and build a new
/// certificate from them.
#[derive(Clone)]
pub struct Certificate(Arc<Body>);

struct Body {
    tbs: TbsCertificate,
    signature: Signature,
    /// The full DER encoding.
    der: Box<[u8]>,
    /// Where the TBSCertificate's encoding sits inside `der`.
    tbs_der: Range<usize>,
    fingerprint: OnceLock<Fingerprint>,
}

impl PartialEq for Certificate {
    fn eq(&self, other: &Self) -> bool {
        // The encoding is derived state and never participates in identity.
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.tbs == other.0.tbs && self.0.signature == other.0.signature)
    }
}

impl Eq for Certificate {}

impl std::fmt::Debug for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Certificate")
            .field("tbs", &self.0.tbs)
            .field("signature", &self.0.signature)
            .finish()
    }
}

fn curve_oid(bits: u16) -> Option<&'static str> {
    match bits {
        256 => Some("1.2.840.10045.3.1.7"), // prime256v1
        384 => Some("1.3.132.0.34"),        // secp384r1
        521 => Some("1.3.132.0.35"),        // secp521r1
        _ => None,
    }
}

/// Nominal key size for a named-curve OID (used as a cross-check when
/// parsing EC SPKIs whose inner size field disagrees with the curve).
pub fn bits_from_curve(oid: &str) -> Option<u16> {
    match oid {
        "1.2.840.10045.3.1.7" => Some(256),
        "1.3.132.0.34" => Some(384),
        "1.3.132.0.35" => Some(521),
        _ => None,
    }
}

impl TbsCertificate {
    /// DER-encode the TBSCertificate. The validator verifies signatures
    /// over exactly these bytes.
    pub fn to_der(&self) -> Vec<u8> {
        let mut w = DerWriter::with_capacity(DER_CAPACITY);
        self.encode(&mut w);
        w.finish()
    }

    fn encode(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            // version [0] EXPLICIT — always v3 (value 2).
            w.context(0, |w| w.integer_i64(2));
            w.integer_bytes(&self.serial);
            encode_sig_alg(w, self.signature_alg);
            self.issuer.encode(w);
            w.sequence(|w| {
                w.time(self.validity.not_before);
                w.time(self.validity.not_after);
            });
            self.subject.encode(w);
            self.encode_spki(w);
            if !self.extensions.is_empty() {
                w.context(3, |w| self.extensions.encode(w));
            }
        });
    }

    fn encode_spki(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.sequence(|w| match self.public_key.algorithm {
                KeyAlgorithm::Rsa(_) => {
                    w.oid_dotted(oids::ALG_RSA);
                    w.null();
                }
                KeyAlgorithm::Ec(bits) => {
                    w.oid_dotted(oids::ALG_EC);
                    match curve_oid(bits) {
                        Some(c) => w.oid_dotted(c),
                        None => w.null(), // non-standard curve size
                    }
                }
            });
            // The bit string wraps (bits, key-bytes) so size metadata
            // survives a DER round trip for both families.
            w.bit_string_with(|w| {
                w.sequence(|w| {
                    w.integer_i64(self.public_key.algorithm.bits() as i64);
                    w.octet_string(&self.public_key.bytes);
                })
            });
        });
    }

    fn decode(r: &mut DerReader<'_>) -> Result<Self> {
        let mut tbs = r.sequence()?;
        let mut version = tbs.context(0)?;
        let v = version.integer_i64()?;
        version.finish()?;
        if v != 2 {
            return Err(Asn1Error::BadValue("only v3 certificates supported"));
        }
        let serial = tbs.integer_bytes()?.to_vec();
        let signature_alg = decode_sig_alg(&mut tbs)?;
        let issuer = DistinguishedName::decode(&mut tbs)?;
        let mut validity = tbs.sequence()?;
        let not_before = validity.time()?;
        let not_after = validity.time()?;
        validity.finish()?;
        let subject = DistinguishedName::decode(&mut tbs)?;
        let public_key = Self::decode_spki(&mut tbs)?;
        let extensions = if tbs.peek_tag() == Some(Tag::context(3)) {
            let mut ext = tbs.context(3)?;
            let extensions = Extensions::decode(&mut ext)?;
            ext.finish()?;
            extensions
        } else {
            Extensions::default()
        };
        tbs.finish()?;
        Ok(TbsCertificate {
            serial,
            signature_alg,
            issuer,
            validity: Validity {
                not_before,
                not_after,
            },
            subject,
            public_key,
            extensions,
        })
    }

    fn decode_spki(r: &mut DerReader<'_>) -> Result<PublicKey> {
        let mut spki = r.sequence()?;
        let mut alg = spki.sequence()?;
        let alg_oid = alg.oid()?.to_string();
        let family_ec = match alg_oid.as_str() {
            oids::ALG_RSA => {
                alg.null()?;
                false
            }
            oids::ALG_EC => {
                // Curve OID or NULL for non-standard sizes.
                if alg.peek_tag() == Some(Tag::OID) {
                    alg.oid()?;
                } else {
                    alg.null()?;
                }
                true
            }
            _ => return Err(Asn1Error::BadValue("unknown SPKI algorithm")),
        };
        alg.finish()?;
        let (_unused, key_der) = spki.bit_string()?;
        spki.finish()?;
        let mut inner = DerReader::new(key_der);
        let mut seq = inner.sequence()?;
        inner.finish()?;
        let bits = seq.integer_i64()? as u16;
        let bytes = seq.octet_string()?.to_vec();
        seq.finish()?;
        let algorithm = if family_ec {
            KeyAlgorithm::Ec(bits)
        } else {
            KeyAlgorithm::Rsa(bits)
        };
        Ok(PublicKey { algorithm, bytes })
    }
}

fn encode_sig_alg(w: &mut DerWriter, alg: SignatureAlgorithm) {
    w.sequence(|w| {
        w.oid_dotted(alg.oid());
        if !alg.is_ecdsa() {
            w.null(); // RSA algorithm identifiers carry a NULL parameter
        }
    });
}

fn decode_sig_alg(r: &mut DerReader<'_>) -> Result<SignatureAlgorithm> {
    let mut seq = r.sequence()?;
    let oid = seq.oid()?.to_string();
    let alg = SignatureAlgorithm::from_oid(&oid)
        .ok_or(Asn1Error::BadValue("unknown signature algorithm"))?;
    if !alg.is_ecdsa() {
        seq.null()?;
    }
    seq.finish()?;
    Ok(alg)
}

impl Certificate {
    /// Encode `tbs` once, sign those bytes with `key` under
    /// `tbs.signature_alg`, and keep them as the certificate's encoding.
    /// Fails when `key`'s family cannot make that signature.
    pub fn sign(tbs: TbsCertificate, key: &KeyPair) -> std::result::Result<Certificate, SignError> {
        let algorithm = tbs.signature_alg;
        if !algorithm.compatible_with(key.algorithm) {
            return Err(SignError::IncompatibleKey);
        }
        Ok(Certificate::encode(tbs, |tbs_der| {
            govscan_crypto::sign(key, algorithm, tbs_der).expect("key family checked above")
        }))
    }

    /// Assemble a certificate from its signed fields and a signature
    /// made elsewhere (or taken from another certificate), encoding it
    /// once.
    pub fn new(tbs: TbsCertificate, signature: Signature) -> Certificate {
        Certificate::encode(tbs, |_| signature)
    }

    /// Encode the whole certificate into one buffer: the TBS first, then
    /// the signature `sign` makes over exactly those bytes.
    fn encode(tbs: TbsCertificate, sign: impl FnOnce(&[u8]) -> Signature) -> Certificate {
        let mut w = DerWriter::with_capacity(DER_CAPACITY);
        let mut signed = None;
        w.sequence(|w| {
            let start = w.len();
            tbs.encode(w);
            let tbs_len = w.len() - start;
            let signature = sign(&w.as_bytes()[start..]);
            let tail_start = w.len();
            encode_sig_alg(w, signature.algorithm);
            w.bit_string(&signature.bytes);
            signed = Some((signature, tbs_len, w.len() - tail_start));
        });
        let (signature, tbs_len, tail_len) = signed.expect("the SEQUENCE body runs once");
        let der = w.finish().into_boxed_slice();
        // The outer length is backpatched after the body, so the TBS
        // offset is known only from the end.
        let tbs_start = der.len() - tail_len - tbs_len;
        Certificate(Arc::new(Body {
            tbs,
            signature,
            der,
            tbs_der: tbs_start..tbs_start + tbs_len,
            fingerprint: OnceLock::new(),
        }))
    }

    /// The signed fields.
    pub fn tbs(&self) -> &TbsCertificate {
        &self.0.tbs
    }

    /// The signature over [`Certificate::tbs_der`].
    pub fn signature(&self) -> &Signature {
        &self.0.signature
    }

    /// The full certificate DER, encoded when the certificate was built.
    pub fn to_der(&self) -> &[u8] {
        &self.0.der
    }

    /// The TBSCertificate's DER inside [`Certificate::to_der`]: the bytes
    /// the signature was made over, kept rather than re-encoded.
    pub fn tbs_der(&self) -> &[u8] {
        &self.0.der[self.0.tbs_der.clone()]
    }

    /// Parse a certificate from DER. Strict: every SEQUENCE and SET must
    /// end exactly where its last field does, and nothing may follow the
    /// certificate; either violation fails with
    /// [`Asn1Error::TrailingData`].
    pub fn from_der(der: &[u8]) -> Result<Certificate> {
        let mut r = DerReader::new(der);
        let mut outer = r.sequence()?;
        r.finish()?;
        let tbs = TbsCertificate::decode(&mut outer)?;
        let algorithm = decode_sig_alg(&mut outer)?;
        let (_unused, sig_bytes) = outer.bit_string()?;
        outer.finish()?;
        if algorithm != tbs.signature_alg {
            return Err(Asn1Error::BadValue("inner/outer algorithm mismatch"));
        }
        Ok(Certificate::new(
            tbs,
            Signature {
                algorithm,
                bytes: sig_bytes.to_vec(),
            },
        ))
    }

    /// SHA-256 fingerprint of the DER encoding.
    ///
    /// Computed on first use and memoized, shared by every clone.
    pub fn fingerprint(&self) -> Fingerprint {
        *self
            .0
            .fingerprint
            .get_or_init(|| Fingerprint::from_digest(&Sha256::digest(self.to_der())))
    }

    /// Serial number as lowercase hex.
    pub fn serial_hex(&self) -> String {
        hex::encode(&self.0.tbs.serial)
    }

    /// Whether issuer and subject names are identical (self-issued).
    pub fn is_self_issued(&self) -> bool {
        self.0.tbs.issuer == self.0.tbs.subject
    }

    /// Whether the certificate verifies under its *own* public key —
    /// i.e. it is genuinely self-signed, not merely self-issued.
    pub fn is_self_signed(&self) -> bool {
        self.is_self_issued() && self.verify_signature(&self.0.tbs.public_key)
    }

    /// Verify this certificate's signature under the claimed issuer key.
    ///
    /// A real check on every call: it hashes the kept TBS bytes and
    /// recomputes the signature binding; only the encoding is reused.
    pub fn verify_signature(&self, issuer_key: &PublicKey) -> bool {
        govscan_crypto::verify(issuer_key, &self.0.signature, self.tbs_der())
    }

    /// The DNS names this certificate is valid for: subjectAltName entries,
    /// or the subject CN when no SAN extension is present (legacy
    /// behaviour, which the paper's OpenSSL-based pipeline also applied).
    pub fn dns_names(&self) -> Vec<&str> {
        if !self.0.tbs.extensions.subject_alt_names.is_empty() {
            self.0
                .tbs
                .extensions
                .subject_alt_names
                .iter()
                .map(|s| s.as_str())
                .collect()
        } else {
            self.0
                .tbs
                .subject
                .common_name
                .as_deref()
                .into_iter()
                .collect()
        }
    }

    /// Whether any covered name is a wildcard (the §5.3 wildcard analysis).
    pub fn has_wildcard(&self) -> bool {
        self.dns_names().iter().any(|n| n.starts_with("*."))
    }

    /// Whether basicConstraints marks this certificate as a CA.
    pub fn is_ca(&self) -> bool {
        self.0
            .tbs
            .extensions
            .basic_constraints
            .map(|bc| bc.is_ca)
            .unwrap_or(false)
    }

    /// The issuer common name — the label Figures 2, 8 and 11 group by.
    pub fn issuer_label(&self) -> String {
        self.0
            .tbs
            .issuer
            .common_name
            .clone()
            .unwrap_or_else(|| self.0.tbs.issuer.to_oneline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govscan_crypto::KeyPair;

    fn sample_tbs() -> TbsCertificate {
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"leaf");
        TbsCertificate {
            serial: vec![0x01, 0xf4],
            signature_alg: SignatureAlgorithm::Sha256WithRsa,
            issuer: DistinguishedName::ca("R3", "Let's Encrypt", "US"),
            validity: Validity {
                not_before: Time::from_ymd(2020, 2, 1),
                not_after: Time::from_ymd(2020, 5, 1),
            },
            subject: DistinguishedName::cn("www.example.gov"),
            public_key: key.public(),
            extensions: Extensions {
                subject_alt_names: vec!["www.example.gov".into(), "example.gov".into()],
                ..Default::default()
            },
        }
    }

    fn signed(tbs: TbsCertificate) -> Certificate {
        let ca_key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"ca");
        Certificate::sign(tbs, &ca_key).unwrap()
    }

    #[test]
    fn der_round_trip() {
        let cert = signed(sample_tbs());
        let der = cert.to_der();
        let parsed = Certificate::from_der(der).unwrap();
        assert_eq!(parsed, cert);
        // Canonical: re-encoding is byte-identical.
        assert_eq!(parsed.to_der(), der);
    }

    #[test]
    fn signature_survives_round_trip() {
        let ca_key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"ca");
        let cert = signed(sample_tbs());
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert!(parsed.verify_signature(&ca_key.public()));
    }

    #[test]
    fn tampered_der_fails_verification() {
        let ca_key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"ca");
        let cert = signed(sample_tbs());
        let mut edited = cert.tbs().clone();
        edited.subject = DistinguishedName::cn("evil.example.gov");
        let tampered = Certificate::new(edited, cert.signature().clone());
        assert!(!tampered.verify_signature(&ca_key.public()));
    }

    #[test]
    fn ec_key_round_trip() {
        let mut tbs = sample_tbs();
        let key = KeyPair::from_seed(KeyAlgorithm::Ec(384), b"ec-leaf");
        tbs.public_key = key.public();
        tbs.signature_alg = SignatureAlgorithm::EcdsaWithSha384;
        let ca = KeyPair::from_seed(KeyAlgorithm::Ec(384), b"ec-ca");
        let cert = Certificate::sign(tbs, &ca).unwrap();
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(parsed.tbs().public_key.algorithm, KeyAlgorithm::Ec(384));
        assert!(parsed.verify_signature(&ca.public()));
    }

    #[test]
    fn nonstandard_ec_size_round_trips() {
        // 8192-bit RSA and odd EC sizes occur in the paper's long tail.
        let mut tbs = sample_tbs();
        tbs.public_key = KeyPair::from_seed(KeyAlgorithm::Ec(192), b"odd").public();
        tbs.signature_alg = SignatureAlgorithm::EcdsaWithSha256;
        let ca = KeyPair::from_seed(KeyAlgorithm::Ec(256), b"ca");
        let cert = Certificate::sign(tbs, &ca).unwrap();
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(parsed.tbs().public_key.algorithm, KeyAlgorithm::Ec(192));
    }

    #[test]
    fn self_signed_detection() {
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"self");
        let name = DistinguishedName::cn("localhost");
        let tbs = TbsCertificate {
            serial: vec![1],
            signature_alg: SignatureAlgorithm::Sha256WithRsa,
            issuer: name.clone(),
            validity: Validity {
                not_before: Time::from_ymd(2015, 1, 1),
                not_after: Time::from_ymd(2035, 1, 1),
            },
            subject: name,
            public_key: key.public(),
            extensions: Extensions::default(),
        };
        let cert = Certificate::sign(tbs, &key).unwrap();
        assert!(cert.is_self_issued());
        assert!(cert.is_self_signed());

        // Same names but signed by a different key: self-issued only.
        let other = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"other");
        let cert2 = {
            let mut tbs = cert.tbs().clone();
            tbs.serial = vec![2];
            Certificate::sign(tbs, &other).unwrap()
        };
        assert!(cert2.is_self_issued());
        assert!(!cert2.is_self_signed());
    }

    #[test]
    fn dns_names_fallback_to_cn() {
        let mut tbs = sample_tbs();
        tbs.extensions.subject_alt_names.clear();
        let cert = signed(tbs);
        assert_eq!(cert.dns_names(), vec!["www.example.gov"]);
    }

    #[test]
    fn wildcard_detection() {
        let mut tbs = sample_tbs();
        tbs.extensions.subject_alt_names = vec!["*.portal.gov.bd".into()];
        let cert = signed(tbs);
        assert!(cert.has_wildcard());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let cert = signed(sample_tbs());
        let mut der = cert.to_der().to_vec();
        der.push(0);
        assert!(Certificate::from_der(&der).is_err());
    }

    #[test]
    fn rejects_algorithm_mismatch() {
        // Outer signatureAlgorithm differing from the TBS one must fail.
        let cert = signed(sample_tbs());
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.raw(cert.tbs_der());
            // Outer says SHA-1 while TBS says SHA-256.
            w.sequence(|w| {
                w.oid_dotted(SignatureAlgorithm::Sha1WithRsa.oid());
                w.null();
            });
            w.bit_string(&cert.signature().bytes);
        });
        assert!(Certificate::from_der(&w.finish()).is_err());
    }

    #[test]
    fn validity_window_helpers() {
        let v = Validity {
            not_before: Time::from_ymd(2020, 1, 1),
            not_after: Time::from_ymd(2022, 1, 1),
        };
        assert_eq!(v.days(), 731); // 2020 is a leap year
        assert!(v.contains(Time::from_ymd(2021, 6, 1)));
        assert!(!v.contains(Time::from_ymd(2022, 1, 2)));
        assert!(!v.contains(Time::from_ymd(2019, 12, 31)));
    }

    #[test]
    fn issuer_label_prefers_cn() {
        let cert = signed(sample_tbs());
        assert_eq!(cert.issuer_label(), "R3");
    }

    #[test]
    fn kept_tbs_bytes_are_the_signed_encoding() {
        let ca_key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"ca");
        for tbs in [sample_tbs(), full_tbs()] {
            let cert = signed(tbs);
            assert_eq!(cert.tbs_der(), &cert.tbs().to_der()[..]);
            assert!(cert.to_der().ends_with(&cert.signature().bytes));
            assert!(cert.verify_signature(&ca_key.public()));
            // Parsing re-encodes; the kept bytes come out the same.
            let parsed = Certificate::from_der(cert.to_der()).unwrap();
            assert_eq!(parsed.tbs_der(), cert.tbs_der());
        }
    }

    #[test]
    fn clones_share_one_body() {
        let cert = signed(full_tbs());
        let clone = cert.clone();
        assert!(std::ptr::eq(cert.tbs(), clone.tbs()));
        assert!(std::ptr::eq(cert.to_der(), clone.to_der()));
        assert_eq!(clone, cert);
        assert_eq!(clone.fingerprint(), cert.fingerprint());
    }

    #[test]
    fn sign_rejects_an_incompatible_key() {
        let ec = KeyPair::from_seed(KeyAlgorithm::Ec(256), b"ec");
        assert_eq!(
            Certificate::sign(sample_tbs(), &ec).unwrap_err(),
            SignError::IncompatibleKey
        );
    }

    #[test]
    fn static_oids_encode_in_place_like_to_der_content() {
        let curves = [192, 256, 384, 521].into_iter().filter_map(curve_oid);
        let algorithms = SignatureAlgorithm::ALL.into_iter().map(|a| a.oid());
        for dotted in oids::ALL.into_iter().chain(algorithms).chain(curves) {
            let mut w = DerWriter::new();
            w.oid_dotted(dotted);
            let expected = govscan_asn1::Oid::parse(dotted).unwrap().to_der_content();
            let mut reference = DerWriter::new();
            reference.tlv(Tag::OID, &expected);
            assert_eq!(w.finish(), reference.finish(), "{dotted}");
        }
    }

    /// A leaf-shaped TBS carrying every extension the model encodes.
    fn full_tbs() -> TbsCertificate {
        let mut tbs = sample_tbs();
        tbs.extensions = Extensions {
            subject_alt_names: vec!["www.example.gov".into()],
            basic_constraints: Some(crate::extensions::BasicConstraints {
                is_ca: true,
                path_len: Some(0),
            }),
            key_usage: Some(crate::extensions::KeyUsage {
                digital_signature: true,
                ..Default::default()
            }),
            policies: vec![oids::oid(oids::POLICY_DV)],
            subject_key_id: Some(vec![1; 20]),
            authority_key_id: Some(vec![2; 20]),
        };
        tbs
    }

    /// `der` (one TLV) re-encoded with a NULL appended to the content of
    /// the element `path` leads to. Each step picks a child TLV; inside a
    /// BIT STRING or OCTET STRING it picks from the DER the string wraps.
    fn with_trailing_null(der: &[u8], path: &[usize]) -> Vec<u8> {
        let (tag, content) = DerReader::new(der).read_tlv().unwrap();
        // A BIT STRING's first content octet counts its unused bits.
        let (prefix, inner) = content.split_at(usize::from(tag == Tag::BIT_STRING));
        let mut body = prefix.to_vec();
        match path.split_first() {
            None => {
                body.extend_from_slice(inner);
                body.extend_from_slice(&[0x05, 0x00]);
            }
            Some((&child, rest)) => {
                let mut r = DerReader::new(inner);
                let mut i = 0;
                while !r.is_empty() {
                    let raw = r.read_raw_tlv().unwrap();
                    if i == child {
                        body.extend(with_trailing_null(raw, rest));
                    } else {
                        body.extend_from_slice(raw);
                    }
                    i += 1;
                }
                assert!(child < i, "no child {child} in {path:?}");
            }
        }
        let mut w = DerWriter::new();
        w.tlv(tag, &body);
        w.finish()
    }

    #[test]
    fn from_der_rejects_trailing_content_in_every_structure() {
        let cert = signed(full_tbs());
        let der = cert.to_der();
        assert_eq!(Certificate::from_der(der).unwrap(), cert);
        // Paths from the Certificate SEQUENCE. Extensions come in encoding
        // order (SAN, basicConstraints, keyUsage, policies, SKI, AKI);
        // critical ones carry the BOOLEAN before their value.
        let cases: &[(&str, &[usize])] = &[
            ("Certificate", &[]),
            ("TBSCertificate", &[0]),
            ("version", &[0, 0]),
            ("TBS signature AlgorithmIdentifier", &[0, 2]),
            ("issuer RDN", &[0, 3, 2]),
            ("issuer AttributeTypeAndValue", &[0, 3, 2, 0]),
            ("Validity", &[0, 4]),
            ("subject RDN", &[0, 5, 0]),
            ("subject AttributeTypeAndValue", &[0, 5, 0, 0]),
            ("SubjectPublicKeyInfo", &[0, 6]),
            ("SPKI AlgorithmIdentifier", &[0, 6, 0]),
            ("SPKI key BIT STRING", &[0, 6, 1]),
            ("SPKI key SEQUENCE", &[0, 6, 1, 0]),
            ("extensions [3]", &[0, 7]),
            ("subjectAltName Extension", &[0, 7, 0, 0]),
            ("subjectAltName value", &[0, 7, 0, 0, 1]),
            ("basicConstraints Extension", &[0, 7, 0, 1]),
            ("basicConstraints value", &[0, 7, 0, 1, 2]),
            ("BasicConstraints SEQUENCE", &[0, 7, 0, 1, 2, 0]),
            ("keyUsage Extension", &[0, 7, 0, 2]),
            ("keyUsage value", &[0, 7, 0, 2, 2]),
            ("certificatePolicies Extension", &[0, 7, 0, 3]),
            ("certificatePolicies value", &[0, 7, 0, 3, 1]),
            ("PolicyInformation", &[0, 7, 0, 3, 1, 0, 0]),
            ("subjectKeyIdentifier Extension", &[0, 7, 0, 4]),
            ("subjectKeyIdentifier value", &[0, 7, 0, 4, 1]),
            ("authorityKeyIdentifier Extension", &[0, 7, 0, 5]),
            ("authorityKeyIdentifier value", &[0, 7, 0, 5, 1]),
            ("AuthorityKeyIdentifier SEQUENCE", &[0, 7, 0, 5, 1, 0]),
            ("signatureAlgorithm", &[1]),
        ];
        for (structure, path) in cases {
            let tampered = with_trailing_null(der, path);
            assert_eq!(tampered.len(), der.len() + 2, "{structure}");
            assert_eq!(
                Certificate::from_der(&tampered).unwrap_err(),
                Asn1Error::TrailingData,
                "{structure}"
            );
        }
    }
}
