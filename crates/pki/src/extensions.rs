//! X.509 v3 extensions: typed models plus their DER encodings.

use govscan_asn1::{Asn1Error, DerReader, DerWriter, Oid, Result, Tag};

use crate::oids;

/// The basicConstraints extension.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BasicConstraints {
    /// Whether the subject may act as a CA.
    pub is_ca: bool,
    /// Maximum number of intermediate certificates below this one.
    pub path_len: Option<u8>,
}

/// The keyUsage extension, reduced to the bits the study cares about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyUsage {
    /// digitalSignature (bit 0)
    pub digital_signature: bool,
    /// keyEncipherment (bit 2)
    pub key_encipherment: bool,
    /// keyCertSign (bit 5)
    pub key_cert_sign: bool,
    /// cRLSign (bit 6)
    pub crl_sign: bool,
}

/// The typed extension set carried by our certificates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Extensions {
    /// subjectAltName dNSNames. Hostname validation matches against these
    /// (and falls back to subject CN when absent, as legacy clients do).
    pub subject_alt_names: Vec<String>,
    /// basicConstraints; absent on many legacy leaves.
    pub basic_constraints: Option<BasicConstraints>,
    /// keyUsage bits.
    pub key_usage: Option<KeyUsage>,
    /// certificatePolicies policy OIDs (EV detection reads these).
    pub policies: Vec<Oid>,
    /// subjectKeyIdentifier bytes.
    pub subject_key_id: Option<Vec<u8>>,
    /// authorityKeyIdentifier key-id bytes.
    pub authority_key_id: Option<Vec<u8>>,
}

impl Extensions {
    /// True if there is nothing to encode (the v1-style certificates the
    /// generator emits for ancient self-signed devices).
    pub fn is_empty(&self) -> bool {
        self.subject_alt_names.is_empty()
            && self.basic_constraints.is_none()
            && self.key_usage.is_none()
            && self.policies.is_empty()
            && self.subject_key_id.is_none()
            && self.authority_key_id.is_none()
    }

    /// Encode as the `Extensions ::= SEQUENCE OF Extension` body (the
    /// caller wraps it in the `[3]` context tag).
    pub fn encode(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            if !self.subject_alt_names.is_empty() {
                encode_ext(w, oids::CE_SUBJECT_ALT_NAME, false, |w| {
                    w.sequence(|w| {
                        for name in &self.subject_alt_names {
                            // GeneralName dNSName is [2] IMPLICIT IA5String.
                            w.context_primitive(2, name.as_bytes());
                        }
                    });
                });
            }
            if let Some(bc) = &self.basic_constraints {
                // basicConstraints is critical on CA certificates.
                encode_ext(w, oids::CE_BASIC_CONSTRAINTS, bc.is_ca, |w| {
                    w.sequence(|w| {
                        if bc.is_ca {
                            w.boolean(true);
                        }
                        if let Some(len) = bc.path_len {
                            w.integer_i64(len as i64);
                        }
                    });
                });
            }
            if let Some(ku) = &self.key_usage {
                encode_ext(w, oids::CE_KEY_USAGE, true, |w| {
                    w.bit_string_named(&[
                        ku.digital_signature,
                        false,
                        ku.key_encipherment,
                        false,
                        false,
                        ku.key_cert_sign,
                        ku.crl_sign,
                    ]);
                });
            }
            if !self.policies.is_empty() {
                encode_ext(w, oids::CE_CERT_POLICIES, false, |w| {
                    w.sequence(|w| {
                        for policy in &self.policies {
                            w.sequence(|w| w.oid(policy));
                        }
                    });
                });
            }
            if let Some(ski) = &self.subject_key_id {
                encode_ext(w, oids::CE_SUBJECT_KEY_ID, false, |w| {
                    w.octet_string(ski);
                });
            }
            if let Some(aki) = &self.authority_key_id {
                encode_ext(w, oids::CE_AUTHORITY_KEY_ID, false, |w| {
                    w.sequence(|w| {
                        // keyIdentifier [0] IMPLICIT OCTET STRING.
                        w.context_primitive(0, aki);
                    });
                });
            }
        });
    }

    /// Decode the `SEQUENCE OF Extension` body.
    pub fn decode(r: &mut DerReader<'_>) -> Result<Self> {
        let mut exts = Extensions::default();
        let mut seq = r.sequence()?;
        while !seq.is_empty() {
            let mut ext = seq.sequence()?;
            let oid = ext.oid()?.to_string();
            // critical flag DEFAULT FALSE.
            let _critical = if ext.peek_tag() == Some(Tag::BOOLEAN) {
                ext.boolean()?
            } else {
                false
            };
            let value = ext.octet_string()?;
            ext.finish()?;
            let mut vr = DerReader::new(value);
            match oid.as_str() {
                oids::CE_SUBJECT_ALT_NAME => {
                    let mut names = vr.sequence()?;
                    while !names.is_empty() {
                        let (tag, content) = names.read_tlv()?;
                        // Only dNSName [2] occurs in our ecosystem.
                        if tag != Tag::context_primitive(2) {
                            return Err(Asn1Error::BadValue("unsupported GeneralName"));
                        }
                        let s = std::str::from_utf8(content)
                            .map_err(|_| Asn1Error::BadValue("non-ascii dNSName"))?;
                        exts.subject_alt_names.push(s.to_string());
                    }
                }
                oids::CE_BASIC_CONSTRAINTS => {
                    let mut bc = vr.sequence()?;
                    let is_ca = if bc.peek_tag() == Some(Tag::BOOLEAN) {
                        bc.boolean()?
                    } else {
                        false
                    };
                    let path_len = if bc.peek_tag() == Some(Tag::INTEGER) {
                        Some(bc.integer_i64()? as u8)
                    } else {
                        None
                    };
                    bc.finish()?;
                    exts.basic_constraints = Some(BasicConstraints { is_ca, path_len });
                }
                oids::CE_KEY_USAGE => {
                    let (_unused, bits) = vr.bit_string()?;
                    let bit = |i: usize| -> bool {
                        bits.get(i / 8).is_some_and(|b| b & (0x80 >> (i % 8)) != 0)
                    };
                    exts.key_usage = Some(KeyUsage {
                        digital_signature: bit(0),
                        key_encipherment: bit(2),
                        key_cert_sign: bit(5),
                        crl_sign: bit(6),
                    });
                }
                oids::CE_CERT_POLICIES => {
                    let mut policies = vr.sequence()?;
                    while !policies.is_empty() {
                        let mut info = policies.sequence()?;
                        exts.policies.push(info.oid()?);
                        // policyQualifiers, if present, are skipped.
                        if info.peek_tag() == Some(Tag::SEQUENCE) {
                            info.sequence()?;
                        }
                        info.finish()?;
                    }
                }
                oids::CE_SUBJECT_KEY_ID => {
                    exts.subject_key_id = Some(vr.octet_string()?.to_vec());
                }
                oids::CE_AUTHORITY_KEY_ID => {
                    let mut aki = vr.sequence()?;
                    if let Some(kid) = aki.optional(Tag::context_primitive(0))? {
                        exts.authority_key_id = Some(kid.to_vec());
                    }
                    aki.finish()?;
                }
                _ => return Err(Asn1Error::BadValue("unknown extension")),
            }
            vr.finish()?;
        }
        Ok(exts)
    }
}

fn encode_ext(
    w: &mut DerWriter,
    oid_str: &str,
    critical: bool,
    value: impl FnOnce(&mut DerWriter),
) {
    w.sequence(|w| {
        w.oid_dotted(oid_str);
        if critical {
            w.boolean(true);
        }
        w.octet_string_with(value);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(exts: &Extensions) -> Extensions {
        let mut w = DerWriter::new();
        exts.encode(&mut w);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        Extensions::decode(&mut r).unwrap()
    }

    #[test]
    fn san_round_trips() {
        let exts = Extensions {
            subject_alt_names: vec!["*.portal.gov.bd".into(), "portal.gov.bd".into()],
            ..Default::default()
        };
        assert_eq!(round_trip(&exts), exts);
    }

    #[test]
    fn ca_extensions_round_trip() {
        let exts = Extensions {
            basic_constraints: Some(BasicConstraints {
                is_ca: true,
                path_len: Some(0),
            }),
            key_usage: Some(KeyUsage {
                key_cert_sign: true,
                crl_sign: true,
                ..Default::default()
            }),
            subject_key_id: Some(vec![1, 2, 3, 4]),
            ..Default::default()
        };
        assert_eq!(round_trip(&exts), exts);
    }

    #[test]
    fn leaf_extensions_round_trip() {
        let exts = Extensions {
            subject_alt_names: vec!["www.nih.gov".into()],
            basic_constraints: Some(BasicConstraints::default()),
            key_usage: Some(KeyUsage {
                digital_signature: true,
                key_encipherment: true,
                ..Default::default()
            }),
            policies: vec![
                Oid::parse(oids::POLICY_DV).unwrap(),
                Oid::parse("2.16.840.1.114412.2.1").unwrap(), // DigiCert EV
            ],
            subject_key_id: Some(vec![9; 20]),
            authority_key_id: Some(vec![7; 20]),
        };
        assert_eq!(round_trip(&exts), exts);
    }

    #[test]
    fn empty_extensions() {
        let exts = Extensions::default();
        assert!(exts.is_empty());
        assert_eq!(round_trip(&exts), exts);
    }

    #[test]
    fn key_usage_bits_map_correctly() {
        // keyCertSign only → named-bit string 0x04 with 2 unused bits.
        let exts = Extensions {
            key_usage: Some(KeyUsage {
                key_cert_sign: true,
                ..Default::default()
            }),
            ..Default::default()
        };
        let got = round_trip(&exts);
        let ku = got.key_usage.unwrap();
        assert!(ku.key_cert_sign);
        assert!(!ku.digital_signature && !ku.key_encipherment && !ku.crl_sign);
    }
}
