//! X.501 distinguished names (the `issuer` and `subject` fields).

use govscan_asn1::{Asn1Error, DerReader, DerWriter, Result};

use crate::oids;

/// A distinguished name with the attribute set the study's certificates
/// actually carry. Encoded as the usual `SEQUENCE OF SET OF
/// AttributeTypeAndValue` (one attribute per RDN, in the order below).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct DistinguishedName {
    /// C — ISO 3166 alpha-2 country code.
    pub country: Option<String>,
    /// O — organization.
    pub organization: Option<String>,
    /// OU — organizational unit.
    pub org_unit: Option<String>,
    /// L — locality.
    pub locality: Option<String>,
    /// CN — common name (the issuer name the paper's Figures 2/8/11 group by).
    pub common_name: Option<String>,
}

impl DistinguishedName {
    /// A name with only a common name — the typical leaf subject.
    pub fn cn(common_name: impl Into<String>) -> Self {
        DistinguishedName {
            common_name: Some(common_name.into()),
            ..Default::default()
        }
    }

    /// A CA-style name: common name plus organization and country.
    pub fn ca(
        common_name: impl Into<String>,
        org: impl Into<String>,
        country: impl Into<String>,
    ) -> Self {
        DistinguishedName {
            common_name: Some(common_name.into()),
            organization: Some(org.into()),
            country: Some(country.into()),
            ..Default::default()
        }
    }

    /// The set attributes as `(OID, value)`, in encoding order.
    fn attributes(&self) -> impl Iterator<Item = (&'static str, &str)> {
        [
            (oids::AT_COUNTRY, &self.country),
            (oids::AT_ORGANIZATION, &self.organization),
            (oids::AT_ORG_UNIT, &self.org_unit),
            (oids::AT_LOCALITY, &self.locality),
            (oids::AT_COMMON_NAME, &self.common_name),
        ]
        .into_iter()
        .filter_map(|(oid, value)| Some((oid, value.as_deref()?)))
    }

    /// Encode into `w` as an RDNSequence.
    pub fn encode(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            for (oid, value) in self.attributes() {
                w.set(|w| {
                    w.sequence(|w| {
                        w.oid_dotted(oid);
                        w.utf8(value);
                    });
                });
            }
        });
    }

    /// Decode an RDNSequence.
    pub fn decode(r: &mut DerReader<'_>) -> Result<Self> {
        let mut rdns = r.sequence()?;
        let mut name = DistinguishedName::default();
        while !rdns.is_empty() {
            let mut set = rdns.set()?;
            let mut atv = set.sequence()?;
            set.finish()?;
            let oid = atv.oid()?;
            let value = atv.any_string()?.to_string();
            atv.finish()?;
            match oid.to_string().as_str() {
                oids::AT_COUNTRY => name.country = Some(value),
                oids::AT_ORGANIZATION => name.organization = Some(value),
                oids::AT_ORG_UNIT => name.org_unit = Some(value),
                oids::AT_LOCALITY => name.locality = Some(value),
                oids::AT_COMMON_NAME => name.common_name = Some(value),
                _ => return Err(Asn1Error::BadValue("unknown name attribute")),
            }
        }
        Ok(name)
    }

    /// A single-line rendering, `C=.., O=.., CN=..` (stable; the issuer
    /// label when a name has no CN).
    pub fn to_oneline(&self) -> String {
        let mut parts = Vec::new();
        if let Some(v) = &self.country {
            parts.push(format!("C={v}"));
        }
        if let Some(v) = &self.organization {
            parts.push(format!("O={v}"));
        }
        if let Some(v) = &self.org_unit {
            parts.push(format!("OU={v}"));
        }
        if let Some(v) = &self.locality {
            parts.push(format!("L={v}"));
        }
        if let Some(v) = &self.common_name {
            parts.push(format!("CN={v}"));
        }
        parts.join(", ")
    }
}

impl std::fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_oneline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_full_name() {
        let name = DistinguishedName {
            country: Some("US".into()),
            organization: Some("Let's Encrypt".into()),
            org_unit: None,
            locality: Some("San Francisco".into()),
            common_name: Some("R3".into()),
        };
        let mut w = DerWriter::new();
        name.encode(&mut w);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert_eq!(DistinguishedName::decode(&mut r).unwrap(), name);
    }

    #[test]
    fn round_trip_cn_only() {
        let name = DistinguishedName::cn("www.example.gov.bd");
        let mut w = DerWriter::new();
        name.encode(&mut w);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert_eq!(DistinguishedName::decode(&mut r).unwrap(), name);
    }

    #[test]
    fn round_trip_empty_name() {
        // Certificates with an empty subject (SAN-only) are legal.
        let name = DistinguishedName::default();
        let mut w = DerWriter::new();
        name.encode(&mut w);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert_eq!(DistinguishedName::decode(&mut r).unwrap(), name);
    }

    #[test]
    fn oneline_format_is_stable() {
        let name = DistinguishedName::ca("GTS CA 1C3", "Google Trust Services", "US");
        assert_eq!(
            name.to_oneline(),
            "C=US, O=Google Trust Services, CN=GTS CA 1C3"
        );
        assert_eq!(format!("{name}"), name.to_oneline());
    }

    #[test]
    fn utf8_values_survive() {
        let name = DistinguishedName::cn("한국정보인증");
        let mut w = DerWriter::new();
        name.encode(&mut w);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert_eq!(
            DistinguishedName::decode(&mut r)
                .unwrap()
                .common_name
                .unwrap(),
            "한국정보인증"
        );
    }
}
