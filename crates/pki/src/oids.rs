//! Well-known object identifiers used by the X.509 encoder/decoder.

use govscan_asn1::Oid;

/// id-at-commonName (2.5.4.3)
pub const AT_COMMON_NAME: &str = "2.5.4.3";
/// id-at-countryName (2.5.4.6)
pub const AT_COUNTRY: &str = "2.5.4.6";
/// id-at-localityName (2.5.4.7)
pub const AT_LOCALITY: &str = "2.5.4.7";
/// id-at-organizationName (2.5.4.10)
pub const AT_ORGANIZATION: &str = "2.5.4.10";
/// id-at-organizationalUnitName (2.5.4.11)
pub const AT_ORG_UNIT: &str = "2.5.4.11";

/// id-ce-subjectKeyIdentifier (2.5.29.14)
pub const CE_SUBJECT_KEY_ID: &str = "2.5.29.14";
/// id-ce-keyUsage (2.5.29.15)
pub const CE_KEY_USAGE: &str = "2.5.29.15";
/// id-ce-subjectAltName (2.5.29.17)
pub const CE_SUBJECT_ALT_NAME: &str = "2.5.29.17";
/// id-ce-basicConstraints (2.5.29.19)
pub const CE_BASIC_CONSTRAINTS: &str = "2.5.29.19";
/// id-ce-certificatePolicies (2.5.29.32)
pub const CE_CERT_POLICIES: &str = "2.5.29.32";
/// id-ce-authorityKeyIdentifier (2.5.29.35)
pub const CE_AUTHORITY_KEY_ID: &str = "2.5.29.35";

/// rsaEncryption SPKI algorithm (1.2.840.113549.1.1.1)
pub const ALG_RSA: &str = "1.2.840.113549.1.1.1";
/// id-ecPublicKey SPKI algorithm (1.2.840.10045.2.1)
pub const ALG_EC: &str = "1.2.840.10045.2.1";

/// CA/Browser Forum baseline DV policy (2.23.140.1.2.1)
pub const POLICY_DV: &str = "2.23.140.1.2.1";
/// CA/Browser Forum OV policy (2.23.140.1.2.2)
pub const POLICY_OV: &str = "2.23.140.1.2.2";
/// CA/Browser Forum EV policy umbrella (2.23.140.1.1)
pub const POLICY_EV_CABF: &str = "2.23.140.1.1";

/// Parse one of the constants above (or any dotted OID string).
///
/// Panics on malformed input — reserved for the static strings in this
/// module, which are covered by tests.
pub fn oid(s: &str) -> Oid {
    Oid::parse(s).expect("static OID must parse")
}

/// Every constant above, for the tests that cover them all.
#[cfg(test)]
pub(crate) const ALL: [&str; 16] = [
    AT_COMMON_NAME,
    AT_COUNTRY,
    AT_LOCALITY,
    AT_ORGANIZATION,
    AT_ORG_UNIT,
    CE_SUBJECT_KEY_ID,
    CE_KEY_USAGE,
    CE_SUBJECT_ALT_NAME,
    CE_BASIC_CONSTRAINTS,
    CE_CERT_POLICIES,
    CE_AUTHORITY_KEY_ID,
    ALG_RSA,
    ALG_EC,
    POLICY_DV,
    POLICY_OV,
    POLICY_EV_CABF,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_constants_parse() {
        for s in ALL {
            assert_eq!(oid(s).to_string(), s);
        }
    }
}
