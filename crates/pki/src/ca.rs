//! Certificate authorities and their issuance policies.

use govscan_asn1::{Oid, Time};
use govscan_crypto::{Digest, KeyPair, PublicKey, Sha1, SignatureAlgorithm};

use crate::cert::{Certificate, TbsCertificate, Validity};
use crate::extensions::{BasicConstraints, Extensions, KeyUsage};
use crate::name::DistinguishedName;

/// Knobs governing how a CA issues certificates.
#[derive(Debug, Clone)]
pub struct IssuancePolicy {
    /// Signature algorithm the CA signs with.
    pub signature_alg: SignatureAlgorithm,
    /// Default leaf validity in days when the profile does not override
    /// (CA/B forum limits moved 825 → 398 days over the study period;
    /// misbehaving CAs in the long tail ignore both).
    pub default_validity_days: i64,
}

impl Default for IssuancePolicy {
    fn default() -> Self {
        IssuancePolicy {
            signature_alg: SignatureAlgorithm::Sha256WithRsa,
            default_validity_days: 398,
        }
    }
}

/// What a leaf certificate should contain.
#[derive(Debug, Clone)]
pub struct LeafProfile {
    /// Subject common name.
    pub subject_cn: String,
    /// subjectAltName dNSNames (empty = legacy CN-only certificate).
    pub san: Vec<String>,
    /// Subject public key.
    pub public_key: PublicKey,
    /// Start of validity.
    pub not_before: Time,
    /// Validity in days; `None` uses the CA policy default.
    pub validity_days: Option<i64>,
    /// Serial override — used to inject the paper's serial-reuse
    /// pathology; `None` draws from the CA's counter.
    pub serial: Option<Vec<u8>>,
    /// certificatePolicies OIDs (DV/OV/EV markers).
    pub policies: Vec<Oid>,
}

impl LeafProfile {
    /// A standard DV-shaped profile for `host`.
    pub fn dv(host: impl Into<String>, public_key: PublicKey, not_before: Time) -> Self {
        let host = host.into();
        LeafProfile {
            subject_cn: host.clone(),
            san: vec![host],
            public_key,
            not_before,
            validity_days: None,
            serial: None,
            policies: vec![crate::oids::oid(crate::oids::POLICY_DV)],
        }
    }
}

/// A certificate authority (root or intermediate) able to issue
/// certificates under its [`IssuancePolicy`].
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    /// The CA's distinguished name.
    pub name: DistinguishedName,
    /// The CA key pair.
    pub key: KeyPair,
    /// Issuance policy.
    pub policy: IssuancePolicy,
    /// The CA's own certificate (self-signed for roots).
    pub cert: Certificate,
    /// EV policy OID this CA asserts on EV issuances, if it offers EV.
    pub ev_policy: Option<Oid>,
    next_serial: u64,
}

/// Subject key identifier: SHA-1 of the public key bytes, as real CAs do.
fn ski(key: &PublicKey) -> Vec<u8> {
    Sha1::digest(&key.bytes)
}

impl CertificateAuthority {
    /// Create a self-signed root CA valid over `validity`.
    pub fn new_root(
        name: DistinguishedName,
        key: KeyPair,
        policy: IssuancePolicy,
        validity: Validity,
    ) -> Self {
        let tbs = TbsCertificate {
            serial: vec![1],
            signature_alg: policy.signature_alg,
            issuer: name.clone(),
            validity,
            subject: name.clone(),
            public_key: key.public(),
            extensions: Extensions {
                basic_constraints: Some(BasicConstraints {
                    is_ca: true,
                    path_len: None,
                }),
                key_usage: Some(KeyUsage {
                    key_cert_sign: true,
                    crl_sign: true,
                    ..Default::default()
                }),
                subject_key_id: Some(ski(&key.public())),
                ..Default::default()
            },
        };
        let cert = Certificate::sign(tbs, &key).expect("root key compatible with its own policy");
        CertificateAuthority {
            name,
            key,
            policy,
            cert,
            ev_policy: None,
            next_serial: 2,
        }
    }

    /// Create an intermediate CA signed by `parent`.
    pub fn new_intermediate(
        parent: &mut CertificateAuthority,
        name: DistinguishedName,
        key: KeyPair,
        policy: IssuancePolicy,
        validity: Validity,
    ) -> Self {
        let tbs = TbsCertificate {
            serial: parent.draw_serial(),
            signature_alg: parent.policy.signature_alg,
            issuer: parent.name.clone(),
            validity,
            subject: name.clone(),
            public_key: key.public(),
            extensions: Extensions {
                basic_constraints: Some(BasicConstraints {
                    is_ca: true,
                    path_len: Some(0),
                }),
                key_usage: Some(KeyUsage {
                    key_cert_sign: true,
                    crl_sign: true,
                    ..Default::default()
                }),
                subject_key_id: Some(ski(&key.public())),
                authority_key_id: parent.cert.tbs().extensions.subject_key_id.clone(),
                ..Default::default()
            },
        };
        let cert =
            Certificate::sign(tbs, &parent.key).expect("parent key compatible with parent policy");
        CertificateAuthority {
            name,
            key,
            policy,
            cert,
            ev_policy: None,
            next_serial: 1,
        }
    }

    fn draw_serial(&mut self) -> Vec<u8> {
        let serial = self.next_serial;
        self.next_serial += 1;
        // Canonical (no leading zeros) so the in-memory form matches a
        // DER round trip exactly.
        let bytes = serial.to_be_bytes();
        let start = bytes.iter().position(|&b| b != 0).unwrap_or(7);
        bytes[start..].to_vec()
    }

    /// Issue a leaf certificate for `profile`.
    pub fn issue(&mut self, profile: &LeafProfile) -> Certificate {
        let serial = profile.serial.clone().unwrap_or_else(|| self.draw_serial());
        self.issue_with_serial(serial, profile)
    }

    /// Issue a leaf with a serial derived from the leaf contents instead
    /// of the CA's counter, leaving the CA untouched (`&self`).
    ///
    /// Two profiles differing in any subject/SAN/key/validity byte get
    /// different serials with overwhelming probability, and the same
    /// profile always gets the same serial — which is what lets world
    /// generation issue from many threads in any order and still produce
    /// bit-identical certificates. The profile's `serial` override still
    /// wins (the §5.3.3 serial-reuse pathology).
    pub fn issue_deterministic(&self, profile: &LeafProfile) -> Certificate {
        let serial = profile
            .serial
            .clone()
            .unwrap_or_else(|| self.content_serial(profile));
        self.issue_with_serial(serial, profile)
    }

    /// Serial for [`Self::issue_deterministic`]: 8 bytes of a SHA-1 over
    /// the issuing CA identity and the leaf contents, first byte forced
    /// non-zero so the encoding stays canonical.
    fn content_serial(&self, profile: &LeafProfile) -> Vec<u8> {
        let mut h = Sha1::new();
        h.update(b"govscan-serial-v1");
        h.update(&self.cert.fingerprint().0);
        h.update(profile.subject_cn.as_bytes());
        for san in &profile.san {
            h.update(&[0xff]);
            h.update(san.as_bytes());
        }
        h.update(&[0xff]);
        h.update(&profile.public_key.bytes);
        h.update(&profile.not_before.0.to_le_bytes());
        h.update(
            &profile
                .validity_days
                .unwrap_or(self.policy.default_validity_days)
                .to_le_bytes(),
        );
        let digest = h.finalize();
        let mut serial = digest[..8].to_vec();
        if serial[0] == 0 {
            serial[0] = 0x01;
        }
        serial
    }

    fn issue_with_serial(&self, serial: Vec<u8>, profile: &LeafProfile) -> Certificate {
        let days = profile
            .validity_days
            .unwrap_or(self.policy.default_validity_days);
        let tbs = TbsCertificate {
            serial,
            signature_alg: self.policy.signature_alg,
            issuer: self.name.clone(),
            validity: Validity {
                not_before: profile.not_before,
                not_after: profile.not_before.plus_days(days),
            },
            subject: DistinguishedName::cn(profile.subject_cn.clone()),
            public_key: profile.public_key.clone(),
            extensions: Extensions {
                subject_alt_names: profile.san.clone(),
                basic_constraints: Some(BasicConstraints::default()),
                key_usage: Some(KeyUsage {
                    digital_signature: true,
                    key_encipherment: true,
                    ..Default::default()
                }),
                policies: profile.policies.clone(),
                subject_key_id: Some(ski(&profile.public_key)),
                authority_key_id: self.cert.tbs().extensions.subject_key_id.clone(),
            },
        };
        Certificate::sign(tbs, &self.key).expect("CA key compatible with policy")
    }
}

/// §8.1's recommendation, implemented: a registry of public keys a CA
/// has already certified, consulted before issuance. A key may be
/// re-certified only for the same hostname or a related one (a
/// sub-domain or super-domain) — re-use across unrelated hosts, the
/// §5.3.3 pathology, is refused.
#[derive(Debug, Clone, Default)]
pub struct KeyDirectory {
    seen: std::collections::HashMap<govscan_crypto::Fingerprint, Vec<String>>,
}

/// Why [`CertificateAuthority::issue_checked`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyReuseRefused {
    /// The hostname already bound to the key.
    pub existing: String,
    /// The hostname requested.
    pub requested: String,
}

impl std::fmt::Display for KeyReuseRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "public key already certified for unrelated host {} (requested {})",
            self.existing, self.requested
        )
    }
}

impl std::error::Error for KeyReuseRefused {}

/// Are two hostnames related for re-issuance purposes (equal, or one a
/// label-aligned sub-domain of the other, wildcards stripped)?
fn related(a: &str, b: &str) -> bool {
    let a = a.trim_start_matches("*.").to_ascii_lowercase();
    let b = b.trim_start_matches("*.").to_ascii_lowercase();
    a == b || a.ends_with(&format!(".{b}")) || b.ends_with(&format!(".{a}"))
}

impl KeyDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Would issuing for `(key, hostname)` violate the policy? Returns
    /// the conflicting hostname if so.
    pub fn conflict(&self, key: &PublicKey, hostname: &str) -> Option<&str> {
        self.seen
            .get(&key.fingerprint())?
            .iter()
            .find(|existing| !related(existing, hostname))
            .map(|s| s.as_str())
    }

    /// Record an issuance.
    pub fn record(&mut self, key: &PublicKey, hostname: &str) {
        self.seen
            .entry(key.fingerprint())
            .or_default()
            .push(hostname.to_string());
    }

    /// Number of distinct keys tracked.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }
}

impl CertificateAuthority {
    /// Issue with the §8.1 key-reuse check: refuse when the profile's
    /// public key is already certified for an unrelated hostname.
    pub fn issue_checked(
        &mut self,
        profile: &LeafProfile,
        directory: &mut KeyDirectory,
    ) -> Result<Certificate, KeyReuseRefused> {
        if let Some(existing) = directory.conflict(&profile.public_key, &profile.subject_cn) {
            return Err(KeyReuseRefused {
                existing: existing.to_string(),
                requested: profile.subject_cn.clone(),
            });
        }
        directory.record(&profile.public_key, &profile.subject_cn);
        Ok(self.issue(profile))
    }
}

/// Build a standalone self-signed certificate (the `localhost` and
/// appliance-default certificates the paper finds reused across dozens of
/// governments).
pub fn self_signed(
    subject_cn: &str,
    san: Vec<String>,
    key: &KeyPair,
    signature_alg: SignatureAlgorithm,
    validity: Validity,
) -> Certificate {
    let name = DistinguishedName::cn(subject_cn);
    let tbs = TbsCertificate {
        serial: vec![0x42],
        signature_alg,
        issuer: name.clone(),
        validity,
        subject: name,
        public_key: key.public(),
        extensions: Extensions {
            subject_alt_names: san,
            ..Default::default()
        },
    };
    Certificate::sign(tbs, key).expect("compatible key")
}

#[cfg(test)]
mod tests {
    use super::*;
    use govscan_crypto::KeyAlgorithm;

    fn test_validity() -> Validity {
        Validity {
            not_before: Time::from_ymd(2015, 1, 1),
            not_after: Time::from_ymd(2035, 1, 1),
        }
    }

    fn root() -> CertificateAuthority {
        CertificateAuthority::new_root(
            DistinguishedName::ca("Test Root", "Test Trust Services", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(4096), b"root"),
            IssuancePolicy::default(),
            test_validity(),
        )
    }

    #[test]
    fn root_is_self_signed_ca() {
        let ca = root();
        assert!(ca.cert.is_self_signed());
        assert!(ca.cert.is_ca());
        assert!(ca.cert.verify_signature(&ca.key.public()));
    }

    #[test]
    fn intermediate_chains_to_root() {
        let mut r = root();
        let inter = CertificateAuthority::new_intermediate(
            &mut r,
            DistinguishedName::ca("Test Issuing CA 1", "Test Trust Services", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"inter"),
            IssuancePolicy::default(),
            test_validity(),
        );
        assert!(inter.cert.verify_signature(&r.key.public()));
        assert!(inter.cert.is_ca());
        assert!(!inter.cert.is_self_signed());
        assert_eq!(
            inter.cert.tbs().extensions.authority_key_id,
            r.cert.tbs().extensions.subject_key_id
        );
    }

    #[test]
    fn issued_leaf_verifies_and_names_match() {
        let mut ca = root();
        let leaf_key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"leaf");
        let cert = ca.issue(&LeafProfile::dv(
            "www.example.gov",
            leaf_key.public(),
            Time::from_ymd(2020, 1, 1),
        ));
        assert!(cert.verify_signature(&ca.key.public()));
        assert!(!cert.is_ca());
        assert_eq!(cert.dns_names(), vec!["www.example.gov"]);
        assert_eq!(cert.tbs().validity.days(), 398);
    }

    #[test]
    fn serials_are_unique_by_default() {
        let mut ca = root();
        let k = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"k");
        let t = Time::from_ymd(2020, 1, 1);
        let a = ca.issue(&LeafProfile::dv("a.gov", k.public(), t));
        let b = ca.issue(&LeafProfile::dv("b.gov", k.public(), t));
        assert_ne!(a.tbs().serial, b.tbs().serial);
    }

    #[test]
    fn deterministic_issue_is_stable_and_collision_free() {
        let mut ca = root();
        let k = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"k");
        let t = Time::from_ymd(2020, 1, 1);
        let p_a = LeafProfile::dv("a.gov", k.public(), t);
        let p_b = LeafProfile::dv("b.gov", k.public(), t);
        // Same profile, any order or repetition → identical certificate.
        let a1 = ca.issue_deterministic(&p_a);
        let b = ca.issue_deterministic(&p_b);
        let a2 = ca.issue_deterministic(&p_a);
        assert_eq!(a1.to_der(), a2.to_der());
        assert_ne!(a1.tbs().serial, b.tbs().serial);
        assert!(a1.verify_signature(&ca.key.public()));
        // The serial override (reuse pathology) still wins.
        let mut p_o = LeafProfile::dv("a.gov", k.public(), t);
        p_o.serial = Some(vec![0xca, 0xfe]);
        assert_eq!(ca.issue_deterministic(&p_o).serial_hex(), "cafe");
        // Counter-based issuance is untouched by deterministic calls.
        let counter = ca.issue(&p_a);
        assert_eq!(counter.tbs().serial, vec![2]);
    }

    #[test]
    fn serial_override_allows_reuse_pathology() {
        let mut ca = root();
        let k = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"k");
        let t = Time::from_ymd(2020, 1, 1);
        let mut p1 = LeafProfile::dv("a.gov.xx", k.public(), t);
        p1.serial = Some(vec![0xca, 0xfe]);
        let mut p2 = LeafProfile::dv("b.gov.yy", k.public(), t);
        p2.serial = Some(vec![0xca, 0xfe]);
        let a = ca.issue(&p1);
        let b = ca.issue(&p2);
        assert_eq!(a.tbs().serial, b.tbs().serial);
        assert_eq!(a.serial_hex(), "cafe");
    }

    #[test]
    fn validity_override() {
        let mut ca = root();
        let k = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"k");
        let mut p = LeafProfile::dv("x.gov", k.public(), Time::from_ymd(2020, 1, 1));
        p.validity_days = Some(3650); // one of the paper's 10-year certs
        let cert = ca.issue(&p);
        assert_eq!(cert.tbs().validity.days(), 3650);
    }

    #[test]
    fn self_signed_helper() {
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(1024), b"appliance");
        let cert = self_signed(
            "localhost",
            vec![],
            &key,
            SignatureAlgorithm::Sha1WithRsa,
            test_validity(),
        );
        assert!(cert.is_self_signed());
        assert_eq!(cert.dns_names(), vec!["localhost"]);
        assert!(cert.signature().algorithm.hash().is_weak());
    }

    #[test]
    fn key_directory_blocks_unrelated_reuse() {
        let mut ca = root();
        let mut dir = KeyDirectory::new();
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"shared");
        let t = Time::from_ymd(2020, 1, 1);
        // First issuance: fine.
        ca.issue_checked(&LeafProfile::dv("portal.gov.bd", key.public(), t), &mut dir)
            .expect("first issuance allowed");
        // Sub-domain of the first: allowed per §8.1.
        ca.issue_checked(
            &LeafProfile::dv("forms.portal.gov.bd", key.public(), t),
            &mut dir,
        )
        .expect("sub-domain allowed");
        // Unrelated government (the Colombia-style reuse): refused.
        let err = ca
            .issue_checked(&LeafProfile::dv("tax.gov.co", key.public(), t), &mut dir)
            .unwrap_err();
        assert_eq!(err.requested, "tax.gov.co");
        // A different key for the same host: fine.
        let other = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"fresh");
        ca.issue_checked(&LeafProfile::dv("tax.gov.co", other.public(), t), &mut dir)
            .expect("fresh key allowed");
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn key_directory_wildcards_are_related_to_their_scope() {
        let mut ca = root();
        let mut dir = KeyDirectory::new();
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"wild");
        let t = Time::from_ymd(2020, 1, 1);
        let mut p = LeafProfile::dv("*.portal.gov.bd", key.public(), t);
        p.san = vec!["*.portal.gov.bd".into()];
        ca.issue_checked(&p, &mut dir).expect("wildcard issuance");
        ca.issue_checked(
            &LeafProfile::dv("x.portal.gov.bd", key.public(), t),
            &mut dir,
        )
        .expect("host under the wildcard scope");
        assert!(ca
            .issue_checked(
                &LeafProfile::dv("unrelated.gov.vn", key.public(), t),
                &mut dir
            )
            .is_err());
    }

    #[test]
    fn ecdsa_ca_issues_ec_leaf() {
        let mut ca = CertificateAuthority::new_root(
            DistinguishedName::ca("EC Root", "Test", "US"),
            KeyPair::from_seed(KeyAlgorithm::Ec(384), b"ecroot"),
            IssuancePolicy {
                signature_alg: SignatureAlgorithm::EcdsaWithSha384,
                default_validity_days: 398,
            },
            test_validity(),
        );
        let leaf_key = KeyPair::from_seed(KeyAlgorithm::Ec(256), b"ecleaf");
        let cert = ca.issue(&LeafProfile::dv(
            "ec.example.gov",
            leaf_key.public(),
            Time::from_ymd(2020, 1, 1),
        ));
        assert!(cert.verify_signature(&ca.key.public()));
        assert_eq!(
            cert.signature().algorithm,
            SignatureAlgorithm::EcdsaWithSha384
        );
    }
}
