//! Trust stores — the root-certificate sets a validating client ships.
//!
//! The study validated against the Apple macOS root store ("the most
//! restrictive": 174 roots vs Microsoft's 402 and Mozilla NSS's 152,
//! §4.3). [`TrustStoreProfile`] models the three profiles; world
//! generation marks each root CA with the stores that carry it, so that
//! certificates chaining to an untrusted root (e.g. the Korean NPKI CAs
//! of §6.3) validate differently per profile.

use std::collections::{HashMap, HashSet};

use govscan_crypto::Fingerprint;

use crate::cert::Certificate;
use crate::name::DistinguishedName;

/// Which vendor trust store a validation run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrustStoreProfile {
    /// Apple (used by the paper's OpenSSL runs; most restrictive).
    Apple,
    /// Microsoft (largest).
    Microsoft,
    /// Mozilla NSS.
    Nss,
}

impl TrustStoreProfile {
    /// All profiles.
    pub const ALL: [TrustStoreProfile; 3] = [
        TrustStoreProfile::Apple,
        TrustStoreProfile::Microsoft,
        TrustStoreProfile::Nss,
    ];
}

/// A set of trusted root certificates, indexed by subject name and by
/// fingerprint. The fingerprint index makes the anchor check the chain
/// walker performs on every link an O(1) set probe instead of a deep
/// certificate comparison; the name index matches an issuer to a root by
/// `DistinguishedName` equality, with no rendering.
#[derive(Debug, Clone, Default)]
pub struct TrustStore {
    roots: HashMap<DistinguishedName, Certificate>,
    fingerprints: HashSet<Fingerprint>,
}

impl TrustStore {
    /// An empty store.
    pub fn new() -> Self {
        TrustStore::default()
    }

    /// Add a root certificate. Only self-issued CA certificates belong in
    /// a root store; this is enforced here because the study's whole error
    /// taxonomy depends on the distinction.
    ///
    /// Returns `false` (and does not add) if `cert` is not a self-issued CA.
    pub fn add_root(&mut self, cert: Certificate) -> bool {
        if !cert.is_self_issued() || !cert.is_ca() {
            return false;
        }
        let fp = cert.fingerprint();
        if let Some(old) = self.roots.insert(cert.tbs().subject.clone(), cert) {
            // A same-subject replacement evicts the old anchor entirely.
            self.fingerprints.remove(&old.fingerprint());
        }
        self.fingerprints.insert(fp);
        true
    }

    /// Find a trusted root by subject name.
    pub fn find_by_subject(&self, subject: &DistinguishedName) -> Option<&Certificate> {
        self.roots.get(subject)
    }

    /// Is this exact certificate (by fingerprint) a trust anchor?
    pub fn contains(&self, cert: &Certificate) -> bool {
        self.fingerprints.contains(&cert.fingerprint())
    }

    /// Number of roots.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True if no roots have been added.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Iterate over the roots.
    pub fn iter(&self) -> impl Iterator<Item = &Certificate> {
        self.roots.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::{self, CertificateAuthority, IssuancePolicy};
    use crate::cert::Validity;
    use govscan_asn1::Time;
    use govscan_crypto::{KeyAlgorithm, KeyPair, SignatureAlgorithm};

    fn validity() -> Validity {
        Validity {
            not_before: Time::from_ymd(2010, 1, 1),
            not_after: Time::from_ymd(2040, 1, 1),
        }
    }

    fn root(name: &str) -> CertificateAuthority {
        CertificateAuthority::new_root(
            DistinguishedName::ca(name, "Org", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(4096), name.as_bytes()),
            IssuancePolicy::default(),
            validity(),
        )
    }

    #[test]
    fn add_and_find_root() {
        let ca = root("Root A");
        let mut store = TrustStore::new();
        assert!(store.add_root(ca.cert.clone()));
        assert_eq!(store.len(), 1);
        let found = store.find_by_subject(&ca.cert.tbs().subject).unwrap();
        assert_eq!(found, &ca.cert);
        assert!(store.contains(&ca.cert));
    }

    #[test]
    fn rejects_non_ca_certificates() {
        let mut ca = root("Root B");
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"leaf");
        let leaf = ca.issue(&ca::LeafProfile::dv(
            "x.gov",
            key.public(),
            Time::from_ymd(2020, 1, 1),
        ));
        let mut store = TrustStore::new();
        assert!(!store.add_root(leaf), "leaf must not become a trust anchor");
        assert!(store.is_empty());
    }

    #[test]
    fn rejects_self_signed_non_ca() {
        // A bare self-signed server cert has no basicConstraints CA flag.
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"ss");
        let cert = ca::self_signed(
            "localhost",
            vec![],
            &key,
            SignatureAlgorithm::Sha256WithRsa,
            validity(),
        );
        let mut store = TrustStore::new();
        assert!(!store.add_root(cert));
    }

    #[test]
    fn different_cert_same_subject_not_contained() {
        // Two roots with the same DN but different keys: contains() must
        // compare the certificate, not just the name.
        let a = root("Dup Root");
        let b = CertificateAuthority::new_root(
            DistinguishedName::ca("Dup Root", "Org", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(4096), b"different key"),
            IssuancePolicy::default(),
            validity(),
        );
        let mut store = TrustStore::new();
        store.add_root(a.cert.clone());
        assert!(!store.contains(&b.cert));
    }
}
