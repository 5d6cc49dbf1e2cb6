//! Chain validation — the OpenSSL-equivalent verdict the study keys off.
//!
//! [`validate_chain`] takes the peer certificate stack exactly as a TLS
//! client receives it (leaf first, possibly incomplete or over-complete),
//! a trust store, the hostname dialled, and the scan time, and returns
//! either the validated path or the *first* error in the same precedence
//! OpenSSL reports: chain construction, then signatures, then time
//! validity, then hostname matching.
//!
//! The verdict is computed in two layers that mirror the precedence
//! boundary: [`validate_chain_structure`] covers everything independent
//! of the hostname dialled (construction, signatures, path length, time
//! validity — a function of chain × trust store × scan time only), and
//! [`check_hostname`] applies the final per-host name match. Because
//! hostname mismatch is the *last* error OpenSSL reports, composing the
//! two layers reproduces the single-pass precedence exactly — which is
//! what lets the scanner memoize the expensive structural verdict per
//! chain (see `vcache`) while the cheap hostname step runs per host.

use govscan_asn1::Time;

use crate::cert::Certificate;
use crate::hostname;
use crate::trust::TrustStore;

/// Maximum path length we will follow (cycle protection).
const MAX_PATH: usize = 8;

/// The paper's certificate-error taxonomy (Table 2 rows, plus the
/// structural errors that feed the "Exceptions" bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CertError {
    /// The server presented no certificates at all.
    EmptyChain,
    /// "self signed certificate" — the leaf is self-signed and untrusted.
    SelfSignedLeaf,
    /// "self signed certificate in certificate chain" — an untrusted
    /// self-signed certificate appears above the leaf.
    SelfSignedInChain,
    /// "unable to get local issuer certificate" — the issuer of some
    /// element is neither in the peer stack nor in the trust store.
    UnableToGetLocalIssuer,
    /// A signature in the chain does not verify.
    BadSignature,
    /// A non-CA certificate was used as an issuer.
    NotACa,
    /// A pathLenConstraint was violated.
    PathLenExceeded,
    /// "certificate has expired".
    Expired,
    /// The certificate is not yet valid at scan time.
    NotYetValid,
    /// "hostname mismatch" — the single largest category (36.6%).
    HostnameMismatch,
}

impl CertError {
    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            CertError::EmptyChain => "empty certificate chain",
            CertError::SelfSignedLeaf => "self-signed certificate",
            CertError::SelfSignedInChain => "self-signed certificate in chain",
            CertError::UnableToGetLocalIssuer => "unable to get local issuer cert",
            CertError::BadSignature => "certificate signature failure",
            CertError::NotACa => "issuer is not a CA",
            CertError::PathLenExceeded => "path length constraint exceeded",
            CertError::Expired => "certificate expired",
            CertError::NotYetValid => "certificate not yet valid",
            CertError::HostnameMismatch => "hostname mismatch",
        }
    }
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::error::Error for CertError {}

/// A successfully validated chain.
#[derive(Debug, Clone)]
pub struct ValidatedChain {
    /// Path from leaf up to (and including) the trust anchor.
    pub path: Vec<Certificate>,
}

impl ValidatedChain {
    /// The leaf certificate.
    pub fn leaf(&self) -> &Certificate {
        &self.path[0]
    }

    /// The trust anchor the path terminates in.
    pub fn anchor(&self) -> &Certificate {
        self.path.last().expect("path is non-empty")
    }
}

/// Validate a peer certificate stack.
///
/// `peer_chain` is leaf-first as received from the TLS server; extra or
/// out-of-order intermediates are tolerated (clients re-order), missing
/// ones are an error. `host` is the name dialled.
pub fn validate_chain(
    peer_chain: &[Certificate],
    trust: &TrustStore,
    host: &str,
    now: Time,
) -> Result<ValidatedChain, CertError> {
    let validated = validate_chain_structure(peer_chain, trust, now)?;
    check_hostname(&validated, host)?;
    Ok(validated)
}

/// The host-independent part of the verdict: chain construction,
/// signatures, CA and path-length constraints, and time validity.
///
/// For a fixed trust store and scan time this is a pure function of the
/// peer chain, which makes it memoizable by chain fingerprint. Every
/// error except [`CertError::HostnameMismatch`] originates here, in the
/// same precedence [`validate_chain`] reports.
pub fn validate_chain_structure(
    peer_chain: &[Certificate],
    trust: &TrustStore,
    now: Time,
) -> Result<ValidatedChain, CertError> {
    let leaf = peer_chain.first().ok_or(CertError::EmptyChain)?;

    // --- Phase 1: path construction (leaf → anchor). ---
    let mut path: Vec<Certificate> = Vec::with_capacity(peer_chain.len() + 1);
    path.push(leaf.clone());
    loop {
        let cur = path.last().expect("non-empty");
        if path.len() > MAX_PATH {
            return Err(CertError::UnableToGetLocalIssuer);
        }
        if trust.contains(cur) {
            break; // anchored at a root in the store
        }
        if cur.is_self_issued() {
            // Self-issued and not a trust anchor: dead end.
            return Err(if path.len() == 1 {
                CertError::SelfSignedLeaf
            } else {
                CertError::SelfSignedInChain
            });
        }
        let issuer_name = &cur.tbs().issuer;
        // Prefer an issuer from the peer stack (skipping certificates
        // already on the path so loops terminate).
        let from_peer = peer_chain.iter().find(|c| {
            c.tbs().subject == *issuer_name
                && !path.iter().any(|p| p.fingerprint() == c.fingerprint())
        });
        let issuer = match from_peer.or_else(|| trust.find_by_subject(issuer_name)) {
            Some(c) => c.clone(),
            None => return Err(CertError::UnableToGetLocalIssuer),
        };
        // --- Phase 2 checks applied as we extend. ---
        if !issuer.is_ca() {
            return Err(CertError::NotACa);
        }
        if let Some(bc) = issuer.tbs().extensions.basic_constraints {
            if let Some(max) = bc.path_len {
                // Number of intermediates below this issuer (excluding leaf).
                let intermediates_below = path.len().saturating_sub(1);
                if intermediates_below > max as usize {
                    return Err(CertError::PathLenExceeded);
                }
            }
        }
        if !cur.verify_signature(&issuer.tbs().public_key) {
            return Err(CertError::BadSignature);
        }
        path.push(issuer);
    }

    // --- Phase 3: time validity (leaf-first precedence). ---
    for cert in &path {
        let validity = &cert.tbs().validity;
        if now > validity.not_after {
            return Err(CertError::Expired);
        }
        if now < validity.not_before {
            return Err(CertError::NotYetValid);
        }
    }

    Ok(ValidatedChain { path })
}

/// The per-host step: does the validated leaf cover `host`?
///
/// Phase 4 of the verdict, split out so a structurally validated chain
/// can be checked against many hostnames without re-walking the path.
pub fn check_hostname(validated: &ValidatedChain, host: &str) -> Result<(), CertError> {
    if !hostname::matches_any(validated.leaf().dns_names(), host) {
        return Err(CertError::HostnameMismatch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::{self, CertificateAuthority, IssuancePolicy, LeafProfile};
    use crate::cert::Validity;
    use crate::name::DistinguishedName;
    use govscan_crypto::{KeyAlgorithm, KeyPair};

    fn long_validity() -> Validity {
        Validity {
            not_before: Time::from_ymd(2010, 1, 1),
            not_after: Time::from_ymd(2040, 1, 1),
        }
    }

    fn scan_time() -> Time {
        Time::from_ymd(2020, 4, 22)
    }

    struct Pki {
        root: CertificateAuthority,
        inter: CertificateAuthority,
        trust: TrustStore,
    }

    fn pki() -> Pki {
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::ca("ISRG Root X1", "Internet Security Research Group", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(4096), b"isrg"),
            IssuancePolicy::default(),
            long_validity(),
        );
        let inter = CertificateAuthority::new_intermediate(
            &mut root,
            DistinguishedName::ca("R3", "Let's Encrypt", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"r3"),
            IssuancePolicy::default(),
            long_validity(),
        );
        let mut trust = TrustStore::new();
        trust.add_root(root.cert.clone());
        Pki { root, inter, trust }
    }

    fn issue(p: &mut Pki, host: &str) -> Certificate {
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), host.as_bytes());
        p.inter.issue(&LeafProfile::dv(
            host,
            key.public(),
            Time::from_ymd(2020, 3, 1),
        ))
    }

    #[test]
    fn valid_chain_with_intermediate() {
        let mut p = pki();
        let leaf = issue(&mut p, "www.nih.gov");
        let chain = vec![leaf, p.inter.cert.clone()];
        let v = validate_chain(&chain, &p.trust, "www.nih.gov", scan_time()).unwrap();
        assert_eq!(v.path.len(), 3);
        assert_eq!(v.anchor().issuer_label(), "ISRG Root X1");
        assert_eq!(v.leaf().dns_names(), vec!["www.nih.gov"]);
    }

    #[test]
    fn out_of_order_peer_stack_is_tolerated() {
        let mut p = pki();
        let leaf = issue(&mut p, "www.nih.gov");
        // Some servers send the intermediate before re-sending the leaf's
        // position correctly; only position 0 (leaf) is fixed.
        let chain = vec![leaf, p.root.cert.clone(), p.inter.cert.clone()];
        assert!(validate_chain(&chain, &p.trust, "www.nih.gov", scan_time()).is_ok());
    }

    #[test]
    fn missing_intermediate_is_local_issuer_error() {
        let mut p = pki();
        let leaf = issue(&mut p, "agency.gov.kr");
        // Server misconfigured: only sends the leaf; intermediate is not in
        // the trust store (only the root is).
        let err = validate_chain(&[leaf], &p.trust, "agency.gov.kr", scan_time()).unwrap_err();
        assert_eq!(err, CertError::UnableToGetLocalIssuer);
    }

    #[test]
    fn untrusted_root_is_local_issuer_error() {
        // NPKI-style: complete chain, but the root is absent from the store.
        let mut p = pki();
        let leaf = issue(&mut p, "minwon.go.kr");
        let chain = vec![leaf, p.inter.cert.clone(), p.root.cert.clone()];
        let empty = TrustStore::new();
        let err = validate_chain(&chain, &empty, "minwon.go.kr", scan_time()).unwrap_err();
        // The self-issued root at the top of the peer stack is found while
        // walking; since it isn't trusted, OpenSSL reports it as a
        // self-signed certificate in the chain.
        assert_eq!(err, CertError::SelfSignedInChain);
    }

    #[test]
    fn incomplete_chain_without_root_in_store() {
        let mut p = pki();
        let leaf = issue(&mut p, "a.gov.xx");
        let chain = vec![leaf, p.inter.cert.clone()];
        let empty = TrustStore::new();
        let err = validate_chain(&chain, &empty, "a.gov.xx", scan_time()).unwrap_err();
        assert_eq!(err, CertError::UnableToGetLocalIssuer);
    }

    #[test]
    fn self_signed_leaf() {
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"ss");
        let cert = ca::self_signed(
            "localhost",
            vec![],
            &key,
            govscan_crypto::SignatureAlgorithm::Sha256WithRsa,
            long_validity(),
        );
        let trust = TrustStore::new();
        let err = validate_chain(&[cert], &trust, "city.gov.xx", scan_time()).unwrap_err();
        assert_eq!(err, CertError::SelfSignedLeaf);
    }

    #[test]
    fn expired_certificate() {
        let mut p = pki();
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"exp");
        let mut profile = LeafProfile::dv("old.gov", key.public(), Time::from_ymd(2018, 1, 1));
        profile.validity_days = Some(90);
        let leaf = p.inter.issue(&profile);
        let chain = vec![leaf, p.inter.cert.clone()];
        let err = validate_chain(&chain, &p.trust, "old.gov", scan_time()).unwrap_err();
        assert_eq!(err, CertError::Expired);
    }

    #[test]
    fn not_yet_valid_certificate() {
        let mut p = pki();
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"fut");
        let profile = LeafProfile::dv("new.gov", key.public(), Time::from_ymd(2021, 1, 1));
        let leaf = p.inter.issue(&profile);
        let chain = vec![leaf, p.inter.cert.clone()];
        let err = validate_chain(&chain, &p.trust, "new.gov", scan_time()).unwrap_err();
        assert_eq!(err, CertError::NotYetValid);
    }

    #[test]
    fn hostname_mismatch_is_reported_last() {
        let mut p = pki();
        // Valid chain for *.portal.gov.bd used on finance.gov.bd (§5.3.3).
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"bd");
        let mut profile =
            LeafProfile::dv("*.portal.gov.bd", key.public(), Time::from_ymd(2020, 3, 1));
        profile.san = vec!["*.portal.gov.bd".into()];
        let leaf = p.inter.issue(&profile);
        let chain = vec![leaf, p.inter.cert.clone()];
        let err = validate_chain(&chain, &p.trust, "finance.gov.bd", scan_time()).unwrap_err();
        assert_eq!(err, CertError::HostnameMismatch);
        // …and the same chain on a covered host is valid.
        assert!(validate_chain(&chain, &p.trust, "forms.portal.gov.bd", scan_time()).is_ok());
    }

    #[test]
    fn tampered_leaf_fails_signature() {
        let mut p = pki();
        let issued = issue(&mut p, "tamper.gov");
        let mut edited = issued.tbs().clone();
        edited.subject = DistinguishedName::cn("evil.gov");
        edited.extensions.subject_alt_names = vec!["tamper.gov".into()];
        let leaf = Certificate::new(edited, issued.signature().clone());
        let chain = vec![leaf, p.inter.cert.clone()];
        let err = validate_chain(&chain, &p.trust, "tamper.gov", scan_time()).unwrap_err();
        assert_eq!(err, CertError::BadSignature);
    }

    #[test]
    fn non_ca_issuer_rejected() {
        let mut p = pki();
        // A leaf "issuing" another leaf: forge the names so the walk finds it.
        let leaf1 = issue(&mut p, "siteone.gov");
        let key2 = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"two");
        let mut tbs = leaf1.tbs().clone();
        tbs.issuer = leaf1.tbs().subject.clone();
        tbs.subject = DistinguishedName::cn("sitetwo.gov");
        tbs.extensions.subject_alt_names = vec!["sitetwo.gov".into()];
        tbs.public_key = key2.public();
        let fake_key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"siteone.gov");
        let leaf2 = Certificate::sign(tbs, &fake_key).unwrap();
        let chain = vec![leaf2, leaf1, p.inter.cert.clone()];
        let err = validate_chain(&chain, &p.trust, "sitetwo.gov", scan_time()).unwrap_err();
        assert_eq!(err, CertError::NotACa);
    }

    #[test]
    fn empty_chain() {
        let trust = TrustStore::new();
        assert_eq!(
            validate_chain(&[], &trust, "x.gov", scan_time()).unwrap_err(),
            CertError::EmptyChain
        );
    }

    #[test]
    fn path_len_constraint_enforced() {
        // Root limits path to 0 intermediates via the intermediate's own
        // pathLen(0); chain with two intermediates must fail.
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::ca("Strict Root", "Org", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(4096), b"strict"),
            IssuancePolicy::default(),
            long_validity(),
        );
        let mut inter1 = CertificateAuthority::new_intermediate(
            &mut root,
            DistinguishedName::ca("Inter 1", "Org", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"i1"),
            IssuancePolicy::default(),
            long_validity(),
        );
        // inter1's certificate has pathLen 0, so a CA below it is illegal.
        let mut inter2 = CertificateAuthority::new_intermediate(
            &mut inter1,
            DistinguishedName::ca("Inter 2", "Org", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"i2"),
            IssuancePolicy::default(),
            long_validity(),
        );
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"deep");
        let leaf = inter2.issue(&LeafProfile::dv(
            "deep.gov",
            key.public(),
            Time::from_ymd(2020, 3, 1),
        ));
        let mut trust = TrustStore::new();
        trust.add_root(root.cert.clone());
        let chain = vec![leaf, inter2.cert.clone(), inter1.cert.clone()];
        let err = validate_chain(&chain, &trust, "deep.gov", scan_time()).unwrap_err();
        assert_eq!(err, CertError::PathLenExceeded);
    }

    #[test]
    fn anchor_expiry_also_checked() {
        // Root expired before scan time → Expired even if leaf is fresh.
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::ca("Old Root", "Org", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(4096), b"oldroot"),
            IssuancePolicy::default(),
            Validity {
                not_before: Time::from_ymd(2000, 1, 1),
                not_after: Time::from_ymd(2019, 1, 1),
            },
        );
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"leaf");
        let leaf = root.issue(&LeafProfile::dv(
            "site.gov",
            key.public(),
            Time::from_ymd(2020, 1, 1),
        ));
        let mut trust = TrustStore::new();
        trust.add_root(root.cert.clone());
        let err = validate_chain(&[leaf], &trust, "site.gov", scan_time()).unwrap_err();
        assert_eq!(err, CertError::Expired);
    }
}
