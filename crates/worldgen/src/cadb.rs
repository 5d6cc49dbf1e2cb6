//! The certificate-authority roster: ~40 issuing CAs with market shares
//! shaped like the paper's Figure 2 (worldwide), Figure 8 (USA) and
//! Figure 11 (South Korea, including the now-untrusted NPKI sub-CAs).

use std::sync::Arc;

use govscan_asn1::{Oid, Time};
use govscan_crypto::{KeyAlgorithm, KeyPair, SignatureAlgorithm};
use govscan_pki::ca::{CertificateAuthority, IssuancePolicy, LeafProfile};
use govscan_pki::cert::{Certificate, Validity};
use govscan_pki::ctlog::CtLog;
use govscan_pki::ev::EvRegistry;
use govscan_pki::name::DistinguishedName;
use govscan_pki::trust::{TrustStore, TrustStoreProfile};
use rand::Rng;

/// Static description of one issuing CA.
#[derive(Debug, Clone, Copy)]
pub struct CaProfile {
    /// Issuer common name — the label the analysis groups by.
    pub label: &'static str,
    /// Organization.
    pub org: &'static str,
    /// Country of registration (uppercase ISO, for the §7.3.2 analysis of
    /// CA jurisdiction).
    pub country: &'static str,
    /// Worldwide market share among government certificates (relative).
    pub share: f64,
    /// Signature algorithm this CA signs with.
    pub sig: SignatureAlgorithm,
    /// CA key family/size.
    pub key: KeyAlgorithm,
    /// Default leaf validity in days.
    pub validity_days: i64,
    /// EV policy OID asserted on EV issuance, if the CA offers EV.
    pub ev_oid: Option<&'static str>,
    /// Root present in the Apple / Microsoft / NSS stores.
    pub trusted: (bool, bool, bool),
    /// CAA domain string.
    pub caa_domain: &'static str,
}

const RSA2048: KeyAlgorithm = KeyAlgorithm::Rsa(2048);
const RSA4096: KeyAlgorithm = KeyAlgorithm::Rsa(4096);
const EC256: KeyAlgorithm = KeyAlgorithm::Ec(256);
const EC384: KeyAlgorithm = KeyAlgorithm::Ec(384);
const SHA256RSA: SignatureAlgorithm = SignatureAlgorithm::Sha256WithRsa;
const ECDSA256: SignatureAlgorithm = SignatureAlgorithm::EcdsaWithSha256;
const ECDSA384: SignatureAlgorithm = SignatureAlgorithm::EcdsaWithSha384;
const SHA1RSA: SignatureAlgorithm = SignatureAlgorithm::Sha1WithRsa;

macro_rules! ca {
    ($label:literal, $org:literal, $cc:literal, $share:literal, $sig:expr, $key:expr,
     $days:literal, $ev:expr, $t:expr, $caa:literal) => {
        CaProfile {
            label: $label,
            org: $org,
            country: $cc,
            share: $share,
            sig: $sig,
            key: $key,
            validity_days: $days,
            ev_oid: $ev,
            trusted: $t,
            caa_domain: $caa,
        }
    };
}

const ALL_STORES: (bool, bool, bool) = (true, true, true);
/// NPKI and other government CAs removed from every store (§6.3).
const NO_STORES: (bool, bool, bool) = (false, false, false);
/// In Microsoft's larger store only (§3.2: 402 vs 174/152 roots).
const MS_ONLY: (bool, bool, bool) = (false, true, false);

/// The worldwide issuing-CA roster, shares shaped like Figure 2.
pub const CA_PROFILES: &[CaProfile] = &[
    ca!(
        "Let's Encrypt Authority X3",
        "Let's Encrypt",
        "US",
        20.0,
        SHA256RSA,
        RSA2048,
        90,
        None,
        ALL_STORES,
        "letsencrypt.org"
    ),
    ca!(
        "cPanel Inc. Certification Authority",
        "cPanel, Inc.",
        "US",
        6.5,
        SHA256RSA,
        RSA2048,
        90,
        None,
        ALL_STORES,
        "sectigo.com"
    ),
    ca!(
        "Sectigo RSA Domain Validation Secure Server CA",
        "Sectigo Limited",
        "GB",
        6.0,
        SHA256RSA,
        RSA2048,
        365,
        None,
        ALL_STORES,
        "sectigo.com"
    ),
    ca!(
        "DigiCert SHA2 Secure Server CA",
        "DigiCert Inc",
        "US",
        5.5,
        SHA256RSA,
        RSA2048,
        730,
        Some("2.16.840.1.114412.2.1"),
        ALL_STORES,
        "digicert.com"
    ),
    ca!(
        "Encryption Everywhere DV TLS CA - G1",
        "DigiCert Inc",
        "US",
        4.5,
        SHA256RSA,
        RSA2048,
        365,
        None,
        ALL_STORES,
        "digicert.com"
    ),
    ca!(
        "Go Daddy Secure Certificate Authority - G2",
        "GoDaddy.com, Inc.",
        "US",
        4.0,
        SHA256RSA,
        RSA2048,
        730,
        Some("2.16.840.1.114413.1.7.23.3"),
        ALL_STORES,
        "godaddy.com"
    ),
    ca!(
        "Amazon",
        "Amazon",
        "US",
        3.5,
        SHA256RSA,
        RSA2048,
        395,
        None,
        ALL_STORES,
        "amazon.com"
    ),
    ca!(
        "CloudFlare Inc ECC CA-2",
        "CloudFlare, Inc.",
        "US",
        3.2,
        ECDSA256,
        EC256,
        365,
        None,
        ALL_STORES,
        "digicert.com"
    ),
    ca!(
        "GlobalSign CloudSSL CA - SHA256 - G3",
        "GlobalSign nv-sa",
        "BE",
        2.8,
        SHA256RSA,
        RSA2048,
        365,
        Some("1.3.6.1.4.1.4146.1.1"),
        ALL_STORES,
        "globalsign.com"
    ),
    ca!(
        "AlphaSSL CA - SHA256 - G2",
        "GlobalSign nv-sa",
        "BE",
        2.6,
        SHA256RSA,
        RSA2048,
        365,
        None,
        ALL_STORES,
        "globalsign.com"
    ),
    ca!(
        "COMODO RSA Domain Validation Secure Server CA",
        "COMODO CA Limited",
        "GB",
        2.5,
        SHA256RSA,
        RSA2048,
        365,
        Some("1.3.6.1.4.1.6449.1.2.1.5.1"),
        ALL_STORES,
        "comodoca.com"
    ),
    ca!(
        "RapidSSL RSA CA 2018",
        "DigiCert Inc",
        "US",
        2.2,
        SHA256RSA,
        RSA2048,
        365,
        None,
        ALL_STORES,
        "digicert.com"
    ),
    ca!(
        "GeoTrust RSA CA 2018",
        "DigiCert Inc",
        "US",
        2.0,
        SHA256RSA,
        RSA2048,
        730,
        Some("1.3.6.1.4.1.14370.1.6"),
        ALL_STORES,
        "digicert.com"
    ),
    ca!(
        "DigiCert SHA2 High Assurance Server CA",
        "DigiCert Inc",
        "US",
        1.9,
        SHA256RSA,
        RSA2048,
        730,
        Some("2.16.840.1.114412.2.1"),
        ALL_STORES,
        "digicert.com"
    ),
    ca!(
        "Thawte RSA CA 2018",
        "DigiCert Inc",
        "US",
        1.7,
        SHA256RSA,
        RSA2048,
        730,
        Some("2.16.840.1.113733.1.7.48.1"),
        ALL_STORES,
        "digicert.com"
    ),
    ca!(
        "Entrust Certification Authority - L1K",
        "Entrust, Inc.",
        "US",
        1.6,
        SHA256RSA,
        RSA2048,
        730,
        Some("2.16.840.1.114028.10.1.2"),
        ALL_STORES,
        "entrust.net"
    ),
    ca!(
        "QuoVadis Global SSL ICA G3",
        "QuoVadis Limited",
        "BM",
        1.5,
        SHA256RSA,
        RSA4096,
        730,
        Some("2.16.756.1.89.1.2.1.1"),
        ALL_STORES,
        "quovadisglobal.com"
    ),
    ca!(
        "Starfield Secure Certificate Authority - G2",
        "Starfield Technologies, Inc.",
        "US",
        1.4,
        SHA256RSA,
        RSA2048,
        730,
        Some("2.16.840.1.114414.1.7.23.3"),
        ALL_STORES,
        "starfieldtech.com"
    ),
    ca!(
        "Network Solutions OV Server CA 2",
        "Network Solutions L.L.C.",
        "US",
        1.3,
        SHA256RSA,
        RSA2048,
        730,
        None,
        ALL_STORES,
        "networksolutions.com"
    ),
    ca!(
        "GTS CA 1O1",
        "Google Trust Services",
        "US",
        1.3,
        SHA256RSA,
        RSA2048,
        90,
        None,
        ALL_STORES,
        "pki.goog"
    ),
    ca!(
        "Microsoft IT TLS CA 5",
        "Microsoft Corporation",
        "US",
        1.2,
        SHA256RSA,
        RSA2048,
        730,
        None,
        ALL_STORES,
        "microsoft.com"
    ),
    ca!(
        "Sectigo ECC Domain Validation Secure Server CA",
        "Sectigo Limited",
        "GB",
        1.1,
        ECDSA256,
        EC256,
        365,
        None,
        ALL_STORES,
        "sectigo.com"
    ),
    ca!(
        "SwissSign Server Gold CA 2014 - G22",
        "SwissSign AG",
        "CH",
        1.0,
        SHA256RSA,
        RSA2048,
        730,
        None,
        ALL_STORES,
        "swisssign.com"
    ),
    ca!(
        "Certum Domain Validation CA SHA2",
        "Unizeto Technologies S.A.",
        "PL",
        0.9,
        SHA256RSA,
        RSA2048,
        365,
        None,
        ALL_STORES,
        "certum.pl"
    ),
    ca!(
        "Gandi Standard SSL CA 2",
        "Gandi",
        "FR",
        0.9,
        SHA256RSA,
        RSA2048,
        365,
        None,
        ALL_STORES,
        "gandi.net"
    ),
    ca!(
        "Actalis Organization Validated Server CA G2",
        "Actalis S.p.A.",
        "IT",
        0.8,
        SHA256RSA,
        RSA2048,
        365,
        None,
        ALL_STORES,
        "actalis.it"
    ),
    ca!(
        "TrustAsia TLS RSA CA",
        "TrustAsia Technologies, Inc.",
        "CN",
        0.8,
        SHA256RSA,
        RSA2048,
        365,
        None,
        ALL_STORES,
        "trustasia.com"
    ),
    ca!(
        "WoTrus DV Server CA",
        "WoTrus CA Limited",
        "CN",
        0.7,
        SHA256RSA,
        RSA2048,
        365,
        None,
        MS_ONLY,
        "wotrus.com"
    ),
    ca!(
        "CA134100031",
        "KICA (NPKI)",
        "KR",
        0.7,
        SHA256RSA,
        RSA2048,
        730,
        None,
        NO_STORES,
        "signgate.com"
    ),
    ca!(
        "Secom Passport for Web SR 3.0",
        "SECOM Trust Systems",
        "JP",
        0.6,
        SHA256RSA,
        RSA2048,
        730,
        None,
        ALL_STORES,
        "secomtrust.net"
    ),
    ca!(
        "CA131100001",
        "KTNET (NPKI)",
        "KR",
        0.5,
        SHA1RSA,
        RSA2048,
        1095,
        None,
        NO_STORES,
        "tradesign.net"
    ),
    ca!(
        "izenpe.com SSL CA",
        "IZENPE S.A.",
        "ES",
        0.5,
        SHA256RSA,
        RSA2048,
        730,
        None,
        ALL_STORES,
        "izenpe.com"
    ),
    ca!(
        "Government CA - Taiwan GRCA",
        "Government Root Certification Authority",
        "TW",
        0.5,
        SHA256RSA,
        RSA4096,
        1095,
        None,
        MS_ONLY,
        "grca.nat.gov.tw"
    ),
    ca!(
        "Staat der Nederlanden Organisatie CA - G3",
        "Staat der Nederlanden",
        "NL",
        0.4,
        SHA256RSA,
        RSA4096,
        1095,
        None,
        ALL_STORES,
        "pkioverheid.nl"
    ),
    ca!(
        "TurkTrust SSL CA",
        "TURKTRUST",
        "TR",
        0.4,
        SHA256RSA,
        RSA2048,
        730,
        None,
        MS_ONLY,
        "turktrust.com.tr"
    ),
    ca!(
        "E-Tugra SSL CA",
        "E-Tugra EBG",
        "TR",
        0.35,
        SHA256RSA,
        RSA2048,
        730,
        None,
        ALL_STORES,
        "e-tugra.com"
    ),
    ca!(
        "Chunghwa Telecom ePKI Root",
        "Chunghwa Telecom",
        "TW",
        0.3,
        SHA256RSA,
        RSA2048,
        1095,
        None,
        ALL_STORES,
        "cht.com.tw"
    ),
    ca!(
        "GlobalTrust GmbH Server CA",
        "GlobalTrust",
        "AT",
        0.3,
        SHA256RSA,
        RSA2048,
        730,
        None,
        MS_ONLY,
        "globaltrust.eu"
    ),
    ca!(
        "Hongkong Post e-Cert CA 3",
        "Hongkong Post",
        "HK",
        0.3,
        SHA256RSA,
        RSA2048,
        1095,
        None,
        ALL_STORES,
        "hongkongpost.gov.hk"
    ),
    ca!(
        "ANF Server CA",
        "ANF Autoridad de Certificacion",
        "ES",
        0.25,
        SHA256RSA,
        RSA2048,
        730,
        None,
        MS_ONLY,
        "anf.es"
    ),
    ca!(
        "Buypass Class 2 CA 5",
        "Buypass AS",
        "NO",
        0.25,
        SHA256RSA,
        RSA2048,
        180,
        None,
        ALL_STORES,
        "buypass.com"
    ),
    ca!(
        "SSL.com RSA SSL subCA",
        "SSL Corporation",
        "US",
        0.25,
        SHA256RSA,
        RSA2048,
        365,
        None,
        ALL_STORES,
        "ssl.com"
    ),
    ca!(
        "DigiCert ECC Secure Server CA",
        "DigiCert Inc",
        "US",
        0.6,
        ECDSA384,
        EC384,
        730,
        Some("2.16.840.1.114412.2.1"),
        ALL_STORES,
        "digicert.com"
    ),
];

/// Index of Let's Encrypt in [`CA_PROFILES`].
pub const LETS_ENCRYPT: usize = 0;

/// A built CA with its root and issuing intermediate.
pub struct BuiltCa {
    /// The static profile.
    pub profile: &'static CaProfile,
    /// Root CA (held for trust-store membership).
    pub root: CertificateAuthority,
    /// The intermediate that actually signs leaves.
    pub issuing: CertificateAuthority,
}

/// The built roster plus derived trust stores and EV registry.
pub struct CaDb {
    cas: Vec<BuiltCa>,
    apple: TrustStore,
    microsoft: TrustStore,
    nss: TrustStore,
    ev: EvRegistry,
    ct: CtLog,
}

impl CaDb {
    /// Build the full roster deterministically from a seed.
    pub fn build(seed: u64) -> CaDb {
        let ca_validity = Validity {
            not_before: Time::from_ymd(2010, 1, 1),
            not_after: Time::from_ymd(2040, 1, 1),
        };
        let mut cas = Vec::with_capacity(CA_PROFILES.len());
        let mut apple = TrustStore::new();
        let mut microsoft = TrustStore::new();
        let mut nss = TrustStore::new();
        let mut ev = EvRegistry::new();
        for (i, profile) in CA_PROFILES.iter().enumerate() {
            let root_seed = format!("govscan-ca-root-{seed}-{i}");
            let mut root = CertificateAuthority::new_root(
                DistinguishedName::ca(
                    format!("{} Root R{i}", profile.org),
                    profile.org,
                    profile.country,
                ),
                KeyPair::from_seed(profile.key, root_seed.as_bytes()),
                IssuancePolicy {
                    signature_alg: profile.sig,
                    default_validity_days: profile.validity_days,
                },
                ca_validity,
            );
            let issuing_seed = format!("govscan-ca-issuing-{seed}-{i}");
            let mut issuing = CertificateAuthority::new_intermediate(
                &mut root,
                DistinguishedName::ca(profile.label, profile.org, profile.country),
                KeyPair::from_seed(profile.key, issuing_seed.as_bytes()),
                IssuancePolicy {
                    signature_alg: profile.sig,
                    default_validity_days: profile.validity_days,
                },
                ca_validity,
            );
            if let Some(oid) = profile.ev_oid {
                let oid = Oid::parse(oid).expect("static EV OID");
                issuing.ev_policy = Some(oid.clone());
                ev.register(oid);
            }
            let (a, m, n) = profile.trusted;
            if a {
                apple.add_root(root.cert.clone());
            }
            if m {
                microsoft.add_root(root.cert.clone());
            }
            if n {
                nss.add_root(root.cert.clone());
            }
            cas.push(BuiltCa {
                profile,
                root,
                issuing,
            });
        }
        CaDb {
            cas,
            apple,
            microsoft,
            nss,
            ev,
            ct: CtLog::new(),
        }
    }

    /// Number of CAs.
    pub fn len(&self) -> usize {
        self.cas.len()
    }

    /// True if the roster is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.cas.is_empty()
    }

    /// Access a built CA.
    pub fn get(&self, idx: usize) -> &BuiltCa {
        &self.cas[idx]
    }

    /// The trust store for a profile.
    pub fn trust_store(&self, profile: TrustStoreProfile) -> &TrustStore {
        match profile {
            TrustStoreProfile::Apple => &self.apple,
            TrustStoreProfile::Microsoft => &self.microsoft,
            TrustStoreProfile::Nss => &self.nss,
        }
    }

    /// The EV policy registry covering every EV-capable roster CA.
    pub fn ev_registry(&self) -> &EvRegistry {
        &self.ev
    }

    /// Indices of CAs whose root is missing from the Apple store — the
    /// pool used to realize "unable to get local issuer" errors.
    pub fn untrusted_indices(&self) -> Vec<usize> {
        self.cas
            .iter()
            .enumerate()
            .filter(|(_, ca)| !ca.profile.trusted.0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of CAs that offer EV.
    pub fn ev_indices(&self) -> Vec<usize> {
        self.cas
            .iter()
            .enumerate()
            .filter(|(_, ca)| ca.profile.ev_oid.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Pick a CA index by worldwide market share, with per-country
    /// preference overrides: Switzerland favours QuoVadis, China favours
    /// Encryption Everywhere / TrustAsia, South Korea favours Sectigo,
    /// AlphaSSL and the NPKI sub-CAs (§5.2, §6.2.1).
    pub fn pick(&self, rng: &mut impl Rng, country: &str, trusted_only: bool) -> usize {
        let weights: Vec<f64> = self
            .cas
            .iter()
            .map(|ca| {
                if trusted_only && !ca.profile.trusted.0 {
                    return 0.0;
                }
                let mut w = ca.profile.share;
                match (country, ca.profile.label) {
                    ("ch", "QuoVadis Global SSL ICA G3") => w *= 30.0,
                    ("cn", "Encryption Everywhere DV TLS CA - G1") => w *= 8.0,
                    ("cn", "TrustAsia TLS RSA CA") => w *= 12.0,
                    ("cn", "WoTrus DV Server CA") => w *= 10.0,
                    ("kr", "Sectigo RSA Domain Validation Secure Server CA") => w *= 6.0,
                    ("kr", "AlphaSSL CA - SHA256 - G2") => w *= 10.0,
                    ("kr", "CA134100031") => w *= 15.0,
                    ("kr", "CA131100001") => w *= 12.0,
                    ("jp", "Secom Passport for Web SR 3.0") => w *= 20.0,
                    ("tw", "Government CA - Taiwan GRCA") => w *= 25.0,
                    ("nl", "Staat der Nederlanden Organisatie CA - G3") => w *= 25.0,
                    ("tr", "TurkTrust SSL CA") => w *= 20.0,
                    ("tr", "E-Tugra SSL CA") => w *= 15.0,
                    ("es", "izenpe.com SSL CA") => w *= 10.0,
                    ("no", "Buypass Class 2 CA 5") => w *= 25.0,
                    ("hk", "Hongkong Post e-Cert CA 3") => w *= 25.0,
                    ("us", "Let's Encrypt Authority X3") => w *= 1.5,
                    _ => {}
                }
                w
            })
            .collect();
        weighted_pick(rng, &weights)
    }

    /// Issue a leaf via CA `idx` and return the chain as the server would
    /// send it: `[leaf, intermediate]` (root omitted, as real servers do).
    ///
    /// Certificates are submitted to the shared CT log per real-world
    /// practice: Let's Encrypt publishes everything automatically; other
    /// CAs log ~88% (CT "misses around 10% in the .com/.net/.org zones",
    /// §2.2) — deciding deterministically from the certificate bytes.
    pub fn issue_chain(&mut self, idx: usize, leaf: &LeafProfile) -> Arc<[Certificate]> {
        let (chain, log_it) = self.issue_chain_pure(idx, leaf);
        if log_it {
            self.ct.append(&chain[0]);
        }
        chain
    }

    /// The side-effect-free core of [`Self::issue_chain`]: issue via the
    /// deterministic (content-serial) path, touching neither the CA
    /// counters nor the CT log, and report whether the certificate should
    /// be logged. Parallel worldgen workers call this from many threads
    /// and the merge step applies [`Self::ct_append`] in a fixed order.
    /// The streamed [`crate::StreamPlan`] leans on the same purity: its
    /// shards issue through a shared `&CaDb` and drop the CT verdict
    /// (nothing downstream of a streamed shard consults the log), so a
    /// shard's chains are identical no matter when — or how often — it
    /// is realized.
    pub fn issue_chain_pure(&self, idx: usize, leaf: &LeafProfile) -> (Arc<[Certificate]>, bool) {
        let (cert, log_it) = self.issue_leaf_pure(idx, leaf.clone());
        (
            Arc::from([cert, self.cas[idx].issuing.cert.clone()]),
            log_it,
        )
    }

    /// The leaf [`Self::issue_chain_pure`] heads its chain with, and
    /// whether it should be logged, for a caller that sends a chain of
    /// its own making. The profile moves into the certificate.
    pub(crate) fn issue_leaf_pure(&self, idx: usize, leaf: LeafProfile) -> (Certificate, bool) {
        let cert = self.cas[idx].issuing.issue_deterministic_owned(leaf);
        let log_it = idx == LETS_ENCRYPT || {
            // First fingerprint byte as a deterministic 0..256 draw.
            cert.fingerprint().as_bytes()[0] >= 30 // ≈ 88%
        };
        (cert, log_it)
    }

    /// Append a certificate to the shared CT log (the apply half of
    /// [`Self::issue_chain_pure`]).
    pub fn ct_append(&mut self, cert: &Certificate) {
        self.ct.append(cert);
    }

    /// The shared Certificate Transparency log.
    pub fn ct_log(&self) -> &CtLog {
        &self.ct
    }
}

/// Sample an index proportionally to `weights`.
pub fn weighted_pick(rng: &mut impl Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weighted_pick requires a positive total");
    let mut x = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roster_builds_and_has_40_plus_cas() {
        let db = CaDb::build(7);
        assert!(db.len() >= 40, "Figure 2 shows a top-40");
        assert!(!db.is_empty());
    }

    #[test]
    fn trust_store_sizes_follow_the_paper_ordering() {
        // Microsoft ⊇ Apple/NSS (402 vs 174 vs 152 roots in the paper).
        let db = CaDb::build(7);
        let apple = db.trust_store(TrustStoreProfile::Apple).len();
        let ms = db.trust_store(TrustStoreProfile::Microsoft).len();
        let nss = db.trust_store(TrustStoreProfile::Nss).len();
        assert!(ms > apple, "microsoft({ms}) > apple({apple})");
        assert!(ms > nss, "microsoft({ms}) > nss({nss})");
    }

    #[test]
    fn npki_cas_are_untrusted_everywhere() {
        let db = CaDb::build(7);
        for (i, ca) in CA_PROFILES.iter().enumerate() {
            if ca.label.starts_with("CA1") {
                let built = db.get(i);
                for profile in TrustStoreProfile::ALL {
                    assert!(
                        !db.trust_store(profile).contains(&built.root.cert),
                        "{} must be untrusted in {profile:?}",
                        ca.label
                    );
                }
            }
        }
        assert!(!db.untrusted_indices().is_empty());
    }

    #[test]
    fn issued_chain_validates_against_apple_store() {
        let mut db = CaDb::build(7);
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"host");
        let chain = db.issue_chain(
            LETS_ENCRYPT,
            &LeafProfile::dv("city.example.gov", key.public(), Time::from_ymd(2020, 3, 1)),
        );
        assert_eq!(chain.len(), 2);
        let verdict = govscan_pki::validate_chain(
            &chain,
            db.trust_store(TrustStoreProfile::Apple),
            "city.example.gov",
            Time::from_ymd(2020, 4, 22),
        );
        assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[test]
    fn npki_chain_fails_with_local_issuer_error() {
        let mut db = CaDb::build(7);
        let npki = CA_PROFILES
            .iter()
            .position(|p| p.label == "CA134100031")
            .unwrap();
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"krhost");
        let chain = db.issue_chain(
            npki,
            &LeafProfile::dv("minwon.go.kr", key.public(), Time::from_ymd(2020, 3, 1)),
        );
        let err = govscan_pki::validate_chain(
            &chain,
            db.trust_store(TrustStoreProfile::Apple),
            "minwon.go.kr",
            Time::from_ymd(2020, 4, 22),
        )
        .unwrap_err();
        assert_eq!(err, govscan_pki::CertError::UnableToGetLocalIssuer);
    }

    #[test]
    fn pure_issuance_matches_stateful_and_defers_ct() {
        let mut db = CaDb::build(7);
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"host");
        let leaf = LeafProfile::dv("city.example.gov", key.public(), Time::from_ymd(2020, 3, 1));
        let (pure, log_it) = db.issue_chain_pure(LETS_ENCRYPT, &leaf);
        assert!(log_it, "Let's Encrypt logs everything");
        assert_eq!(db.ct_log().size(), 0, "pure issuance never touches CT");
        // Repeatable from &self, and identical to the stateful wrapper.
        let (again, _) = db.issue_chain_pure(LETS_ENCRYPT, &leaf);
        assert_eq!(pure[0].to_der(), again[0].to_der());
        let stateful = db.issue_chain(LETS_ENCRYPT, &leaf);
        assert_eq!(pure[0].to_der(), stateful[0].to_der());
        assert_eq!(db.ct_log().size(), 1);
        db.ct_append(&pure[0]);
        assert_eq!(db.ct_log().size(), 2);
    }

    #[test]
    fn country_overrides_shift_the_distribution() {
        let db = CaDb::build(7);
        let mut rng = StdRng::seed_from_u64(99);
        let mut quovadis_ch = 0;
        let mut quovadis_world = 0;
        let qv = CA_PROFILES
            .iter()
            .position(|p| p.label == "QuoVadis Global SSL ICA G3")
            .unwrap();
        for _ in 0..2000 {
            if db.pick(&mut rng, "ch", true) == qv {
                quovadis_ch += 1;
            }
            if db.pick(&mut rng, "br", true) == qv {
                quovadis_world += 1;
            }
        }
        assert!(
            quovadis_ch > quovadis_world * 5,
            "ch={quovadis_ch} vs br={quovadis_world}"
        );
    }

    #[test]
    fn lets_encrypt_leads_globally() {
        let db = CaDb::build(7);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = vec![0usize; db.len()];
        for _ in 0..5000 {
            counts[db.pick(&mut rng, "br", true)] += 1;
        }
        let max = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .unwrap()
            .0;
        assert_eq!(max, LETS_ENCRYPT);
    }

    #[test]
    fn trusted_only_excludes_npki() {
        let db = CaDb::build(7);
        let mut rng = StdRng::seed_from_u64(11);
        let untrusted = db.untrusted_indices();
        for _ in 0..3000 {
            let idx = db.pick(&mut rng, "kr", true);
            assert!(!untrusted.contains(&idx));
        }
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let weights = [0.0, 10.0, 0.0];
        for _ in 0..100 {
            assert_eq!(weighted_pick(&mut rng, &weights), 1);
        }
    }

    #[test]
    fn deterministic_build() {
        let a = CaDb::build(42);
        let b = CaDb::build(42);
        assert_eq!(a.get(0).root.cert, b.get(0).root.cert);
        assert_eq!(a.get(10).issuing.cert, b.get(10).issuing.cert);
        let c = CaDb::build(43);
        assert_ne!(a.get(0).root.cert, c.get(0).root.cert);
    }

    #[test]
    fn ev_indices_nonempty_and_registered() {
        let db = CaDb::build(7);
        let evs = db.ev_indices();
        assert!(evs.len() >= 8);
        for idx in evs {
            let oid = Oid::parse(db.get(idx).profile.ev_oid.unwrap()).unwrap();
            assert!(db.ev_registry().is_ev_oid(&oid));
        }
    }
}
