//! Simulated certificate signatures.
//!
//! A [`Signature`] deterministically binds `(algorithm, signer public key,
//! message)`: any tamper with the signed bytes, any substitution of the
//! claimed issuer key, and any algorithm confusion is detected by
//! [`verify`]. This is exactly the set of properties the reproduced
//! measurement study exercises (chain linking, tamper detection, and
//! algorithm metadata); existential unforgeability against an outside
//! attacker is *not* modelled — the simulation is a closed world. See
//! DESIGN.md §1.

use crate::digest::Digest;
use crate::keys::{KeyAlgorithm, KeyPair, PublicKey};
use crate::md5::Md5;
use crate::sha1::Sha1;
use crate::sha256::Sha256;
use crate::sha512::Sha384;

/// The hash function inside a signature algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashAlgorithm {
    /// MD5 (broken; measured in the wild by the paper).
    Md5,
    /// SHA-1 (deprecated; measured in the wild by the paper).
    Sha1,
    /// SHA-256.
    Sha256,
    /// SHA-384.
    Sha384,
}

impl HashAlgorithm {
    /// Hash `data` with this algorithm and hand the digest to `sink`,
    /// from a fixed-size array: no allocation.
    pub fn hash<R>(self, data: &[u8], sink: impl FnOnce(&[u8]) -> R) -> R {
        match self {
            HashAlgorithm::Md5 => sink(&Md5::digest_fixed(data)),
            HashAlgorithm::Sha1 => sink(&Sha1::digest_fixed(data)),
            HashAlgorithm::Sha256 => sink(&Sha256::digest_fixed(data)),
            HashAlgorithm::Sha384 => sink(&Sha384::digest_fixed(data)),
        }
    }

    /// `true` for hashes no longer acceptable in certificate signatures
    /// (MD5, SHA-1) — the §5.3.2 "920 government websites still use MD5 or
    /// SHA-1" classification.
    pub fn is_weak(self) -> bool {
        matches!(self, HashAlgorithm::Md5 | HashAlgorithm::Sha1)
    }
}

/// X.509 signature algorithms observed by the study (Fig 4, Fig 9, Fig 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SignatureAlgorithm {
    /// md5WithRSAEncryption (1.2.840.113549.1.1.4)
    Md5WithRsa,
    /// sha1WithRSAEncryption (1.2.840.113549.1.1.5)
    Sha1WithRsa,
    /// sha256WithRSAEncryption (1.2.840.113549.1.1.11)
    Sha256WithRsa,
    /// sha384WithRSAEncryption (1.2.840.113549.1.1.12)
    Sha384WithRsa,
    /// RSASSA-PSS (1.2.840.113549.1.1.10)
    RsaPss,
    /// ecdsa-with-SHA256 (1.2.840.10045.4.3.2)
    EcdsaWithSha256,
    /// ecdsa-with-SHA384 (1.2.840.10045.4.3.3)
    EcdsaWithSha384,
}

impl SignatureAlgorithm {
    /// All algorithms, in a stable order (used by distributions and tables).
    pub const ALL: [SignatureAlgorithm; 7] = [
        SignatureAlgorithm::Md5WithRsa,
        SignatureAlgorithm::Sha1WithRsa,
        SignatureAlgorithm::Sha256WithRsa,
        SignatureAlgorithm::Sha384WithRsa,
        SignatureAlgorithm::RsaPss,
        SignatureAlgorithm::EcdsaWithSha256,
        SignatureAlgorithm::EcdsaWithSha384,
    ];

    /// The dotted-form object identifier, as it appears in DER.
    pub fn oid(self) -> &'static str {
        match self {
            SignatureAlgorithm::Md5WithRsa => "1.2.840.113549.1.1.4",
            SignatureAlgorithm::Sha1WithRsa => "1.2.840.113549.1.1.5",
            SignatureAlgorithm::Sha256WithRsa => "1.2.840.113549.1.1.11",
            SignatureAlgorithm::Sha384WithRsa => "1.2.840.113549.1.1.12",
            SignatureAlgorithm::RsaPss => "1.2.840.113549.1.1.10",
            SignatureAlgorithm::EcdsaWithSha256 => "1.2.840.10045.4.3.2",
            SignatureAlgorithm::EcdsaWithSha384 => "1.2.840.10045.4.3.3",
        }
    }

    /// Parse from a dotted-form OID.
    pub fn from_oid(oid: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.oid() == oid)
    }

    /// Human-readable name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SignatureAlgorithm::Md5WithRsa => "md5WithRSAEncryption",
            SignatureAlgorithm::Sha1WithRsa => "sha1WithRSAEncryption",
            SignatureAlgorithm::Sha256WithRsa => "sha256WithRSAEncryption",
            SignatureAlgorithm::Sha384WithRsa => "sha384WithRSAEncryption",
            SignatureAlgorithm::RsaPss => "rsassaPss",
            SignatureAlgorithm::EcdsaWithSha256 => "ecdsa-with-SHA256",
            SignatureAlgorithm::EcdsaWithSha384 => "ecdsa-with-SHA384",
        }
    }

    /// The hash component.
    pub fn hash(self) -> HashAlgorithm {
        match self {
            SignatureAlgorithm::Md5WithRsa => HashAlgorithm::Md5,
            SignatureAlgorithm::Sha1WithRsa => HashAlgorithm::Sha1,
            SignatureAlgorithm::Sha256WithRsa | SignatureAlgorithm::RsaPss => HashAlgorithm::Sha256,
            SignatureAlgorithm::Sha384WithRsa => HashAlgorithm::Sha384,
            SignatureAlgorithm::EcdsaWithSha256 => HashAlgorithm::Sha256,
            SignatureAlgorithm::EcdsaWithSha384 => HashAlgorithm::Sha384,
        }
    }

    /// `true` for ECDSA variants (require an EC signer key).
    pub fn is_ecdsa(self) -> bool {
        matches!(
            self,
            SignatureAlgorithm::EcdsaWithSha256 | SignatureAlgorithm::EcdsaWithSha384
        )
    }

    /// Whether `key` can produce this kind of signature.
    pub fn compatible_with(self, key: KeyAlgorithm) -> bool {
        self.is_ecdsa() == key.is_ec()
    }
}

/// A signature value plus the algorithm that produced it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The algorithm identifier.
    pub algorithm: SignatureAlgorithm,
    /// The 32-byte binding value.
    pub bytes: Vec<u8>,
}

const SIG_DOMAIN: &[u8] = b"govscan-sig-v1";

/// The signature value over `tbs` by the key whose public bytes are
/// `signer_pub`. The inner hash and the binding finalize into arrays:
/// only a kept signature allocates.
fn binding(algorithm: SignatureAlgorithm, signer_pub: &[u8], tbs: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(SIG_DOMAIN);
    h.update(algorithm.oid().as_bytes());
    h.update(signer_pub);
    algorithm.hash().hash(tbs, |inner| h.update(inner));
    h.finalize_fixed()
}

/// Errors from [`sign`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignError {
    /// Key family does not match the algorithm (e.g. ECDSA with an RSA key).
    IncompatibleKey,
}

impl std::fmt::Display for SignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignError::IncompatibleKey => write!(f, "key family incompatible with algorithm"),
        }
    }
}

impl std::error::Error for SignError {}

/// Sign `tbs` with `key` under `algorithm`.
pub fn sign(
    key: &KeyPair,
    algorithm: SignatureAlgorithm,
    tbs: &[u8],
) -> Result<Signature, SignError> {
    if !algorithm.compatible_with(key.algorithm) {
        return Err(SignError::IncompatibleKey);
    }
    // The key enters only through its public half: the binding is
    // public-key-recomputable (closed-world model).
    Ok(Signature {
        algorithm,
        bytes: binding(algorithm, &key.public_bytes(), tbs).to_vec(),
    })
}

/// Verify `signature` over `tbs` against the claimed signer public key.
pub fn verify(signer_pub: &PublicKey, signature: &Signature, tbs: &[u8]) -> bool {
    if !signature.algorithm.compatible_with(signer_pub.algorithm) {
        return false;
    }
    signature.bytes[..] == binding(signature.algorithm, &signer_pub.bytes, tbs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rsa_key() -> KeyPair {
        KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"rsa-test")
    }

    fn ec_key() -> KeyPair {
        KeyPair::from_seed(KeyAlgorithm::Ec(256), b"ec-test")
    }

    #[test]
    fn sign_verify_round_trip() {
        let key = rsa_key();
        let sig = sign(&key, SignatureAlgorithm::Sha256WithRsa, b"tbs bytes").unwrap();
        assert!(verify(&key.public(), &sig, b"tbs bytes"));
    }

    #[test]
    fn tampered_message_fails() {
        let key = rsa_key();
        let sig = sign(&key, SignatureAlgorithm::Sha256WithRsa, b"tbs bytes").unwrap();
        assert!(!verify(&key.public(), &sig, b"tbs bytes!"));
    }

    #[test]
    fn wrong_signer_fails() {
        let key = rsa_key();
        let other = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"other");
        let sig = sign(&key, SignatureAlgorithm::Sha256WithRsa, b"tbs").unwrap();
        assert!(!verify(&other.public(), &sig, b"tbs"));
    }

    #[test]
    fn algorithm_confusion_fails() {
        let key = rsa_key();
        let mut sig = sign(&key, SignatureAlgorithm::Sha256WithRsa, b"tbs").unwrap();
        sig.algorithm = SignatureAlgorithm::Sha1WithRsa;
        assert!(!verify(&key.public(), &sig, b"tbs"));
    }

    #[test]
    fn incompatible_key_rejected_at_sign() {
        assert_eq!(
            sign(&rsa_key(), SignatureAlgorithm::EcdsaWithSha256, b"x").unwrap_err(),
            SignError::IncompatibleKey
        );
        assert_eq!(
            sign(&ec_key(), SignatureAlgorithm::Sha256WithRsa, b"x").unwrap_err(),
            SignError::IncompatibleKey
        );
    }

    #[test]
    fn incompatible_key_rejected_at_verify() {
        let ec = ec_key();
        let sig = sign(&ec, SignatureAlgorithm::EcdsaWithSha256, b"x").unwrap();
        // Claimed signer is RSA: must fail even with matching bytes.
        assert!(!verify(&rsa_key().public(), &sig, b"x"));
    }

    #[test]
    fn ecdsa_round_trip() {
        let key = ec_key();
        let sig = sign(&key, SignatureAlgorithm::EcdsaWithSha384, b"ec tbs").unwrap();
        assert!(verify(&key.public(), &sig, b"ec tbs"));
    }

    #[test]
    fn oid_round_trip() {
        for alg in SignatureAlgorithm::ALL {
            assert_eq!(SignatureAlgorithm::from_oid(alg.oid()), Some(alg));
        }
        assert_eq!(SignatureAlgorithm::from_oid("1.2.3"), None);
    }

    #[test]
    fn weak_hash_classification() {
        assert!(SignatureAlgorithm::Md5WithRsa.hash().is_weak());
        assert!(SignatureAlgorithm::Sha1WithRsa.hash().is_weak());
        assert!(!SignatureAlgorithm::Sha256WithRsa.hash().is_weak());
        assert!(!SignatureAlgorithm::EcdsaWithSha384.hash().is_weak());
    }
}
