//! Simulated public/private key pairs.
//!
//! A [`KeyPair`] carries the *metadata* the measurement study groups
//! certificates by — key family (RSA vs elliptic-curve) and nominal bit
//! size — together with a 32-byte secret from which the public key is
//! deterministically derived. See the crate docs for why a simulated
//! scheme is the right substitution for this reproduction.

use std::io::Write;

use crate::digest::Digest;
use crate::fingerprint::Fingerprint;
use crate::sha256::Sha256;

/// The key family and nominal size, as reported in certificate metadata.
///
/// The variants cover every size the paper observes in the wild, including
/// the misconfiguration-prone odd sizes (`Rsa3248`, `Rsa8192`) called out
/// in §5.3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyAlgorithm {
    /// RSA with the given modulus size in bits.
    Rsa(u16),
    /// Elliptic-curve (prime-field NIST curve) with the given size in bits.
    Ec(u16),
}

impl KeyAlgorithm {
    /// Nominal key size in bits.
    pub fn bits(self) -> u16 {
        match self {
            KeyAlgorithm::Rsa(b) | KeyAlgorithm::Ec(b) => b,
        }
    }

    /// `true` for elliptic-curve keys.
    pub fn is_ec(self) -> bool {
        matches!(self, KeyAlgorithm::Ec(_))
    }

    /// Whether this key is considered cryptographically weak by the
    /// NIST SP 800-131 guidance the paper cites (RSA < 2048 bits).
    pub fn is_weak(self) -> bool {
        match self {
            KeyAlgorithm::Rsa(b) => b < 2048,
            KeyAlgorithm::Ec(b) => b < 224,
        }
    }

    /// Short human-readable label used in analysis tables, e.g. `RSA-2048`.
    pub fn label(self) -> String {
        match self {
            KeyAlgorithm::Rsa(b) => format!("RSA-{b}"),
            KeyAlgorithm::Ec(b) => format!("EC-{b}"),
        }
    }

    /// [`Self::label`]'s bytes, written into `buf` instead of a new
    /// `String`: the key derivations hash them on every call.
    fn label_into(self, buf: &mut [u8; 9]) -> &[u8] {
        let mut rest = &mut buf[..];
        let written = match self {
            KeyAlgorithm::Rsa(b) => write!(rest, "RSA-{b}"),
            KeyAlgorithm::Ec(b) => write!(rest, "EC-{b}"),
        };
        written.expect("the longest label, `RSA-65535`, is nine bytes");
        let len = 9 - rest.len();
        &buf[..len]
    }
}

/// A public key: algorithm metadata plus the derived key bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PublicKey {
    /// Key family and size.
    pub algorithm: KeyAlgorithm,
    /// Derived public key material (32 bytes).
    pub bytes: Vec<u8>,
}

impl PublicKey {
    /// SHA-256 fingerprint of the public key. Used by the key-reuse
    /// analysis (§5.3.3) to find identical keys across hosts.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = Sha256::new();
        h.update(&self.bytes);
        h.update(self.algorithm.label_into(&mut [0; 9]));
        Fingerprint(h.finalize_fixed())
    }
}

/// A simulated key pair. The secret is 32 bytes; the public key is
/// `SHA-256("govscan-pubkey-v1" ‖ secret)`.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// Key family and size (metadata only; see crate docs).
    pub algorithm: KeyAlgorithm,
    secret: [u8; 32],
}

const PUBKEY_DOMAIN: &[u8] = b"govscan-pubkey-v1";

impl KeyPair {
    /// Derive a key pair deterministically from a seed. Two calls with the
    /// same `(algorithm, seed)` produce the same pair — the world generator
    /// relies on this both for reproducibility and for injecting the
    /// *intentional* key-reuse pathologies the paper measures.
    pub fn from_seed(algorithm: KeyAlgorithm, seed: &[u8]) -> Self {
        Self::from_seed_parts(algorithm, &[seed])
    }

    /// [`Self::from_seed`] with the seed given as the concatenation of
    /// `parts`, hashed one after another: `from_seed_parts(alg,
    /// &[b"hostkey-", host])` is `from_seed(alg, format!("hostkey-{host}"))`
    /// without building the string.
    pub fn from_seed_parts(algorithm: KeyAlgorithm, parts: &[&[u8]]) -> Self {
        let mut h = Sha256::new();
        h.update(b"govscan-keyseed-v1");
        h.update(algorithm.label_into(&mut [0; 9]));
        for part in parts {
            h.update(part);
        }
        KeyPair {
            algorithm,
            secret: h.finalize_fixed(),
        }
    }

    /// The public half of the pair.
    pub fn public(&self) -> PublicKey {
        PublicKey {
            algorithm: self.algorithm,
            bytes: self.public_bytes().to_vec(),
        }
    }

    /// The public key bytes of [`Self::public`], without allocating.
    pub(crate) fn public_bytes(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(PUBKEY_DOMAIN);
        h.update(&self.secret);
        h.finalize_fixed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_derivation() {
        let a = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"seed");
        let b = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"seed");
        assert_eq!(a.public(), b.public());
    }

    #[test]
    fn seed_parts_hash_as_their_concatenation() {
        for alg in [KeyAlgorithm::Rsa(2048), KeyAlgorithm::Ec(256)] {
            let whole = KeyPair::from_seed(alg, b"hostkey-www.nih.gov").public();
            for parts in [
                &[&b"hostkey-"[..], b"www.nih.gov"][..],
                &[b"host", b"key-www", b"", b".nih.gov"],
                &[b"hostkey-www.nih.gov"],
            ] {
                assert_eq!(KeyPair::from_seed_parts(alg, parts).public(), whole);
            }
        }
    }

    #[test]
    fn different_seed_different_key() {
        let a = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"seed-1");
        let b = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"seed-2");
        assert_ne!(a.public().bytes, b.public().bytes);
    }

    #[test]
    fn different_algorithm_different_key() {
        let a = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"seed");
        let b = KeyPair::from_seed(KeyAlgorithm::Ec(256), b"seed");
        assert_ne!(a.public().bytes, b.public().bytes);
    }

    #[test]
    fn weakness_classification() {
        assert!(KeyAlgorithm::Rsa(1024).is_weak());
        assert!(!KeyAlgorithm::Rsa(2048).is_weak());
        assert!(!KeyAlgorithm::Rsa(4096).is_weak());
        assert!(!KeyAlgorithm::Ec(256).is_weak());
        assert!(KeyAlgorithm::Ec(192).is_weak());
    }

    #[test]
    fn fingerprint_distinguishes_algorithms() {
        // Same secret bytes but different metadata must not collide in the
        // reuse analysis.
        let a = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"x").public();
        let b = KeyPair::from_seed(KeyAlgorithm::Rsa(4096), b"x").public();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn derivation_is_pinned() {
        // The public key and its fingerprint, both derived through the
        // algorithm label's bytes, pinned to the values the label
        // `String` gave.
        let mut pinned = Vec::new();
        for (algorithm, seed) in [
            (KeyAlgorithm::Rsa(2048), &b"www.nih.gov"[..]),
            (KeyAlgorithm::Ec(256), &b"minwon.go.kr"[..]),
        ] {
            let public = KeyPair::from_seed(algorithm, seed).public();
            pinned.push((
                crate::hex::encode(&public.bytes),
                public.fingerprint().to_hex(),
            ));
        }
        let pin = |key: &str, fingerprint: &str| (key.to_string(), fingerprint.to_string());
        assert_eq!(
            pinned,
            [
                pin(
                    "f187c40127ad5902228222a3b910dcc6963af203dd4f8ff567306a70282ecf41",
                    "63078e3e2a14e8dc95a95a5e4dccc98f72469e967293596a1de566ab460548f8"
                ),
                pin(
                    "c634270081f6efa5c48bd0bfd2b68d099e6283661b04df1943742ea5cb067676",
                    "b066061222b54b2259d33a906230ded2b99ba71243c83568940156284c3f9b64"
                ),
            ]
        );
    }

    #[test]
    fn labels() {
        assert_eq!(KeyAlgorithm::Rsa(2048).label(), "RSA-2048");
        assert_eq!(KeyAlgorithm::Ec(256).label(), "EC-256");
        for alg in [
            KeyAlgorithm::Rsa(2048),
            KeyAlgorithm::Rsa(u16::MAX),
            KeyAlgorithm::Ec(0),
            KeyAlgorithm::Ec(384),
        ] {
            assert_eq!(alg.label_into(&mut [0; 9]), alg.label().as_bytes());
        }
        assert_eq!(KeyAlgorithm::Ec(384).bits(), 384);
        assert!(KeyAlgorithm::Ec(256).is_ec());
        assert!(!KeyAlgorithm::Rsa(2048).is_ec());
    }
}
