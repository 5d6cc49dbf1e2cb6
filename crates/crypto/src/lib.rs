//! # govscan-crypto
//!
//! Cryptographic primitives for the govscan PKI simulation.
//!
//! This crate provides two kinds of functionality:
//!
//! 1. **Real message digests** — [`Md5`], [`Sha1`], [`Sha256`], [`Sha384`]
//!    and [`Sha512`] are complete, from-scratch implementations of the
//!    corresponding RFC 1321 / FIPS 180-4 algorithms, verified against the
//!    published test vectors. They are used for certificate fingerprints,
//!    key identifiers, archive digests and the signature binding below.
//!    (MD5 and SHA-1 are of course broken for collision resistance; they
//!    exist here because the paper *measures* certificates signed with
//!    them.) All five share one fixed-size block buffer, so a hasher
//!    allocates nothing: [`Digest::finalize_fixed`] returns the digest as
//!    a fixed-size array, and [`Digest::finalize`]'s `Vec` is the only
//!    heap allocation, for digests that are kept. SHA-256 and SHA-224 compress on
//!    the x86 SHA extensions when the CPU has them, chosen at run time
//!    ([`sha256::kernel`] names the choice), and on the portable
//!    implementation everywhere else; both give the same bytes.
//!
//! 2. **Simulated public-key signatures** — the study this workspace
//!    reproduces never attacks RSA/ECDSA mathematics; it only needs
//!    signatures that bind a to-be-signed byte string to exactly one issuer
//!    key, fail on any tamper or wrong-issuer verification, and carry the
//!    algorithm / key-size metadata that the analysis groups by. [`KeyPair`]
//!    and [`sign()`]/[`verify()`] provide those properties deterministically:
//!    a key pair is a 32-byte secret, its public key is
//!    `SHA-256("govscan-pubkey-v1" ‖ secret)`, and a signature over `tbs` is
//!    `SHA-256("govscan-sig-v1" ‖ algorithm OID ‖ signer public key ‖
//!    H_alg(tbs))`, with `H_alg` the algorithm's own hash. The secret never
//!    enters the signature, so a verifier recomputes it from the public key;
//!    any tamper, issuer substitution, or algorithm confusion fails
//!    verification. Outside-attacker unforgeability is not modelled (the
//!    simulation is a closed world). See DESIGN.md §1 for the substitution
//!    rationale.
//!
//! The SHA extension kernel is the crate's only `unsafe` code, confined to
//! one private module; the rest of the crate denies `unsafe`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod fingerprint;
pub mod hex;
pub mod hmac;
pub mod keys;
pub mod md5;
pub mod sha1;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha256_ni;
pub mod sha512;
pub mod sign;

pub use digest::Digest;
pub use fingerprint::Fingerprint;
pub use keys::{KeyAlgorithm, KeyPair, PublicKey};
pub use md5::Md5;
pub use sha1::Sha1;
pub use sha256::{Sha224, Sha256};
pub use sha512::{Sha384, Sha512};
pub use sign::{sign, verify, HashAlgorithm, Signature, SignatureAlgorithm};
