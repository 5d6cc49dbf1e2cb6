//! # govscan-pki
//!
//! The X.509 public-key-infrastructure substrate: certificates with real
//! DER encodings, certificate authorities, trust stores, chain building,
//! and a validator that reproduces the error taxonomy of the IMC 2020
//! study this workspace reproduces (hostname mismatch, unable to get local
//! issuer certificate, self-signed leaf, self-signed certificate in chain,
//! expired, …).
//!
//! The crate deliberately mirrors the shape of a real PKI stack:
//!
//! - [`Certificate`] is a full `TBSCertificate ‖ signatureAlgorithm ‖
//!   signature` structure, DER-encoded once when it is built
//!   ([`Certificate::sign`], [`Certificate::new`]) and re-parsed, strictly,
//!   by [`Certificate::from_der`]; the validator verifies signatures over
//!   the *encoded TBS bytes*, exactly as OpenSSL does — the very bytes the
//!   issuer signed, kept inside the DER ([`Certificate::tbs_der`]). A
//!   certificate is immutable and `Arc`-shared, so cloning a chain copies
//!   pointers, not certificates.
//! - [`CertificateAuthority`] issues leaf and intermediate certificates
//!   under configurable policy (validity length, serial strategy, EV
//!   policy OIDs) — including, on request, the pathological artifacts the
//!   paper measures (decade-long validity, serial and key reuse, wildcard
//!   scope misuse).
//! - [`TrustStore`] models root-store profiles; the study used the Apple
//!   store as the most restrictive of Apple (174 roots) / Microsoft (402)
//!   / Mozilla NSS (152). Roots are found by fingerprint (anchor check)
//!   and by [`DistinguishedName`] (issuer lookup).
//! - [`validate::validate_chain`] is the OpenSSL-equivalent verdict the
//!   whole analysis pipeline keys off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ca;
pub mod caa;
pub mod cert;
pub mod ctlog;
pub mod ev;
pub mod extensions;
pub mod hostname;
pub mod name;
pub mod oids;
pub mod trust;
pub mod validate;
pub mod vcache;

pub use ca::{CertificateAuthority, IssuancePolicy, LeafProfile};
pub use cert::{Certificate, TbsCertificate, Validity};
pub use extensions::{BasicConstraints, Extensions, KeyUsage};
pub use name::DistinguishedName;
pub use trust::{TrustStore, TrustStoreProfile};
pub use validate::{
    check_hostname, validate_chain, validate_chain_structure, CertError, ValidatedChain,
};
pub use vcache::ChainVerdictCache;

pub use govscan_asn1::Time;
pub use govscan_crypto::{Fingerprint, KeyAlgorithm, KeyPair, PublicKey, SignatureAlgorithm};
