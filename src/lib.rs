//! # govscan
//!
//! A full reproduction of *"Accept the Risk and Continue: Measuring the
//! Long Tail of Government https Adoption"* (IMC 2020) over a deterministic
//! synthetic Internet, written in Rust.
//!
//! This facade crate re-exports every sub-crate of the workspace so that
//! downstream users (and the `examples/`) can depend on a single crate:
//!
//! - [`crypto`] — digests (MD5/SHA-1/SHA-2, from scratch) and simulated
//!   key pairs / signatures.
//! - [`asn1`] — a DER reader/writer (tags, OIDs, times, strings).
//! - [`pki`] — X.509 certificates, certificate authorities, trust stores,
//!   chain building and validation with the paper's full error taxonomy.
//! - [`net`] — the simulated network substrate: DNS (A + CAA), TCP, TLS
//!   server personalities, HTTP responders, and the [`net::SimNet`]
//!   registry the scanner dials.
//! - [`worldgen`] — the synthetic-Internet generator calibrated to the
//!   paper's published distributions.
//! - [`scanner`] — the measurement pipeline: government-hostname filter,
//!   seed merging, MTurk expansion, the 7-level crawler, the scan engine,
//!   and the error classifier.
//! - [`analysis`] — statistics and a builder for every table and figure in
//!   the paper.
//! - [`disclosure`] — the responsible-disclosure campaign simulation and
//!   the two-months-later effectiveness re-scan.
//!
//! ## Quickstart
//!
//! ```
//! use govscan::worldgen::{World, WorldConfig};
//! use govscan::scanner::pipeline::StudyPipeline;
//!
//! // A small world: ~1% of the paper's scale, fully deterministic.
//! let world = World::generate(&WorldConfig::small(42));
//! let study = StudyPipeline::new(&world).run();
//! let index = govscan::analysis::aggregate::AggregateIndex::build(&study.scan);
//! let t2 = govscan::analysis::table2::build_from_index(&index);
//! assert!(t2.total > 0);
//! ```

#![forbid(unsafe_code)]

pub use govscan_analysis as analysis;
pub use govscan_asn1 as asn1;
pub use govscan_crypto as crypto;
pub use govscan_disclosure as disclosure;
pub use govscan_net as net;
pub use govscan_pki as pki;
pub use govscan_scanner as scanner;
pub use govscan_worldgen as worldgen;
