//! # govscan-scanner
//!
//! The measurement pipeline of the study, implemented end to end:
//!
//! 1. [`filter`] — the conservative government-hostname filter of §4.1.1
//!    (suffix conventions × country codes, label-boundary strict — it
//!    must reject `abcgov.us` lookalikes).
//! 2. [`seeds`] — merging the public ranking lists into the seed list.
//! 3. [`mturk`] — the Mechanical-Turk expansion for under-represented
//!    countries (§4.2.1), as a crowd-response model.
//! 4. [`crawler`] — the 7-level breadth-first crawler of §4.2.2 with
//!    per-level growth statistics (Figure A.4).
//! 5. [`probe`] + [`classify`] — the per-host scan: DNS, TCP 80/443, a
//!    full TLS handshake, certificate-chain retrieval and validation,
//!    CAA lookup, and hosting attribution; failures are classified into
//!    exactly the Table 2 taxonomy.
//! 6. [`pipeline`] — the end-to-end study driver producing a
//!    [`dataset::ScanDataset`], and [`ShardScanner`], the one scan step
//!    over a planned world's shards (streamed pipeline, monitor epochs,
//!    distributed workers).
//! 7. [`incremental`] — rescan planning for the longitudinal monitor:
//!    probe only hosts whose measurement could have changed since the
//!    previous epoch, splice the rest forward.
//!
//! The scanner dials only the simulated wire ([`govscan_net::SimNet`]);
//! it never reads generator ground truth. Scan workers claim hostnames
//! one at a time from the shared executor ([`govscan_exec`]), and all of
//! them share one [`govscan_pki::ChainVerdictCache`], so a certificate
//! chain that repeats is structurally validated twice per scan, not
//! once per host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod crawler;
pub mod dataset;
pub mod filter;
pub mod incremental;
pub mod mturk;
pub mod pipeline;
pub mod probe;
pub mod seeds;

pub use classify::{CertMeta, ErrorCategory, HttpsStatus};
pub use dataset::{ScanDataset, ScanRecord};
pub use filter::GovFilter;
pub use incremental::{
    plan_rescan, Decision, IncrementalPlan, IncrementalPolicy, IncrementalStats, SelectReason,
};
pub use pipeline::{Discovery, ListScanner, ShardScanner, StudyOutput, StudyPipeline};
pub use probe::{scan_host, scan_hosts, ScanContext};
