//! # govscan-store: scan-snapshot archive + longitudinal diff
//!
//! The measurement study ("Accept the Risk and Continue", IMC 2020) is
//! longitudinal at heart: the headline disclosure result (Figure 13)
//! compares a scan against a rescan sixty days later. Until now the
//! repo could only produce that comparison with both scans live in
//! memory, regenerated from the simulated Internet on every run. This
//! crate makes scans durable:
//!
//! * [`snapshot`] — a versioned binary format for [`ScanDataset`]:
//!   magic/version header, checksummed sections, an interned string
//!   table, a content-addressed certificate pool, and fixed-width host
//!   records. [`snapshot::SnapshotWriter`] streams with bounded memory.
//! * [`lazy`] — the [`Snapshot`] facade: the one entry point for
//!   archive I/O and the only `GOVSNAP1` reader. Writing
//!   ([`Snapshot::encode`], [`Snapshot::write_file`],
//!   [`Snapshot::digest_of`]) wraps the streaming writer; reading opens
//!   cheap (header + section table + meta only) and verifies and
//!   decodes each section on first touch, so point queries —
//!   [`Snapshot::host`], [`Snapshot::host_by_name`] — never
//!   materialize a full dataset, and [`Snapshot::dataset`] has checked
//!   every section before it returns. Serve, monitor and the repro
//!   tools all read through it.
//! * [`diff`] — host-level transitions between two snapshots: the
//!   state-migration matrix, newly-valid/newly-broken hosts, HSTS and
//!   chain churn, and per-country improvement rates.
//! * [`delta`] — `GOVDLT1` delta snapshots for year-long monitoring:
//!   one epoch's changed/added/removed records against a base archive
//!   named by content digest, with [`Snapshot::resolve_chain`] walking
//!   a base + delta sequence back to each full archive bit-for-bit
//!   ([`Snapshot::open_chain`] keeps the last).
//! * [`wire`], [`intern`], [`error`] — the byte codec, string
//!   interning, and the typed [`StoreError`] every failure maps to.
//!
//! Both formats share one crate-private container module (header,
//! checksummed section table, count × width cross-check, string list),
//! which bounds every allocation by the bytes present.
//!
//! The round-trip invariant — write → read yields a dataset that is
//! semantically identical, proven by [`Snapshot::digest_of`] equality
//! and byte-identical analysis renders — is asserted in this crate's
//! tests (`tests/roundtrip.rs`); the archive's first measurement also
//! asserted it at the paper's 135,408-host scale before timing anything
//! (CHANGES.md, "binary scan-snapshot archive").
//!
//! [`ScanDataset`]: govscan_scanner::ScanDataset

pub(crate) mod container;
pub mod delta;
pub mod diff;
pub mod error;
pub mod intern;
pub mod lazy;
pub mod snapshot;
pub mod wire;

pub use delta::{Delta, DELTA_MAGIC, DELTA_VERSION};
pub use diff::{diff_datasets, diff_snapshot_files, CountryDelta, HostState, SnapshotDiff};
pub use error::{Result, StoreError};
pub use lazy::Snapshot;
pub use snapshot::{Section, SnapshotWriter, MAGIC, VERSION};
