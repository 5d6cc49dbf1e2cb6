//! Distributed scan orchestration: the streamed pipeline across worker
//! connections, split by lease-based coordination.
//!
//! The paper's April 2020 scan of ~135k government hosts ran in one
//! process. This crate scales a scan past one process the way ZMap
//! splits one across instances: by shard index over a shared seed, so
//! each worker works out its own targets and nobody sends it a list. A
//! **coordinator** leases the shard indices of a world plan to N workers
//! as deadline-carrying [`Lease`]s. Each worker realizes and scans its
//! shard, a pure function of `(config, shard)`, and returns the records
//! as snapshot bytes. The coordinator appends committed shards to a
//! `govscan-store` [`SnapshotWriter`] in shard order, so its archive is
//! byte-identical to the single-process streamed pipeline's.
//!
//! Fault model (at-least-once, idempotent):
//!
//! * A worker that **dies** drops its connection; the coordinator
//!   abandons its outstanding lease and re-issues it immediately.
//! * A worker that **stalls** past its lease deadline has the lease
//!   expire and re-issued to a live worker. If the stalled worker later
//!   delivers anyway, the first commit has already won and the late
//!   result is dropped (or, if it races ahead of the re-issued holder,
//!   accepted — a shard's scan depends only on its index, so either
//!   attempt's data is byte-identical).
//! * The run ends with a coverage check: the archived host count must
//!   equal the plan's.
//!
//! There is one deployment shape: a [`Coordinator`] serving worker
//! connections ([`run_worker`]) over the length-prefixed [`protocol`]
//! on a TCP socket. In-process threads are the job of
//! `govscan_exec::pipeline::run`; this crate is that pipeline's ticket
//! claim one level up, across processes.
//!
//! [`Lease`]: lease::Lease
//! [`SnapshotWriter`]: govscan_store::SnapshotWriter

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod lease;
pub mod protocol;
pub mod worker;

pub use coordinator::{Coordinator, OrchestrationReport, OrchestratorConfig};
pub use lease::{Acquire, CommitOutcome, Lease, LeaseTable, OrchestrationStats};
pub use protocol::Message;
pub use worker::{run_worker, WorkerFaults, WorkerSummary};

/// Everything that can go wrong while orchestrating a distributed scan.
#[derive(Debug)]
pub enum OrchestrateError {
    /// Socket / transport failure.
    Io(std::io::Error),
    /// A shard's dataset failed to encode, decode or archive.
    Store(govscan_store::StoreError),
    /// A peer violated the wire protocol (bad tag, wrong echo, …).
    Protocol(String),
    /// Every worker connection was lost before the scan completed.
    WorkersLost {
        /// What the coordinator observed.
        detail: String,
    },
    /// The archive does not hold the plan's host count.
    Coverage {
        /// The two counts.
        detail: String,
    },
}

impl std::fmt::Display for OrchestrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrchestrateError::Io(e) => write!(f, "orchestration i/o error: {e}"),
            OrchestrateError::Store(e) => write!(f, "shard snapshot error: {e}"),
            OrchestrateError::Protocol(what) => write!(f, "protocol violation: {what}"),
            OrchestrateError::WorkersLost { detail } => {
                write!(f, "all workers lost before completion: {detail}")
            }
            OrchestrateError::Coverage { detail } => {
                write!(f, "archive fails coverage check: {detail}")
            }
        }
    }
}

impl std::error::Error for OrchestrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrchestrateError::Io(e) => Some(e),
            OrchestrateError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for OrchestrateError {
    fn from(e: std::io::Error) -> OrchestrateError {
        OrchestrateError::Io(e)
    }
}

impl From<govscan_store::StoreError> for OrchestrateError {
    fn from(e: govscan_store::StoreError) -> OrchestrateError {
        OrchestrateError::Store(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OrchestrateError>;
