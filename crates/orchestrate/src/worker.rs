//! The worker side of the socket protocol: connect, loop
//! Request → Grant → scan → Result until the coordinator says Done.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use govscan_scanner::ScanRecord;
use govscan_store::Snapshot;

use crate::protocol::{read_message, write_message, Message};
use crate::{OrchestrateError, Result};

/// Faults to inject, keyed by lease: a fault fires in whichever worker
/// is granted that `(shard, attempt)`, so every worker can carry the
/// same plan and the fault lands on a grant every run makes, whichever
/// worker connects first. `(0, 1)` is the table's first grant.
#[derive(Debug, Default, Clone)]
pub struct WorkerFaults {
    /// Crash (drop the connection without a word) upon being granted
    /// this `(shard, attempt)`, before scanning it.
    pub death: Option<(usize, u32)>,
    /// `(shard, attempt, pause)`: sleep this long upon being granted
    /// that lease, before scanning — long enough and the lease expires
    /// under us.
    pub stall: Option<(usize, u32, Duration)>,
}

/// What a worker did before disconnecting.
#[derive(Debug, Default, Clone)]
pub struct WorkerSummary {
    /// Shards scanned and delivered.
    pub shards: u64,
    /// Hosts scanned across all delivered shards.
    pub hosts: u64,
    /// True if the worker exited via an injected death (the connection
    /// was dropped deliberately, not drained with Done).
    pub died: bool,
}

/// Run a worker against the coordinator at `addr`. `scan` maps a
/// granted shard index to that shard's records; in the `distributed`
/// binary it is the streamed pipeline's producer,
/// `ShardScanner::scan_shard`. The records go back as a snapshot with
/// no scan time: the coordinator's archive carries it. An injected
/// death returns `Ok` with [`WorkerSummary::died`] set — the "failure"
/// is the point.
pub fn run_worker<A, F>(
    addr: A,
    worker_id: u64,
    mut scan: F,
    faults: &WorkerFaults,
) -> Result<WorkerSummary>
where
    A: ToSocketAddrs,
    F: FnMut(usize) -> Vec<ScanRecord>,
{
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_message(&mut stream, &Message::Hello { worker: worker_id })?;
    let mut summary = WorkerSummary::default();
    loop {
        write_message(&mut stream, &Message::Request)?;
        let (shard, attempt) = match read_message(&mut stream)? {
            Message::Grant { shard, attempt } => (shard, attempt),
            Message::Done => return Ok(summary),
            other => {
                return Err(OrchestrateError::Protocol(format!(
                    "expected Grant or Done, got {other:?}"
                )))
            }
        };
        let lease = (shard as usize, attempt);
        if faults.death == Some(lease) {
            // Crash: drop the stream on the floor mid-lease. The
            // coordinator sees EOF and abandons the lease.
            summary.died = true;
            return Ok(summary);
        }
        if let Some((_, _, pause)) = faults.stall.filter(|&(s, a, _)| (s, a) == lease) {
            std::thread::sleep(pause);
        }
        let records = scan(lease.0);
        let snapshot = Snapshot::encode_records(None, &records)?;
        summary.shards += 1;
        summary.hosts += records.len() as u64;
        write_message(
            &mut stream,
            &Message::Result {
                shard,
                attempt,
                snapshot,
            },
        )?;
    }
}
