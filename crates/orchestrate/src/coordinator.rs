//! The coordinator: lease shard tickets to worker connections, append
//! committed shards to the archive in shard order, and verify coverage.
//!
//! A grant carries a shard index and nothing more: each worker realizes
//! and scans that shard from its own copy of the world plan, which is a
//! pure function of `(config, shard)`. The coordinator's own thread is
//! the one in-order consumer. Between accepts it takes the results that
//! continue the shard order from the [`LeaseTable`] and appends them to
//! a [`SnapshotWriter`], so the archive is byte-identical to the
//! streamed pipeline's, which appends the same shards in the same
//! order. Each accepted connection runs on a scoped thread of its own
//! against the borrowed table, and the scope joins them all before
//! [`Coordinator::run`] returns.

use std::io::{Seek, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use govscan_store::{Snapshot, SnapshotWriter};

use crate::lease::{LeaseTable, OrchestrationStats};
use crate::protocol::{read_message, write_message, Message};
use crate::{OrchestrateError, Result};

/// Tunables for one orchestrated scan.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Expected worker connections: the run reports the fleet lost
    /// only once this many have connected and gone, or
    /// `startup_timeout` has passed.
    pub workers: usize,
    /// How long a granted lease lives before it expires and is
    /// re-issued.
    pub lease_timeout: Duration,
    /// How much longer than the lease deadline a handler keeps its
    /// connection open for a (by then late) result, and the idle
    /// read/write timeout between exchanges.
    pub result_grace: Duration,
    /// How long the coordinator waits for the first/next worker to
    /// connect before declaring the fleet lost.
    pub startup_timeout: Duration,
}

impl OrchestratorConfig {
    /// Defaults sized for the paper-scale scan: one-minute leases, which
    /// the largest shard (China, about a fifth of the hosts) fits inside
    /// at paper scale.
    pub fn new(workers: usize) -> OrchestratorConfig {
        OrchestratorConfig {
            workers,
            lease_timeout: Duration::from_secs(60),
            result_grace: Duration::from_secs(60),
            startup_timeout: Duration::from_secs(300),
        }
    }
}

/// The outcome of a completed orchestration.
#[derive(Debug)]
pub struct OrchestrationReport {
    /// Lease accounting: grants, expiries, duplicate commits, ….
    pub stats: OrchestrationStats,
    /// Shards scanned.
    pub shards: usize,
    /// Hosts archived.
    pub hosts: u64,
    /// Worker connections accepted.
    pub workers_seen: usize,
}

/// The socket-mode coordinator: accepts worker connections and serves
/// each one the Request/Grant/Result loop on a scoped thread of its
/// own.
pub struct Coordinator {
    listener: TcpListener,
    hosts: u64,
    config: OrchestratorConfig,
    table: LeaseTable,
}

impl Coordinator {
    /// Bind the coordination socket (use port 0 for an OS-assigned
    /// port) for a plan of `shards` shards holding `hosts` hosts in
    /// total.
    pub fn bind(
        addr: impl ToSocketAddrs,
        shards: usize,
        hosts: u64,
        config: OrchestratorConfig,
    ) -> Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let table = LeaseTable::new(shards, config.lease_timeout);
        Ok(Coordinator {
            listener,
            hosts,
            config,
            table,
        })
    }

    /// The bound address, for handing to workers.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Accept workers and run the scan to completion, appending every
    /// shard to `writer` in shard order; or fail once no connected
    /// worker remains and the expected fleet has been seen (or never
    /// showed up within `startup_timeout`). The run's coverage check
    /// holds the archived host count to the plan's.
    pub fn run<W: Write + Seek>(
        self,
        writer: &mut SnapshotWriter<W>,
    ) -> Result<OrchestrationReport> {
        let Coordinator {
            listener,
            hosts,
            config,
            table,
        } = self;
        let live = AtomicUsize::new(0);
        let started = Instant::now();
        let mut seen = 0usize;
        let mut archived = 0u64;
        std::thread::scope(|s| {
            let mut drained = 0usize;
            let outcome = 'run: loop {
                let ready = table.take_ready();
                drained += ready.len();
                for dataset in ready {
                    archived += dataset.len() as u64;
                    if let Err(e) = writer.append_records(dataset.records()) {
                        break 'run Err(e.into());
                    }
                }
                if drained == table.shard_count() {
                    break Ok(());
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(false).is_err()
                            || stream.set_nodelay(true).is_err()
                        {
                            continue; // connection already dead
                        }
                        let _ = stream.set_write_timeout(Some(config.result_grace));
                        seen += 1;
                        live.fetch_add(1, Ordering::SeqCst);
                        let (table, live, grace) = (&table, &live, config.result_grace);
                        s.spawn(move || {
                            // Connection failures are per-worker events,
                            // fully accounted for in the lease table
                            // (abandons); the run itself only fails if
                            // *no* worker can finish.
                            let _ = serve_worker(table, grace, stream);
                            live.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        // `live` only decrements after a handler has
                        // pushed its final commit/abandon, so live == 0
                        // means the table already reflects everything
                        // those workers will ever contribute.
                        if live.load(Ordering::SeqCst) == 0 && !table.is_complete() {
                            if seen >= config.workers {
                                break Err(OrchestrateError::WorkersLost {
                                    detail: format!(
                                        "all {seen} worker connections ended with shards uncommitted"
                                    ),
                                });
                            }
                            if started.elapsed() > config.startup_timeout {
                                break Err(OrchestrateError::WorkersLost {
                                    detail: format!(
                                        "{seen} of {} workers connected within {:?}",
                                        config.workers, config.startup_timeout
                                    ),
                                });
                            }
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => break Err(e.into()),
                }
            };
            drop(listener);
            if outcome.is_err() {
                // Unblock handlers waiting in acquire before the scope
                // joins them.
                table.fail();
            }
            outcome
        })?;
        if archived != hosts {
            return Err(OrchestrateError::Coverage {
                detail: format!("archived {archived} hosts of the plan's {hosts}"),
            });
        }
        Ok(OrchestrationReport {
            stats: table.stats(),
            shards: table.shard_count(),
            hosts: archived,
            workers_seen: seen,
        })
    }
}

/// Serve one worker connection: Hello, then Request → Grant → Result
/// until the table runs dry (send Done) or the connection dies (abandon
/// whatever lease it held).
fn serve_worker(table: &LeaseTable, grace: Duration, mut stream: TcpStream) -> Result<()> {
    let grace = grace.max(Duration::from_millis(10));
    stream.set_read_timeout(Some(grace))?;
    match read_message(&mut stream) {
        Ok(Message::Hello { .. }) => {}
        Ok(other) => {
            return Err(OrchestrateError::Protocol(format!(
                "expected Hello, got {other:?}"
            )))
        }
        Err(e) => return Err(e.into()),
    }
    loop {
        stream.set_read_timeout(Some(grace))?;
        match read_message(&mut stream) {
            Ok(Message::Request) => {}
            // EOF (or silence) between shards: the worker left holding
            // no lease — a clean exit from the table's point of view.
            Err(_) => return Ok(()),
            Ok(other) => {
                return Err(OrchestrateError::Protocol(format!(
                    "expected Request, got {other:?}"
                )))
            }
        }
        let Some(lease) = table.acquire() else {
            let _ = write_message(&mut stream, &Message::Done);
            return Ok(());
        };
        let grant = Message::Grant {
            shard: lease.shard as u64,
            attempt: lease.attempt,
        };
        if let Err(e) = write_message(&mut stream, &grant) {
            table.abandon(lease.shard, lease.attempt);
            return Err(e.into());
        }
        // Wait out the lease (plus grace, so a result that raced the
        // deadline still lands here instead of being torn down) — the
        // re-issue path runs in *other* handlers via table.acquire().
        let wait = lease.deadline.saturating_duration_since(Instant::now()) + grace;
        stream.set_read_timeout(Some(wait))?;
        match read_message(&mut stream) {
            Ok(Message::Result {
                shard,
                attempt,
                snapshot,
            }) => {
                if (shard as usize, attempt) != (lease.shard, lease.attempt) {
                    table.abandon(lease.shard, lease.attempt);
                    return Err(OrchestrateError::Protocol(format!(
                        "result for shard {shard} attempt {attempt}, lease was shard {} attempt {}",
                        lease.shard, lease.attempt
                    )));
                }
                match Snapshot::from_bytes(snapshot).and_then(|s| s.dataset()) {
                    Ok(dataset) => {
                        table.commit(lease.shard, lease.attempt, dataset);
                    }
                    Err(e) => {
                        table.abandon(lease.shard, lease.attempt);
                        return Err(e.into());
                    }
                }
            }
            Ok(other) => {
                table.abandon(lease.shard, lease.attempt);
                return Err(OrchestrateError::Protocol(format!(
                    "expected Result, got {other:?}"
                )));
            }
            Err(e) => {
                // Death or stall past deadline+grace: give the lease
                // back (expiry may already have re-issued it — then
                // this abandon is a stale no-op).
                table.abandon(lease.shard, lease.attempt);
                return Err(e.into());
            }
        }
    }
}
