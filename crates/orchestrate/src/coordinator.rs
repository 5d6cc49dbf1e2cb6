//! The coordinator: shard the host list, lease shards to workers,
//! merge committed partials, and verify coverage.
//!
//! Two front-ends share [`LeaseTable`] and the merge/verify tail:
//! [`run_local`] drives in-process worker threads (tests and the
//! single-machine repro path), [`Coordinator`] serves the socket
//! [`protocol`](crate::protocol) to worker processes.
//!
//! The host list precondition for both: hostnames are unique and
//! already lowercase (the pipeline's `final_list` is sorted, deduped,
//! and lowercased — `scan_host` lowercases on its side too, so a
//! mixed-case list would make two input hosts collide into one record
//! and fail the coverage check, by design).

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use govscan_exec::WorkerPool;
use govscan_pki::Time;
use govscan_scanner::ScanDataset;
use govscan_store::Snapshot;

use crate::lease::{LeaseTable, OrchestrationStats};
use crate::protocol::{read_message, write_message, Message};
use crate::{OrchestrateError, Result};

/// Tunables for one orchestrated scan.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Worker count: threads in [`run_local`], expected connections in
    /// [`Coordinator::run`].
    pub workers: usize,
    /// Hosts per shard (floored at 1).
    pub shard_size: usize,
    /// How long a granted lease lives before it expires and is
    /// re-issued.
    pub lease_timeout: Duration,
    /// Socket mode: how much longer than the lease deadline a handler
    /// keeps its connection open for a (by then late) result, and the
    /// idle read/write timeout between exchanges.
    pub result_grace: Duration,
    /// Socket mode: how long the coordinator waits for the first/next
    /// worker to connect before declaring the fleet lost.
    pub startup_timeout: Duration,
}

impl OrchestratorConfig {
    /// Defaults sized for the paper-scale scan: 256-host shards,
    /// one-minute leases.
    pub fn new(workers: usize) -> OrchestratorConfig {
        OrchestratorConfig {
            workers,
            shard_size: 256,
            lease_timeout: Duration::from_secs(60),
            result_grace: Duration::from_secs(60),
            startup_timeout: Duration::from_secs(300),
        }
    }
}

/// The outcome of a completed orchestration.
#[derive(Debug)]
pub struct OrchestrationReport {
    /// The merged dataset — byte-identical (as a snapshot) to a
    /// single-process scan of the same host list.
    pub dataset: ScanDataset,
    /// Lease accounting: grants, expiries, duplicate commits, ….
    pub stats: OrchestrationStats,
    /// How many shards the host list was split into.
    pub shards: usize,
    /// Hosts scanned.
    pub hosts: usize,
    /// Workers that participated (threads started, or connections
    /// accepted).
    pub workers_seen: usize,
}

/// Faults to inject into [`run_local_faulty`] workers.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// `(worker, nth_grant)`: the worker exits upon its n-th grant
    /// (counted per worker, from 1) without committing — the lease is
    /// reclaimed by expiry.
    pub deaths: Vec<(usize, u64)>,
    /// `(shard, attempt, pause)`: whichever worker is granted that
    /// attempt at that shard sleeps before scanning it — long enough
    /// and the lease expires under it, and its eventual commit is a
    /// duplicate. Keyed by lease, not by worker, so the stall lands on
    /// a grant every run makes: `(0, 1, _)` is the table's first grant.
    pub stalls: Vec<(usize, u32, Duration)>,
}

/// Run a distributed scan with in-process worker threads. `scan` maps
/// a shard's hostname slice to its partial dataset; it runs
/// concurrently from `config.workers` threads.
pub fn run_local<F>(
    hosts: &[String],
    scan_time: Time,
    config: &OrchestratorConfig,
    scan: F,
) -> Result<OrchestrationReport>
where
    F: Fn(&[String]) -> ScanDataset + Sync,
{
    run_local_faulty(hosts, scan_time, config, scan, &FaultPlan::default())
}

/// [`run_local`] with fault injection — the test harness for lease
/// recovery. Worker deaths here model a thread that stops participating
/// while holding a lease (reclaimed by deadline expiry, since there is
/// no connection to sense); stalls model a slow scan overtaken by a
/// re-issue.
pub fn run_local_faulty<F>(
    hosts: &[String],
    scan_time: Time,
    config: &OrchestratorConfig,
    scan: F,
    faults: &FaultPlan,
) -> Result<OrchestrationReport>
where
    F: Fn(&[String]) -> ScanDataset + Sync,
{
    let table = LeaseTable::new(hosts.len(), config.shard_size, config.lease_timeout);
    let workers = config.workers.max(1);
    // Every worker is running before the first grant, so an injected
    // fault never races the pool's start-up.
    let started = Barrier::new(workers);
    std::thread::scope(|s| {
        for w in 0..workers {
            let table = &table;
            let scan = &scan;
            let started = &started;
            s.spawn(move || {
                started.wait();
                let mut grants = 0u64;
                while let Some(lease) = table.acquire() {
                    grants += 1;
                    if faults.deaths.contains(&(w, grants)) {
                        return; // dies holding the lease
                    }
                    if let Some((_, _, pause)) = faults.stalls.iter().find(|(shard, attempt, _)| {
                        (*shard, *attempt) == (lease.shard.index, lease.attempt)
                    }) {
                        std::thread::sleep(*pause);
                    }
                    let partial = scan(&hosts[lease.shard.start..lease.shard.end]);
                    table.commit(lease.shard.index, lease.attempt, partial);
                }
            });
        }
        // If every worker dies mid-lease, the remaining acquirers have
        // already returned: nothing re-arms, the scope joins, and
        // `finish` reports the run incomplete. No watchdog needed.
    });
    finish(hosts, scan_time, table, workers)
}

/// The socket-mode coordinator: accepts worker connections and serves
/// each one the Request/Grant/Result loop through a
/// [`govscan_exec::WorkerPool`] of connection handlers.
pub struct Coordinator {
    listener: TcpListener,
    hosts: Arc<Vec<String>>,
    scan_time: Time,
    config: OrchestratorConfig,
    table: Arc<LeaseTable>,
}

impl Coordinator {
    /// Bind the coordination socket (use port 0 for an OS-assigned
    /// port) and shard `hosts` into the lease table.
    pub fn bind(
        addr: impl ToSocketAddrs,
        hosts: Vec<String>,
        scan_time: Time,
        config: OrchestratorConfig,
    ) -> Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let table = Arc::new(LeaseTable::new(
            hosts.len(),
            config.shard_size,
            config.lease_timeout,
        ));
        Ok(Coordinator {
            listener,
            hosts: Arc::new(hosts),
            scan_time,
            config,
            table,
        })
    }

    /// The bound address, for handing to workers.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Accept workers and run the scan to completion (every shard
    /// committed), or fail once no connected worker remains and the
    /// expected fleet has been seen (or never showed up within
    /// `startup_timeout`).
    pub fn run(self) -> Result<OrchestrationReport> {
        let Coordinator {
            listener,
            hosts,
            scan_time,
            config,
            table,
        } = self;
        let live = Arc::new(AtomicUsize::new(0));
        let handler = {
            let table = Arc::clone(&table);
            let hosts = Arc::clone(&hosts);
            let live = Arc::clone(&live);
            let grace = config.result_grace;
            move |stream: TcpStream| {
                // Connection failures are per-worker events, fully
                // accounted for in the lease table (abandons); the run
                // itself only fails if *no* worker can finish.
                let _ = serve_worker(&table, &hosts, grace, stream);
                live.fetch_sub(1, Ordering::SeqCst);
            }
        };
        let pool = WorkerPool::new(config.workers.max(1), handler);
        let started = Instant::now();
        let mut seen = 0usize;
        let outcome = loop {
            if table.is_complete() {
                break Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(false).is_err() {
                        continue; // connection already dead
                    }
                    let _ = stream.set_write_timeout(Some(config.result_grace));
                    seen += 1;
                    live.fetch_add(1, Ordering::SeqCst);
                    if !pool.submit(stream) {
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // `live` only decrements after a handler has pushed
                    // its final commit/abandon, so live == 0 means the
                    // table already reflects everything those workers
                    // will ever contribute.
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
            // Unblock handlers waiting in acquire so the pool drains.
            table.fail();
        }
        pool.join();
        outcome?;
        let table = Arc::try_unwrap(table)
            .ok()
            .expect("handlers dropped their table refs at pool join");
        finish(&hosts, scan_time, table, seen)
    }
}

/// Serve one worker connection: Hello, then Request → Grant → Result
/// until the table runs dry (send Done) or the connection dies (abandon
/// whatever lease it held).
fn serve_worker(
    table: &LeaseTable,
    hosts: &[String],
    grace: Duration,
    mut stream: TcpStream,
) -> Result<()> {
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
            shard: lease.shard.index as u64,
            attempt: lease.attempt,
            hostnames: hosts[lease.shard.start..lease.shard.end].to_vec(),
        };
        if let Err(e) = write_message(&mut stream, &grant) {
            table.abandon(lease.shard.index, lease.attempt);
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
                if (shard as usize, attempt) != (lease.shard.index, lease.attempt) {
                    table.abandon(lease.shard.index, lease.attempt);
                    return Err(OrchestrateError::Protocol(format!(
                        "result for shard {shard} attempt {attempt}, lease was shard {} attempt {}",
                        lease.shard.index, lease.attempt
                    )));
                }
                match Snapshot::from_bytes(snapshot).and_then(|s| s.dataset()) {
                    Ok(partial) => {
                        table.commit(lease.shard.index, lease.attempt, partial);
                    }
                    Err(e) => {
                        table.abandon(lease.shard.index, lease.attempt);
                        return Err(e.into());
                    }
                }
            }
            Ok(other) => {
                table.abandon(lease.shard.index, lease.attempt);
                return Err(OrchestrateError::Protocol(format!(
                    "expected Result, got {other:?}"
                )));
            }
            Err(e) => {
                // Death or stall past deadline+grace: give the lease
                // back (expiry may already have re-issued it — then
                // this abandon is a stale no-op).
                table.abandon(lease.shard.index, lease.attempt);
                return Err(e.into());
            }
        }
    }
}

/// Merge committed partials in shard order and verify coverage: the
/// merged dataset must contain exactly the input hosts, once each.
fn finish(
    hosts: &[String],
    scan_time: Time,
    table: LeaseTable,
    workers_seen: usize,
) -> Result<OrchestrationReport> {
    let (shards, partials, stats) = table.into_parts()?;
    let shard_count = shards.len();
    let mut dataset = ScanDataset::new(Vec::new(), scan_time);
    for (shard, partial) in shards.iter().zip(partials) {
        if partial.len() != shard.len() {
            return Err(OrchestrateError::Coverage {
                detail: format!(
                    "shard {} committed {} records for {} hosts",
                    shard.index,
                    partial.len(),
                    shard.len()
                ),
            });
        }
        let replaced = dataset.extend(partial);
        if replaced != 0 {
            return Err(OrchestrateError::Coverage {
                detail: format!(
                    "shard {} overlapped {replaced} earlier records",
                    shard.index
                ),
            });
        }
    }
    if dataset.len() != hosts.len() {
        return Err(OrchestrateError::Coverage {
            detail: format!("merged {} records for {} hosts", dataset.len(), hosts.len()),
        });
    }
    for host in hosts {
        if dataset.get(&host.to_ascii_lowercase()).is_none() {
            return Err(OrchestrateError::Coverage {
                detail: format!("host {host} missing from the merged dataset"),
            });
        }
    }
    Ok(OrchestrationReport {
        dataset,
        stats,
        shards: shard_count,
        hosts: hosts.len(),
        workers_seen,
    })
}
