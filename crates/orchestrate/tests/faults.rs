//! Fault-injection suite: distributed scans under worker death, stall,
//! and duplicate commit must archive **byte-identically** to a serial
//! loop over the same plan's shards.
//!
//! "Byte-identical" is checked the strong way: the coordinator's
//! archive bytes equal the serial loop's (and therefore so do the
//! content digests the archive layer keys on).

use std::io::{Cursor, ErrorKind};
use std::net::SocketAddr;
use std::time::Duration;

use govscan_orchestrate::{
    protocol, run_worker, Coordinator, OrchestrateError, OrchestrationReport, OrchestratorConfig,
    WorkerFaults, WorkerSummary,
};
use govscan_scanner::ShardScanner;
use govscan_store::SnapshotWriter;
use govscan_worldgen::{stream_shards, StreamPlan, WorldConfig};

type Writer = SnapshotWriter<Cursor<Vec<u8>>>;

fn plan(seed: u64) -> StreamPlan {
    stream_shards(&WorldConfig::small(seed))
}

/// A fresh in-memory archive writer stamped with the plan's scan time.
fn writer(plan: &StreamPlan) -> Writer {
    SnapshotWriter::new(Cursor::new(Vec::new()), Some(plan.scan_time())).expect("writer")
}

fn finish(writer: Writer) -> Vec<u8> {
    writer.finish().expect("finish").into_inner()
}

/// The reference: every shard scanned in order on this thread.
fn serial(plan: &StreamPlan) -> Vec<u8> {
    let scanner = ShardScanner::new(plan, plan.scan_time());
    let mut w = writer(plan);
    for i in 0..plan.shard_count() {
        w.append_records(&scanner.scan_shard(i)).expect("append");
    }
    finish(w)
}

fn bind(plan: &StreamPlan, cfg: OrchestratorConfig) -> (Coordinator, SocketAddr) {
    let coordinator =
        Coordinator::bind(("127.0.0.1", 0), plan.shard_count(), plan.host_count(), cfg)
            .expect("bind");
    let addr = coordinator.local_addr().expect("addr");
    (coordinator, addr)
}

/// A worker's exit. One that connects only after the run has completed
/// finds the listener gone (refused, or reset from the accept backlog):
/// that is a clean exit with nothing scanned.
fn exit(result: Result<WorkerSummary, OrchestrateError>) -> WorkerSummary {
    match result {
        Ok(summary) => summary,
        Err(OrchestrateError::Io(e))
            if matches!(
                e.kind(),
                ErrorKind::ConnectionRefused
                    | ErrorKind::ConnectionReset
                    | ErrorKind::UnexpectedEof
            ) =>
        {
            WorkerSummary::default()
        }
        Err(e) => panic!("worker exits: {e}"),
    }
}

/// Run `workers` socket workers, all carrying `faults`, against a
/// coordinator over `plan`. `late` delays one worker's start.
fn run_socket(
    plan: &StreamPlan,
    cfg: OrchestratorConfig,
    faults: &WorkerFaults,
    late: Option<(usize, Duration)>,
) -> (OrchestrationReport, Vec<u8>, Vec<WorkerSummary>) {
    let workers = cfg.workers;
    let (coordinator, addr) = bind(plan, cfg);
    let mut w = writer(plan);
    let (report, summaries) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                s.spawn(move || {
                    if let Some((_, delay)) = late.filter(|&(w, _)| w == i) {
                        std::thread::sleep(delay);
                    }
                    let scanner = ShardScanner::new(plan, plan.scan_time());
                    run_worker(addr, i as u64, |shard| scanner.scan_shard(shard), faults)
                })
            })
            .collect();
        let report = coordinator.run(&mut w).expect("coordinator completes");
        let summaries: Vec<_> = handles
            .into_iter()
            .map(|h| exit(h.join().expect("worker thread")))
            .collect();
        (report, summaries)
    });
    (report, finish(w), summaries)
}

fn config(workers: usize, lease_ms: u64) -> OrchestratorConfig {
    let mut config = OrchestratorConfig::new(workers);
    config.lease_timeout = Duration::from_millis(lease_ms);
    // Keep a stalled worker's connection open long enough for its late
    // Result to arrive and be counted (as accepted-late or duplicate)
    // instead of EPIPE-ing.
    config.result_grace = Duration::from_secs(10);
    config
}

fn assert_balanced(report: &OrchestrationReport) {
    let s = &report.stats;
    assert_eq!(s.commits, report.shards as u64, "one commit per shard");
    assert_eq!(
        s.grants,
        report.shards as u64 + s.expiries + s.abandons,
        "one grant per shard plus one per recovery: {s:?}"
    );
}

#[test]
fn healthy_distributed_scan_is_byte_identical_to_serial() {
    let plan = plan(0xD157);
    let (report, bytes, summaries) =
        run_socket(&plan, config(3, 60_000), &WorkerFaults::default(), None);

    assert_eq!(bytes, serial(&plan), "archive must equal the serial loop's");
    assert_eq!(report.hosts, plan.host_count());
    assert_eq!(report.shards, plan.shard_count());
    assert_eq!(
        summaries.iter().map(|s| s.hosts).sum::<u64>(),
        plan.host_count(),
        "workers scanned every host once"
    );
    let s = &report.stats;
    assert_eq!(s.grants, report.shards as u64, "no re-issues when healthy");
    assert_eq!(s.commits, report.shards as u64);
    assert_eq!(
        (s.expiries, s.abandons, s.duplicate_commits, s.late_commits),
        (0, 0, 0, 0)
    );
}

#[test]
fn worker_death_mid_shard_is_reissued_on_eof() {
    let plan = plan(0xDEAD);
    // Whichever worker draws the table's first grant dies holding it;
    // the coordinator senses the EOF and re-issues the shard at once.
    let faults = WorkerFaults {
        death: Some((0, 1)),
        stall: None,
    };
    let (report, bytes, summaries) = run_socket(&plan, config(3, 60_000), &faults, None);

    assert_eq!(bytes, serial(&plan));
    assert_eq!(summaries.iter().filter(|s| s.died).count(), 1);
    let s = &report.stats;
    assert_eq!(
        s.abandons, 1,
        "the dead worker's lease was abandoned: {s:?}"
    );
    assert_eq!(s.expiries, 0, "recovery did not wait for the deadline");
    assert_balanced(&report);
}

#[test]
fn stalled_worker_past_deadline_is_overtaken_and_deduplicated() {
    let plan = plan(0x57A1);
    // Stall the last shard's first lease far past its deadline. By its
    // grant no shard is pending, so the other worker's only path to
    // completion is to reclaim the expired lease; the stalled worker
    // then wakes and delivers a duplicate.
    let last = plan.shard_count() - 1;
    let faults = WorkerFaults {
        death: None,
        stall: Some((last, 1, Duration::from_secs(2))),
    };
    let (report, bytes, _) = run_socket(&plan, config(2, 500), &faults, None);

    assert_eq!(bytes, serial(&plan));
    let s = &report.stats;
    assert!(s.expiries >= 1, "the stalled lease expired: {s:?}");
    assert_eq!(
        s.duplicate_commits, s.expiries,
        "every expiry produced exactly one redundant delivery: {s:?}"
    );
    assert_balanced(&report);
}

/// One worker killed mid-shard and another stalled past its lease
/// deadline, every worker carrying the same lease-keyed fault plan.
fn death_and_stall(late: Option<(usize, Duration)>) {
    let plan = plan(0x50CC);
    let last = plan.shard_count() - 1;
    let faults = WorkerFaults {
        death: Some((0, 1)),
        stall: Some((last, 1, Duration::from_secs(2))),
    };
    let (report, bytes, summaries) = run_socket(&plan, config(3, 500), &faults, late);

    assert_eq!(bytes, serial(&plan), "late start {late:?}");
    assert_eq!(
        summaries.iter().filter(|s| s.died).count(),
        1,
        "exactly one worker drew shard 0's first lease: {summaries:?}"
    );
    let s = &report.stats;
    assert!(
        s.abandons >= 1,
        "the killed worker's lease was abandoned on EOF: {s:?}"
    );
    assert!(s.expiries >= 1, "the stalled worker's lease expired: {s:?}");
    assert_balanced(&report);
}

/// The acceptance scenario over the real socket protocol: the archive
/// still digests identically to the serial loop.
#[test]
fn socket_mode_survives_death_and_stall_with_identical_digest() {
    death_and_stall(None);
}

/// Faults are keyed by lease, not by a worker's nth grant, so a worker
/// that starts late (and may draw no grant at all) cannot dodge them.
#[test]
fn death_and_stall_land_whichever_worker_starts_late() {
    for late in 0..3 {
        death_and_stall(Some((late, Duration::from_millis(500))));
    }
}

/// The *last* worker dies right after committing its final shard
/// (instead of draining with Request → Done). All shards are
/// committed, so the coordinator must complete, not report the fleet
/// lost.
#[test]
fn coordinator_completes_when_last_worker_dies_after_committing() {
    use protocol::{read_message, write_message, Message};
    use std::net::TcpStream;

    let plan = plan(0x1A57);
    let (coordinator, addr) = bind(&plan, config(1, 60_000));
    let shard_total = plan.shard_count();
    let mut w = writer(&plan);

    let report = std::thread::scope(|s| {
        let plan = &plan;
        s.spawn(move || {
            // A hand-rolled worker so we control the exit: commit every
            // shard, then vanish without the closing Request/Done
            // exchange.
            let scanner = ShardScanner::new(plan, plan.scan_time());
            let mut stream = TcpStream::connect(addr).expect("connect");
            write_message(&mut stream, &Message::Hello { worker: 9 }).expect("hello");
            for _ in 0..shard_total {
                write_message(&mut stream, &Message::Request).expect("request");
                let Message::Grant { shard, attempt } = read_message(&mut stream).expect("grant")
                else {
                    panic!("expected a grant");
                };
                let records = scanner.scan_shard(shard as usize);
                let snapshot =
                    govscan_store::Snapshot::encode_records(None, &records).expect("encode");
                write_message(
                    &mut stream,
                    &Message::Result {
                        shard,
                        attempt,
                        snapshot,
                    },
                )
                .expect("result");
            }
            drop(stream); // dies here, with everything committed
        });
        coordinator
            .run(&mut w)
            .expect("coordinator completes despite the abrupt exit")
    });

    assert_eq!(finish(w), serial(&plan));
    assert_eq!(report.shards, shard_total);
    assert_eq!(report.stats.commits, shard_total as u64);
    assert_eq!(report.stats.abandons, 0, "no lease was outstanding");
}

/// If every worker is gone with shards uncommitted, the coordinator
/// fails loudly instead of waiting forever.
#[test]
fn coordinator_reports_workers_lost_when_the_fleet_dies() {
    let plan = plan(0x0157);
    let (coordinator, addr) = bind(&plan, config(1, 60_000));
    let mut w = writer(&plan);
    let faults = WorkerFaults {
        death: Some((0, 1)),
        stall: None,
    };

    let err = std::thread::scope(|s| {
        let plan = &plan;
        let faults = &faults;
        s.spawn(move || {
            let scanner = ShardScanner::new(plan, plan.scan_time());
            run_worker(addr, 0, |shard| scanner.scan_shard(shard), faults)
        });
        coordinator
            .run(&mut w)
            .expect_err("the lone worker died mid-shard")
    });
    assert!(
        matches!(err, OrchestrateError::WorkersLost { .. }),
        "got {err}"
    );
}
