//! Fault-injection suite: distributed scans under worker death, stall,
//! and duplicate commit must merge to a dataset **byte-identical** to a
//! single-process scan of the same host list.
//!
//! "Byte-identical" is checked the strong way: `Snapshot::encode` of
//! the merged dataset equals the serial scan's encoding (and therefore
//! so do the content digests the archive layer keys on).

use std::time::Duration;

use govscan_orchestrate::{
    protocol, run_local, run_local_faulty, Coordinator, FaultPlan, OrchestrationReport,
    OrchestratorConfig, WorkerFaults,
};
use govscan_scanner::{ScanDataset, StudyPipeline};
use govscan_store::Snapshot;
use govscan_worldgen::{World, WorldConfig};

/// A world, its discovery output, and the serial reference scan.
struct Fixture {
    world: World,
}

struct Prepared<'w> {
    pipeline: StudyPipeline<'w>,
    hosts: Vec<String>,
    serial: ScanDataset,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        Fixture {
            world: World::generate(&WorldConfig::small(seed)),
        }
    }

    fn prepare(&self) -> Prepared<'_> {
        let pipeline = StudyPipeline::new(&self.world);
        let hosts = pipeline.discover().final_list;
        let serial = pipeline.scan_list(&hosts);
        Prepared {
            pipeline,
            hosts,
            serial,
        }
    }
}

fn assert_byte_identical(report: &OrchestrationReport, serial: &ScanDataset) {
    let merged_bytes = Snapshot::encode(&report.dataset).expect("merged encodes");
    let serial_bytes = Snapshot::encode(serial).expect("serial encodes");
    assert_eq!(
        merged_bytes, serial_bytes,
        "merged snapshot must be byte-identical to the serial scan"
    );
    assert_eq!(
        Snapshot::digest_of(&report.dataset).expect("digest"),
        Snapshot::digest_of(serial).expect("digest"),
        "content digests must agree"
    );
}

fn config(workers: usize, shard_size: usize, lease_ms: u64) -> OrchestratorConfig {
    let mut config = OrchestratorConfig::new(workers);
    config.shard_size = shard_size;
    config.lease_timeout = Duration::from_millis(lease_ms);
    config
}

#[test]
fn healthy_distributed_scan_is_byte_identical_to_serial() {
    let fx = Fixture::new(0xD157);
    let p = fx.prepare();
    let ctx = p.pipeline.context();
    let cfg = config(3, 17, 60_000);
    let report = run_local(
        &p.hosts,
        *p.serial.scan_time.as_ref().expect("scan time"),
        &cfg,
        |shard| p.pipeline.scan_list_with(&ctx, shard),
    )
    .expect("orchestration completes");

    assert_byte_identical(&report, &p.serial);
    assert_eq!(report.hosts, p.hosts.len());
    assert!(report.shards >= 3, "host list spans several shards");
    let s = &report.stats;
    assert_eq!(s.grants, report.shards as u64, "no re-issues when healthy");
    assert_eq!(s.commits, report.shards as u64);
    assert_eq!(
        (s.expiries, s.abandons, s.duplicate_commits, s.late_commits),
        (0, 0, 0, 0)
    );
}

#[test]
fn worker_death_mid_shard_recovers_by_lease_expiry() {
    let fx = Fixture::new(0xDEAD);
    let p = fx.prepare();
    let ctx = p.pipeline.context();
    // Short leases so the dead thread's shard comes back quickly; in
    // local mode there is no connection to sense, so death recovery IS
    // the expiry path.
    let cfg = config(3, 13, 150);
    let faults = FaultPlan {
        deaths: vec![(0, 1)],
        stalls: Vec::new(),
    };
    let report = run_local_faulty(
        &p.hosts,
        *p.serial.scan_time.as_ref().expect("scan time"),
        &cfg,
        |shard| p.pipeline.scan_list_with(&ctx, shard),
        &faults,
    )
    .expect("survives a worker death");

    assert_byte_identical(&report, &p.serial);
    let s = &report.stats;
    assert!(s.expiries >= 1, "the dead worker's lease expired: {s:?}");
    assert_eq!(
        s.grants,
        report.shards as u64 + s.expiries + s.abandons,
        "one grant per shard plus one per recovery: {s:?}"
    );
    assert_eq!(s.commits, report.shards as u64, "one commit per shard");
}

#[test]
fn stalled_worker_past_deadline_is_overtaken_and_deduplicated() {
    let fx = Fixture::new(0x57A1);
    let p = fx.prepare();
    let ctx = p.pipeline.context();
    // Few shards: the healthy worker must run out of pending work well
    // inside the stall, so reclaiming the expired lease is its only
    // path to completion (pending shards are preferred over expiries).
    let hosts: Vec<String> = p.hosts.iter().take(120).cloned().collect();
    let serial = p.pipeline.scan_list(&hosts);
    let cfg = config(2, 30, 150);
    let faults = FaultPlan {
        deaths: Vec::new(),
        // Sleep far past the 150ms lease on the table's first grant
        // (shard 0, attempt 1), whichever worker draws it; the other
        // worker re-acquires the shard by expiry and commits it, then
        // the stalled worker wakes and delivers a duplicate.
        stalls: vec![(0, 1, Duration::from_secs(2))],
    };
    let report = run_local_faulty(
        &hosts,
        *serial.scan_time.as_ref().expect("scan time"),
        &cfg,
        |shard| p.pipeline.scan_list_with(&ctx, shard),
        &faults,
    )
    .expect("survives a stalled worker");

    assert_byte_identical(&report, &serial);
    let s = &report.stats;
    assert!(s.expiries >= 1, "the stalled lease expired: {s:?}");
    assert_eq!(
        s.duplicate_commits + s.late_commits,
        s.expiries,
        "every expiry produced exactly one redundant delivery: {s:?}"
    );
    assert_eq!(s.commits, report.shards as u64, "one commit per shard");
}

/// The acceptance-criteria scenario, over the real socket protocol:
/// one worker killed mid-shard, another stalled past its lease
/// deadline, and the merged dataset still digests identically to the
/// single-process scan.
#[test]
fn socket_mode_survives_death_and_stall_with_identical_digest() {
    let fx = Fixture::new(0x50CC);
    let p = fx.prepare();
    // A small host subset in few shards, so the healthy worker drains
    // every pending shard well inside the stall window and is forced
    // onto the expiry path (pending shards are preferred over expired
    // ones — with hundreds of shards the stall would resolve itself
    // before anyone needed the expired lease).
    let hosts: Vec<String> = p.hosts.iter().take(120).cloned().collect();
    let serial = p.pipeline.scan_list(&hosts);
    let scan_time = *serial.scan_time.as_ref().expect("scan time");
    let mut cfg = config(3, 30, 400);
    // Keep the stalled worker's connection open long enough for its
    // late Result to arrive and be counted (as accepted-late or
    // duplicate) instead of EPIPE-ing.
    cfg.result_grace = Duration::from_secs(10);
    let coordinator =
        Coordinator::bind(("127.0.0.1", 0), hosts.clone(), scan_time, cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr");

    let (report, summaries) = std::thread::scope(|s| {
        let run = s.spawn(move || coordinator.run());
        let worker_faults = [
            WorkerFaults {
                die_after_grant: Some(1),
                stall: None,
            },
            WorkerFaults {
                die_after_grant: None,
                stall: Some((1, Duration::from_secs(2))),
            },
            WorkerFaults::default(),
        ];
        let pipeline = &p.pipeline;
        let workers: Vec<_> = worker_faults
            .into_iter()
            .enumerate()
            .map(|(i, faults)| {
                s.spawn(move || {
                    let ctx = pipeline.context();
                    govscan_orchestrate::run_worker_faulty(
                        addr,
                        i as u64,
                        |shard| pipeline.scan_list_with(&ctx, shard),
                        &faults,
                    )
                })
            })
            .collect();
        let summaries: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("worker thread").expect("worker exits"))
            .collect();
        let report = run
            .join()
            .expect("coordinator thread")
            .expect("coordinator completes");
        (report, summaries)
    });

    assert_byte_identical(&report, &serial);
    assert_eq!(report.workers_seen, 3);
    assert!(summaries[0].died, "worker 0 executed its injected death");
    assert!(!summaries[2].died);
    let s = &report.stats;
    assert!(
        s.abandons >= 1,
        "the killed worker's lease was abandoned on EOF: {s:?}"
    );
    assert!(s.expiries >= 1, "the stalled worker's lease expired: {s:?}");
    assert_eq!(s.commits, report.shards as u64, "one commit per shard");
    assert_eq!(
        s.grants,
        report.shards as u64 + s.expiries + s.abandons,
        "grant accounting balances: {s:?}"
    );
}

/// Satellite edge case: the *last* worker dies right after committing
/// its final shard (instead of draining with Request → Done). All
/// shards are committed, so the coordinator must complete, not report
/// the fleet lost.
#[test]
fn coordinator_completes_when_last_worker_dies_after_committing() {
    use protocol::{read_message, write_message, Message};
    use std::net::TcpStream;

    let fx = Fixture::new(0x1A57);
    let p = fx.prepare();
    let scan_time = *p.serial.scan_time.as_ref().expect("scan time");
    let cfg = config(1, 50, 60_000);
    let coordinator =
        Coordinator::bind(("127.0.0.1", 0), p.hosts.clone(), scan_time, cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr");
    let shard_total = p.hosts.len().div_ceil(50);

    let report = std::thread::scope(|s| {
        let run = s.spawn(move || coordinator.run());
        let pipeline = &p.pipeline;
        s.spawn(move || {
            // A hand-rolled worker so we control the exit: commit every
            // shard, then vanish without the closing Request/Done
            // exchange.
            let ctx = pipeline.context();
            let mut stream = TcpStream::connect(addr).expect("connect");
            write_message(&mut stream, &Message::Hello { worker: 9 }).expect("hello");
            for _ in 0..shard_total {
                write_message(&mut stream, &Message::Request).expect("request");
                let Message::Grant {
                    shard,
                    attempt,
                    hostnames,
                } = read_message(&mut stream).expect("grant")
                else {
                    panic!("expected a grant");
                };
                let partial = pipeline.scan_list_with(&ctx, &hostnames);
                let snapshot = Snapshot::encode(&partial).expect("encode");
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
        run.join()
            .expect("coordinator thread")
            .expect("coordinator completes despite the abrupt exit")
    });

    assert_byte_identical(&report, &p.serial);
    assert_eq!(report.shards, shard_total);
    assert_eq!(report.stats.commits, shard_total as u64);
    assert_eq!(report.stats.abandons, 0, "no lease was outstanding");
}

/// If every worker is gone with shards uncommitted, the coordinator
/// fails loudly instead of waiting forever.
#[test]
fn coordinator_reports_workers_lost_when_the_fleet_dies() {
    let fx = Fixture::new(0x0157);
    let p = fx.prepare();
    let scan_time = *p.serial.scan_time.as_ref().expect("scan time");
    let cfg = config(1, 13, 60_000);
    let coordinator =
        Coordinator::bind(("127.0.0.1", 0), p.hosts.clone(), scan_time, cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr");

    let err = std::thread::scope(|s| {
        let run = s.spawn(move || coordinator.run());
        let pipeline = &p.pipeline;
        s.spawn(move || {
            let ctx = pipeline.context();
            let faults = WorkerFaults {
                die_after_grant: Some(1),
                stall: None,
            };
            govscan_orchestrate::run_worker_faulty(
                addr,
                0,
                |shard| pipeline.scan_list_with(&ctx, shard),
                &faults,
            )
        });
        run.join()
            .expect("coordinator thread")
            .expect_err("the lone worker died mid-shard")
    });
    assert!(
        matches!(
            err,
            govscan_orchestrate::OrchestrateError::WorkersLost { .. }
        ),
        "got {err}"
    );
}
