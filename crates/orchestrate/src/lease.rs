//! The lease table: shard ownership, deadlines, and commit accounting.
//!
//! Shards are the indices `0..shards` of a world plan, and each moves
//! through a three-state machine guarded by one mutex:
//!
//! ```text
//!             grant                    commit
//!  Pending ───────────► Outstanding ───────────► Committed (terminal)
//!     ▲                     │
//!     └─────────────────────┘
//!       abandon (worker connection died holding the lease)
//!
//!  Outstanding ── deadline passes ──► re-granted directly to the next
//!                                     caller of `acquire` (an expiry)
//! ```
//!
//! The invariants the fault-injection suite leans on:
//!
//! * **One grant per shard per failure.** A shard is granted once, plus
//!   exactly once per expiry or abandon —
//!   `grants == shards + expiries + abandons` always holds.
//! * **One commit per shard.** The first commit wins and is terminal;
//!   any later result for the same shard is counted as a
//!   `duplicate_commit` and its data dropped. A result arriving from a
//!   superseded attempt while the shard is still uncommitted *is*
//!   accepted (a shard's scan is a pure function of its index, so any
//!   attempt's data is the right data — that is the at-least-once
//!   idempotency argument) and counted as a `late_commit`.
//! * **Each committed result leaves once, in shard order.**
//!   [`LeaseTable::take_ready`] hands the consumer the results that
//!   continue the shard order and forgets them, so the table holds only
//!   the results committed ahead of a gap.
//! * **Expiry is lazy but prompt.** Nothing scans the table in the
//!   background; an [`LeaseTable::acquire`] call that finds no pending
//!   shard sleeps until the earliest outstanding deadline and claims the
//!   first lease that has expired by then. Commits, abandons, and
//!   failure all wake every waiter.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use govscan_scanner::ScanDataset;

/// A granted lease: the right (and obligation) to scan one shard and
/// commit the result before the deadline.
#[derive(Debug, Clone, Copy)]
pub struct Lease {
    /// The shard index this lease covers.
    pub shard: usize,
    /// Grant generation for the shard, starting at 1. A re-issued lease
    /// carries a higher attempt; commits echo it so the table can tell
    /// late results from current ones.
    pub attempt: u32,
    /// When the lease expires and becomes re-issuable.
    pub deadline: Instant,
}

/// Outcome of [`LeaseTable::try_acquire`].
#[derive(Debug)]
pub enum Acquire {
    /// A shard to scan.
    Grant(Lease),
    /// Nothing grantable right now; retry after the hint (the time to
    /// the earliest outstanding deadline).
    Wait(Duration),
    /// Every shard is committed, or the run was failed: stop asking.
    Done,
}

/// Outcome of [`LeaseTable::commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The result was recorded (first commit for the shard).
    Accepted,
    /// The shard was already committed; the result was dropped.
    Duplicate,
}

/// Counters of everything that happened during one orchestration.
#[derive(Debug, Default, Clone)]
pub struct OrchestrationStats {
    /// Leases handed out, re-issues included.
    pub grants: u64,
    /// Leases re-issued because their deadline passed.
    pub expiries: u64,
    /// Leases returned to pending because the holder's connection died.
    pub abandons: u64,
    /// Shard results recorded (exactly one per shard on success).
    pub commits: u64,
    /// Accepted commits whose attempt had been superseded by a re-issue.
    pub late_commits: u64,
    /// Results dropped because their shard was already committed.
    pub duplicate_commits: u64,
}

/// Per-shard lease state (see the module docs for the state machine).
#[derive(Debug, Clone, Copy)]
enum ShardState {
    Pending,
    Outstanding { attempt: u32, deadline: Instant },
    Committed,
}

struct Inner {
    states: Vec<ShardState>,
    /// Grant generation per shard (monotone; `attempt` of the next
    /// grant is `attempts[i] + 1`).
    attempts: Vec<u32>,
    /// Committed results not yet taken by [`LeaseTable::take_ready`].
    results: Vec<Option<ScanDataset>>,
    /// Shards whose results [`LeaseTable::take_ready`] has handed out.
    taken: usize,
    committed: usize,
    failed: bool,
    stats: OrchestrationStats,
}

/// The coordinator's shared ledger: which worker may scan which shard,
/// until when, and what came back. All methods are safe to call from
/// any number of worker/handler threads.
pub struct LeaseTable {
    shards: usize,
    lease_timeout: Duration,
    inner: Mutex<Inner>,
    changed: Condvar,
}

impl LeaseTable {
    /// Start shards `0..shards` pending. Leases expire `lease_timeout`
    /// after their grant.
    pub fn new(shards: usize, lease_timeout: Duration) -> LeaseTable {
        LeaseTable {
            shards,
            lease_timeout,
            inner: Mutex::new(Inner {
                states: vec![ShardState::Pending; shards],
                attempts: vec![0; shards],
                results: (0..shards).map(|_| None).collect(),
                taken: 0,
                committed: 0,
                failed: false,
                stats: OrchestrationStats::default(),
            }),
            changed: Condvar::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// True once every shard has a committed result.
    pub fn is_complete(&self) -> bool {
        let inner = self.inner.lock().expect("lease lock never poisoned");
        inner.committed == self.shards
    }

    /// A snapshot of the counters so far.
    pub fn stats(&self) -> OrchestrationStats {
        self.inner
            .lock()
            .expect("lease lock never poisoned")
            .stats
            .clone()
    }

    /// Grant the first pending shard, else the first expired outstanding
    /// one; never blocks.
    pub fn try_acquire(&self) -> Acquire {
        let mut inner = self.inner.lock().expect("lease lock never poisoned");
        self.grant_locked(&mut inner)
    }

    /// Block until a lease is grantable (granting it) or the run is over
    /// (`None`: all shards committed, or the coordinator failed the
    /// run). Sleeps no longer than the earliest outstanding deadline, so
    /// an expired lease is re-issued promptly even if no other event
    /// wakes the table.
    pub fn acquire(&self) -> Option<Lease> {
        let mut inner = self.inner.lock().expect("lease lock never poisoned");
        loop {
            match self.grant_locked(&mut inner) {
                Acquire::Grant(lease) => return Some(lease),
                Acquire::Done => return None,
                Acquire::Wait(hint) => {
                    let wait = hint.max(Duration::from_millis(1));
                    let (guard, _) = self
                        .changed
                        .wait_timeout(inner, wait)
                        .expect("lease lock never poisoned");
                    inner = guard;
                }
            }
        }
    }

    fn grant_locked(&self, inner: &mut Inner) -> Acquire {
        if inner.failed || inner.committed == self.shards {
            return Acquire::Done;
        }
        let now = Instant::now();
        let mut pick: Option<(usize, bool)> = None; // (shard, is_expiry)
        let mut next_deadline: Option<Instant> = None;
        for (i, state) in inner.states.iter().enumerate() {
            match *state {
                ShardState::Pending => {
                    pick = Some((i, false));
                    break;
                }
                ShardState::Outstanding { deadline, .. } => {
                    if deadline <= now {
                        // Keep scanning: a pending shard later in the
                        // list still takes precedence over an expiry.
                        pick.get_or_insert((i, true));
                    } else {
                        next_deadline =
                            Some(next_deadline.map_or(deadline, |d: Instant| d.min(deadline)));
                    }
                }
                ShardState::Committed => {}
            }
        }
        let Some((i, is_expiry)) = pick else {
            let hint = next_deadline
                .map(|d| d.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(20));
            return Acquire::Wait(hint);
        };
        inner.attempts[i] += 1;
        let lease = Lease {
            shard: i,
            attempt: inner.attempts[i],
            deadline: now + self.lease_timeout,
        };
        inner.states[i] = ShardState::Outstanding {
            attempt: lease.attempt,
            deadline: lease.deadline,
        };
        inner.stats.grants += 1;
        if is_expiry {
            inner.stats.expiries += 1;
        }
        Acquire::Grant(lease)
    }

    /// Record a shard result. The first commit for a shard wins and is
    /// terminal; results for an already-committed shard are dropped as
    /// [`CommitOutcome::Duplicate`]. A result from a superseded attempt
    /// is still accepted while the shard is uncommitted (deterministic
    /// scans make any attempt's data correct) and counted as late.
    pub fn commit(&self, shard: usize, attempt: u32, data: ScanDataset) -> CommitOutcome {
        let mut inner = self.inner.lock().expect("lease lock never poisoned");
        match inner.states[shard] {
            ShardState::Committed => {
                inner.stats.duplicate_commits += 1;
                return CommitOutcome::Duplicate;
            }
            ShardState::Outstanding {
                attempt: current, ..
            } => {
                if attempt < current {
                    inner.stats.late_commits += 1;
                }
            }
            // Abandoned (or expired back to pending) and the old holder
            // delivered anyway — a late but usable result.
            ShardState::Pending => inner.stats.late_commits += 1,
        }
        inner.states[shard] = ShardState::Committed;
        inner.results[shard] = Some(data);
        inner.committed += 1;
        inner.stats.commits += 1;
        self.changed.notify_all();
        CommitOutcome::Accepted
    }

    /// The holder of `(shard, attempt)` died (its connection closed):
    /// return the shard to pending so the next `acquire` re-issues it
    /// without waiting for the deadline. A no-op if the lease was
    /// already superseded or the shard committed.
    pub fn abandon(&self, shard: usize, attempt: u32) {
        let mut inner = self.inner.lock().expect("lease lock never poisoned");
        if let ShardState::Outstanding {
            attempt: current, ..
        } = inner.states[shard]
        {
            if current == attempt {
                inner.states[shard] = ShardState::Pending;
                inner.stats.abandons += 1;
                self.changed.notify_all();
            }
        }
    }

    /// Abort the run: every blocked or future `acquire` returns `Done`.
    /// Called by the coordinator when no worker can ever finish the
    /// remaining shards (all connections gone).
    pub fn fail(&self) {
        self.inner.lock().expect("lease lock never poisoned").failed = true;
        self.changed.notify_all();
    }

    /// Take the committed results that continue the shard order: from
    /// the first shard not yet taken up to the first shard without a
    /// result. The table forgets what it hands out, so a single consumer
    /// sees each result exactly once and in shard order.
    pub fn take_ready(&self) -> Vec<ScanDataset> {
        let mut inner = self.inner.lock().expect("lease lock never poisoned");
        let from = inner.taken;
        let ready: Vec<ScanDataset> = inner.results[from..]
            .iter_mut()
            .map_while(Option::take)
            .collect();
        inner.taken += ready.len();
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govscan_pki::Time;
    use govscan_scanner::{ScanDataset, ScanRecord};

    fn partial(hosts: &[&str]) -> ScanDataset {
        ScanDataset::new(
            hosts
                .iter()
                .map(|h| ScanRecord::unavailable((*h).to_owned()))
                .collect(),
            Time(0),
        )
    }

    fn grant(table: &LeaseTable) -> Lease {
        match table.try_acquire() {
            Acquire::Grant(l) => l,
            other => panic!("expected a grant, got {other:?}"),
        }
    }

    fn hosts(ready: &[ScanDataset]) -> Vec<String> {
        ready
            .iter()
            .flat_map(|d| d.records().iter().map(|r| r.hostname.clone()))
            .collect()
    }

    #[test]
    fn zero_shards_complete_immediately() {
        let table = LeaseTable::new(0, Duration::from_secs(1));
        assert!(table.is_complete());
        assert!(matches!(table.try_acquire(), Acquire::Done));
        assert!(table.acquire().is_none());
        assert!(table.take_ready().is_empty());
    }

    #[test]
    fn happy_path_grants_each_shard_once() {
        let table = LeaseTable::new(2, Duration::from_secs(10));
        let a = grant(&table);
        let b = grant(&table);
        assert_eq!((a.shard, a.attempt), (0, 1));
        assert_eq!((b.shard, b.attempt), (1, 1));
        assert!(matches!(table.try_acquire(), Acquire::Wait(_)));
        assert_eq!(
            table.commit(0, 1, partial(&["a", "b"])),
            CommitOutcome::Accepted
        );
        assert_eq!(
            table.commit(1, 1, partial(&["c", "d"])),
            CommitOutcome::Accepted
        );
        assert!(table.is_complete());
        assert!(matches!(table.try_acquire(), Acquire::Done));
        assert_eq!(hosts(&table.take_ready()), ["a", "b", "c", "d"]);
        let stats = table.stats();
        assert_eq!((stats.grants, stats.expiries, stats.commits), (2, 0, 2));
    }

    #[test]
    fn results_leave_once_and_in_shard_order() {
        let table = LeaseTable::new(3, Duration::from_secs(10));
        for _ in 0..3 {
            grant(&table);
        }
        // Shard 2 commits ahead of a gap: nothing continues the order.
        table.commit(2, 1, partial(&["c"]));
        assert!(table.take_ready().is_empty());
        table.commit(0, 1, partial(&["a"]));
        assert_eq!(hosts(&table.take_ready()), ["a"]);
        // Filling the gap releases it and everything committed behind it.
        table.commit(1, 1, partial(&["b"]));
        assert_eq!(hosts(&table.take_ready()), ["b", "c"]);
        assert!(table.take_ready().is_empty(), "each result leaves once");
    }

    #[test]
    fn expired_lease_is_reissued_exactly_once_per_expiry() {
        let table = LeaseTable::new(1, Duration::from_millis(20));
        let first = grant(&table);
        assert_eq!(first.attempt, 1);
        // Not yet expired: nothing to grant.
        assert!(matches!(table.try_acquire(), Acquire::Wait(_)));
        std::thread::sleep(Duration::from_millis(30));
        // Expired: re-issued with the next attempt — exactly once.
        let second = grant(&table);
        assert_eq!(second.shard, 0);
        assert_eq!(second.attempt, 2);
        assert!(matches!(table.try_acquire(), Acquire::Wait(_)));
        let stats = table.stats();
        assert_eq!((stats.grants, stats.expiries), (2, 1));
        assert_eq!(
            stats.grants,
            table.shard_count() as u64 + stats.expiries + stats.abandons,
            "one grant per shard plus one per failure"
        );
    }

    #[test]
    fn no_double_commit_of_the_same_shard() {
        let table = LeaseTable::new(1, Duration::from_millis(10));
        let first = grant(&table);
        std::thread::sleep(Duration::from_millis(20));
        let second = grant(&table);
        // The re-issued attempt commits first; the stalled original's
        // result is dropped as a duplicate.
        assert_eq!(
            table.commit(second.shard, second.attempt, partial(&["a"])),
            CommitOutcome::Accepted
        );
        assert_eq!(
            table.commit(first.shard, first.attempt, partial(&["a"])),
            CommitOutcome::Duplicate
        );
        assert!(table.is_complete());
        assert_eq!(table.take_ready().len(), 1, "exactly one committed result");
        let stats = table.stats();
        assert_eq!((stats.commits, stats.duplicate_commits), (1, 1));
    }

    #[test]
    fn stalled_original_may_commit_late_if_still_uncommitted() {
        let table = LeaseTable::new(1, Duration::from_millis(10));
        let first = grant(&table);
        std::thread::sleep(Duration::from_millis(20));
        let second = grant(&table);
        // The stalled original wakes up before the re-issued holder
        // finishes: its (identical, deterministic) data is accepted.
        assert_eq!(
            table.commit(first.shard, first.attempt, partial(&["a"])),
            CommitOutcome::Accepted
        );
        assert_eq!(
            table.commit(second.shard, second.attempt, partial(&["a"])),
            CommitOutcome::Duplicate
        );
        let stats = table.stats();
        assert_eq!((stats.late_commits, stats.duplicate_commits), (1, 1));
    }

    #[test]
    fn abandoned_lease_returns_to_pending_immediately() {
        let table = LeaseTable::new(1, Duration::from_secs(60));
        let first = grant(&table);
        table.abandon(first.shard, first.attempt);
        // No deadline wait: the shard is grantable right away.
        let second = grant(&table);
        assert_eq!(second.attempt, 2);
        let stats = table.stats();
        assert_eq!((stats.abandons, stats.expiries), (1, 0));
        // A stale abandon (superseded attempt) is a no-op.
        table.abandon(first.shard, first.attempt);
        assert_eq!(table.stats().abandons, 1);
    }

    #[test]
    fn acquire_blocks_until_expiry_then_grants() {
        let table = LeaseTable::new(1, Duration::from_millis(40));
        let first = grant(&table);
        let started = Instant::now();
        // acquire must sleep through the live lease, wake at its
        // deadline, and claim the expiry — without any other thread
        // nudging the condvar.
        let second = table.acquire().expect("reissued");
        assert!(started.elapsed() >= Duration::from_millis(25));
        assert_eq!(second.attempt, first.attempt + 1);
    }

    #[test]
    fn fail_unblocks_waiters() {
        let table = LeaseTable::new(1, Duration::from_secs(60));
        let _held = grant(&table);
        std::thread::scope(|s| {
            let t = s.spawn(|| table.acquire());
            std::thread::sleep(Duration::from_millis(20));
            table.fail();
            assert!(t.join().expect("no panic").is_none());
        });
        assert!(!table.is_complete());
        assert!(table.take_ready().is_empty());
    }
}
