//! # govscan-exec
//!
//! The workspace's shared parallel executor: a work-stealing, chunked
//! `par_map` used by world generation, the scan engine, aggregation, and
//! the snapshot store.
//!
//! ## Why not per-item rendezvous dispatch
//!
//! The previous design (one `sync_channel` sized to the worker count,
//! its receiver behind a `Mutex`, one send per item) put a lock acquire,
//! a channel rendezvous, and usually a context switch on the critical
//! path of *every* item. The parallel-worldgen bench measured the result
//! (CHANGES.md, "shared work-stealing chunked executor"): at 2 workers
//! the parallel build ran at 0.92× the serial one — the dispatch cost
//! more than it bought. This executor removes the rendezvous entirely:
//!
//! - **Contiguous chunk seeding.** The `n` item indices are split into
//!   one contiguous range per worker up front. There is no dispatcher
//!   thread and no queue; a worker starts with its whole share already
//!   in hand, and neighbouring items stay on the same core (the output
//!   slots it writes are adjacent too).
//! - **Per-worker deques.** Each worker owns a `[head, tail)` range and
//!   claims small batches from the *front* — the only synchronisation on
//!   the hot path is one uncontended mutex lock per claimed batch, and
//!   the claim size adapts (`remaining / (8 · workers)`, floored at
//!   `MIN_CLAIM` (4) and clamped to the range) so large inputs amortise
//!   locking while small lopsided inputs degrade to small-batch claims
//!   for balance. The floor matters for cheap items: with per-item
//!   claims an 8-worker sweep over fast shards spends more time in the
//!   deque locks than in the shards (this executor's first sweep measured
//!   0.83× serial at 8 workers on one core; CHANGES.md, "streamed
//!   generate→scan→archive pipeline"); claiming at least a few
//!   items per lock acquisition keeps the lock traffic amortised while
//!   the half-batch steal below still rebalances lopsided tails.
//! - **Half-batch stealing.** An idle worker scans the other deques and
//!   splits *half* of a victim's remaining range off the *back*. The
//!   thief leaves the victim the front half it is already streaming
//!   through, takes a range far from the victim's cache lines, and —
//!   because each steal halves the remainder — lopsided seeds (China
//!   alone is ~17% of worldgen) spread across the pool in O(log n)
//!   steals without any coordination while work is balanced.
//!
//! ## Determinism contract
//!
//! The executor never makes output depend on scheduling: every item `i`
//! is claimed by exactly one worker, `f(i, item)` writes into the
//! pre-sized slot `i`, and the returned `Vec` is in input order. Callers
//! keep the stronger contract they already had — `f` derives everything
//! from `(i, item)` (in worldgen, from the shard's own RNG stream) — so
//! any thread count produces bit-identical worlds, scans, indexes, and
//! archives. A panic in any worker aborts the remaining work and is
//! propagated to the caller by the scope join.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;
pub mod pool;

pub use pool::WorkerPool;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default cap on the worker count when no environment variable pins it:
/// beyond 8 workers the workloads in this workspace are memory-bound and
/// extra threads only add steal traffic.
const DEFAULT_THREAD_CAP: usize = 8;

/// Minimum owner-claim batch. The adaptive claim `remaining / (8·W)`
/// reaches 1 near the end of every range; for cheap items that turns
/// the tail of the job into one lock acquisition per item, which is
/// where the 8-worker worldgen sweep lost to serial. Claiming at least
/// this many (clamped to what the deque still holds) keeps locking
/// amortised; the batch is still small enough that half-batch steals
/// rebalance a lopsided tail.
const MIN_CLAIM: usize = 4;

/// Resolve a worker count from the environment.
///
/// Precedence: the caller's specific variable (e.g.
/// `GOVSCAN_WORLDGEN_THREADS`, `GOVSCAN_SCAN_THREADS`), then the shared
/// `GOVSCAN_THREADS` fallback, then the machine's available parallelism
/// capped at `DEFAULT_THREAD_CAP` (8). Explicit values are floored at 1;
/// the repository benchmark pins `GOVSCAN_THREADS` to the core count.
pub fn resolve_threads(specific_var: &str) -> usize {
    for var in [specific_var, "GOVSCAN_THREADS"] {
        if let Some(n) = std::env::var(var)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(DEFAULT_THREAD_CAP)
}

/// Map `f` over `items` on a work-stealing worker pool, returning
/// results in input order.
///
/// Each item is consumed exactly once and its result written in place
/// into the pre-sized slot sharing its index, so output order — and with
/// it every caller's bit-identical-at-any-thread-count guarantee — is
/// preserved by construction. With `threads <= 1` or fewer than two
/// items everything runs inline on the calling thread.
///
/// # Panics
///
/// A panic inside `f` aborts the remaining items and is propagated to
/// the caller when the worker scope joins.
pub fn par_map<I, R, F>(threads: usize, items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, it)| f(i, it))
            .collect();
    }
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let slots: Vec<Mutex<Option<R>>> = std::iter::repeat_with(|| Mutex::new(None))
        .take(n)
        .collect();
    run(threads.min(n), n, &|i| {
        let item = inputs[i]
            .lock()
            .expect("input cell lock is never poisoned")
            .take()
            .expect("each index is claimed exactly once");
        let r = f(i, item);
        *slots[i].lock().expect("slot lock is never poisoned") = Some(r);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock is never poisoned")
                .expect("every claimed index stored its result")
        })
        .collect()
}

/// Run `f(i)` for every `i in 0..n` on the work-stealing pool, returning
/// results in index order.
///
/// The borrowed-input sibling of [`par_map`]: callers that map over a
/// slice (`f = |i| work(&xs[i])`) skip the per-item ownership cells
/// entirely.
///
/// # Panics
///
/// A panic inside `f` aborts the remaining indices and is propagated to
/// the caller when the worker scope joins.
pub fn par_map_indexed<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = std::iter::repeat_with(|| Mutex::new(None))
        .take(n)
        .collect();
    run(threads.min(n), n, &|i| {
        let r = f(i);
        *slots[i].lock().expect("slot lock is never poisoned") = Some(r);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock is never poisoned")
                .expect("every claimed index stored its result")
        })
        .collect()
}

/// One worker's deque: a contiguous `[head, tail)` range of item
/// indices. The owner claims batches from the front; thieves split half
/// off the back. The mutex is held only for the range arithmetic, never
/// while an item runs.
struct Deque {
    range: Mutex<(usize, usize)>,
}

/// Engine counters, returned so tests can prove the steal path runs.
#[derive(Debug, Default, Clone, Copy)]
struct Stats {
    /// Successful half-batch steals across all workers. Only tests read
    /// it (to assert the steal path runs); production callers get their
    /// results through the output slots.
    #[cfg_attr(not(test), allow(dead_code))]
    steals: u64,
}

/// Sets the abort flag if its scope unwinds, so sibling workers stop
/// claiming work instead of spinning on a count that will never reach
/// zero.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// The engine: seed `workers` deques with contiguous chunks of `0..n`,
/// then let every worker claim-from-front / steal-half-from-back until
/// all indices are claimed. `job` must handle each index exactly once;
/// both are guaranteed by the claim protocol.
fn run(workers: usize, n: usize, job: &(impl Fn(usize) + Sync)) -> Stats {
    debug_assert!(workers >= 2 && workers <= n);
    let deques: Vec<Deque> = (0..workers)
        .map(|w| Deque {
            // Balanced contiguous seeding: worker w owns
            // [w·n/workers, (w+1)·n/workers).
            range: Mutex::new((w * n / workers, (w + 1) * n / workers)),
        })
        .collect();
    let unclaimed = AtomicUsize::new(n);
    let abort = AtomicBool::new(false);
    let steals = AtomicU64::new(0);
    std::thread::scope(|s| {
        for w in 0..workers {
            let deques = &deques;
            let unclaimed = &unclaimed;
            let abort = &abort;
            let steals = &steals;
            s.spawn(move || {
                let _guard = AbortOnPanic(abort);
                loop {
                    // Claim a batch from the front of our own deque.
                    let claimed = {
                        let mut r = deques[w].range.lock().expect("deque lock never poisoned");
                        let (head, tail) = *r;
                        if head < tail {
                            let take = ((tail - head) / (8 * workers))
                                .max(MIN_CLAIM)
                                .min(tail - head);
                            *r = (head + take, tail);
                            Some((head, head + take))
                        } else {
                            None
                        }
                    };
                    if let Some((a, b)) = claimed {
                        unclaimed.fetch_sub(b - a, Ordering::Relaxed);
                        for i in a..b {
                            if abort.load(Ordering::Relaxed) {
                                return;
                            }
                            job(i);
                        }
                        continue;
                    }
                    // Own deque empty: scan the others and steal the
                    // back half of the first non-empty range.
                    let mut stole = false;
                    for off in 1..workers {
                        let v = (w + off) % workers;
                        let taken = {
                            let mut r = deques[v].range.lock().expect("deque lock never poisoned");
                            let (head, tail) = *r;
                            if head < tail {
                                let take = (tail - head).div_ceil(2);
                                *r = (head, tail - take);
                                Some((tail - take, tail))
                            } else {
                                None
                            }
                        };
                        if let Some(range) = taken {
                            *deques[w].range.lock().expect("deque lock never poisoned") = range;
                            steals.fetch_add(1, Ordering::Relaxed);
                            stole = true;
                            break;
                        }
                    }
                    if stole {
                        continue;
                    }
                    if unclaimed.load(Ordering::Relaxed) == 0 || abort.load(Ordering::Relaxed) {
                        // Every index is claimed (its claimant will
                        // finish it before exiting) or a sibling
                        // panicked; either way there is nothing left to
                        // take.
                        return;
                    }
                    // Claimed-but-uncounted window on another worker, or
                    // a steal race: let it settle.
                    std::thread::yield_now();
                }
            });
        }
    });
    Stats {
        steals: steals.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn matches_serial_at_any_thread_count() {
        let items: Vec<u64> = (0..997).collect();
        let f = |i: usize, x: u64| x.wrapping_mul(31).wrapping_add(i as u64);
        let serial = par_map(1, items.clone(), f);
        for threads in [2, 3, 4, 8, 64] {
            assert_eq!(par_map(threads, items.clone(), f), serial);
        }
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..5000).collect();
        let out = par_map(4, items, |i, x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..5000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_matches_map() {
        let xs: Vec<u32> = (0..777).map(|i| i * 7).collect();
        let via_indexed = par_map_indexed(4, xs.len(), |i| xs[i] + 1);
        let via_map = par_map(4, xs.clone(), |_, x| x + 1);
        assert_eq!(via_indexed, via_map);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert_eq!(par_map(8, empty, |_, x: u8| x), Vec::<u8>::new());
        assert_eq!(par_map(8, vec![41], |i, x: i32| x + 1 + i as i32), vec![42]);
        assert_eq!(par_map_indexed(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(8, 1, |i| i + 9), vec![9]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, (0..256).collect::<Vec<u32>>(), |_, x| {
                if x == 97 {
                    panic!("probe exploded");
                }
                x
            })
        });
        assert!(result.is_err(), "caller observes the worker panic");
    }

    #[test]
    fn steal_path_runs_on_lopsided_input() {
        // Worker 0 is seeded the slow half; worker 1 exhausts its cheap
        // half and must steal from worker 0's back to finish the job.
        let n = 16;
        let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let stats = run(2, n, &|i| {
            if i < n / 2 {
                std::thread::sleep(Duration::from_millis(4));
            }
            assert!(!done[i].swap(true, Ordering::Relaxed), "index ran once");
        });
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed)));
        assert!(stats.steals > 0, "idle worker stole from the loaded one");
    }

    #[test]
    fn every_index_runs_exactly_once_under_contention() {
        let n = 10_000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        run(8.min(n), n, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn env_resolution_specific_wins_over_shared() {
        // Unique variable names so the test cannot race the rest of the
        // suite (the shared fallback is only set inside this test).
        std::env::set_var("GOVSCAN_THREADS", "3");
        assert_eq!(resolve_threads("GOVSCAN_EXEC_TEST_THREADS"), 3);
        std::env::set_var("GOVSCAN_EXEC_TEST_THREADS", "5");
        assert_eq!(resolve_threads("GOVSCAN_EXEC_TEST_THREADS"), 5);
        std::env::set_var("GOVSCAN_EXEC_TEST_THREADS", "0");
        assert_eq!(resolve_threads("GOVSCAN_EXEC_TEST_THREADS"), 1, "floored");
        std::env::remove_var("GOVSCAN_EXEC_TEST_THREADS");
        std::env::remove_var("GOVSCAN_THREADS");
        assert!(resolve_threads("GOVSCAN_EXEC_TEST_THREADS") >= 1);
    }
}
