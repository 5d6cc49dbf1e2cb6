//! # govscan-exec
//!
//! The workspace's shared parallel executor: [`par_map`] and
//! [`par_map_indexed`] for batch work (world generation, the scan
//! engine, the monitor's shards) and [`pipeline::run`] for the
//! streamed producer/consumer pipeline. Both start only
//! `std::thread::scope` threads, as the query daemon and the
//! distributed coordinator do for their connections.
//!
//! ## One claim protocol
//!
//! The batch maps and the pipeline hand out work the same way: each of
//! `workers` scoped threads takes the next index from one shared
//! `AtomicUsize` (`fetch_add(1)`) until the index passes `n`. There is
//! no dispatcher thread, no queue and no lock on the claim, and no
//! worker ever holds more than the one item it is running, so a slow
//! item strands nothing behind it: the other workers keep claiming the
//! indices after it.
//!
//! ## Determinism contract
//!
//! The executor never makes output depend on scheduling: every item `i`
//! is claimed by exactly one worker, `f(i, item)` writes into the
//! pre-sized slot `i`, and the returned `Vec` is in input order. Callers
//! keep the stronger contract they already had — `f` derives everything
//! from `(i, item)` (in worldgen, from the shard's own RNG stream) — so
//! any thread count produces bit-identical worlds, scans, indexes, and
//! archives. A panic in any worker stops the others claiming and is
//! propagated to the caller by the scope join.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default cap on the worker count when no environment variable pins it:
/// beyond 8 workers the workloads in this workspace are memory-bound and
/// extra threads only add contention.
const DEFAULT_THREAD_CAP: usize = 8;

/// Resolve a worker count from the environment.
///
/// Precedence: `specific_var`, then `GOVSCAN_THREADS`, then the
/// machine's available parallelism capped at `DEFAULT_THREAD_CAP` (8).
/// Explicit values are floored at 1. Every program call site passes
/// `"GOVSCAN_THREADS"` itself, so the workspace reads one thread
/// variable. The parameter stays only for the repository benchmark's
/// probe mirror, which passes a name of its own; the benchmark removes
/// that variable from its child processes and pins `GOVSCAN_THREADS` to
/// the core count, so the mirror and `scan_hosts` resolve the same
/// count.
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

/// Map `f` over `items` on `threads` scoped workers, returning
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
    par_map_indexed(threads, n, |i| {
        let item = inputs[i]
            .lock()
            .expect("input cell lock is never poisoned")
            .take()
            .expect("each index is claimed exactly once");
        f(i, item)
    })
}

/// Run `f(i)` for every `i in 0..n` on `threads` scoped workers, returning
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

/// Sets the abort flag if its scope unwinds, so sibling workers stop
/// claiming work.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// The engine: `workers` scoped threads each claim the next index from
/// one shared counter until it passes `n` or a sibling panics. Every
/// index is returned by exactly one `fetch_add`, so `job` runs once per
/// index. `Relaxed` suffices for both atomics: neither publishes data
/// (results pass through the slot mutexes, and the scope join orders
/// every write before the caller reads them).
fn run(workers: usize, n: usize, job: &(impl Fn(usize) + Sync)) {
    debug_assert!(workers >= 2 && workers <= n);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let _guard = AbortOnPanic(&abort);
                while !abort.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    job(i);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;
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
    fn a_slow_item_strands_no_other_item() {
        // Item 0 holds its worker until every other index has run (or a
        // generous timeout passes). With one claim per index the other
        // worker takes all of them meanwhile, so none runs on item 0's
        // thread; an engine that hands out batches leaves the rest of
        // item 0's batch waiting behind it.
        let n = 64;
        let others_done = (Mutex::new(0usize), Condvar::new());
        let ran_on = par_map_indexed(2, n, |i| {
            let (count, cv) = &others_done;
            if i == 0 {
                let guard = count.lock().expect("count lock");
                let waited = cv.wait_timeout_while(guard, Duration::from_secs(5), |c| *c < n - 1);
                drop(waited.expect("count lock"));
            } else {
                *count.lock().expect("count lock") += 1;
                cv.notify_all();
            }
            std::thread::current().id()
        });
        let stranded: Vec<usize> = (1..n).filter(|&i| ran_on[i] == ran_on[0]).collect();
        assert!(
            stranded.is_empty(),
            "ran after the slow item on its thread: {stranded:?}"
        );
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
