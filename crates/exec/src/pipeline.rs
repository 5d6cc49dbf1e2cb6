//! Bounded, order-preserving producer/consumer pipeline.
//!
//! [`run`] drives `n` work tickets through a pool of producer threads
//! and a single in-order consumer (the calling thread). It is the
//! scheduling core of the streamed generate→scan→archive pipeline: the
//! producers realize-and-scan world shards while the consumer appends
//! the previous shard's records to a `SnapshotWriter`, so records hit
//! disk while the next shard is still being generated.
//!
//! ## Backpressure, not queues
//!
//! The shard window is a hard bound on memory: production of ticket
//! `i` may begin only once ticket `i - window` has been *consumed*.
//! Producers that run ahead block on a condvar instead of growing a
//! queue, so at any instant at most `window` produced-but-unconsumed
//! results exist (the reorder buffer plus everything in flight). With
//! `window == 1` the pipeline degenerates to strict alternation:
//! produce shard `i`, consume shard `i`, produce shard `i+1`, …
//!
//! ## Ordering
//!
//! Tickets are claimed from a shared counter, the crate's one claim
//! protocol (as in [`crate::par_map`]), finish in whatever order
//! the scheduler allows, and park in a reorder buffer; the consumer
//! drains the buffer strictly in ticket order. Callers therefore keep
//! the workspace-wide determinism contract: as long as `produce(i)`
//! derives everything from `i` (in worldgen, from the shard's own RNG
//! stream), the consumed sequence is bit-identical at any thread count
//! and any window.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Shared pipeline state: the reorder buffer and the consume cursor,
/// guarded by one mutex; the condvar wakes both gated producers (the
/// window advanced) and the consumer (a result arrived).
struct Shared<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

struct State<T> {
    /// Produced-but-unconsumed results, keyed by ticket.
    ready: BTreeMap<usize, T>,
    /// Tickets fully consumed so far; ticket `i` may start producing
    /// only when `i < consumed + window`.
    consumed: usize,
    /// A producer panicked or the consumer returned an error; everyone
    /// drains out instead of waiting on events that will never come.
    abort: bool,
}

/// Sets the abort flag and wakes every waiter if its scope unwinds, so
/// a panicking producer cannot strand siblings (or the consumer) on the
/// condvar.
struct AbortOnPanic<'a, T> {
    shared: &'a Shared<T>,
}

impl<T> Drop for AbortOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut st) = self.shared.state.lock() {
                st.abort = true;
            }
            self.shared.cv.notify_all();
        }
    }
}

/// Run `consume(i, produce(i))` for every `i in 0..n`, producing on up
/// to `threads` worker threads with at most `window` tickets in flight
/// beyond the consumer, consuming strictly in ticket order on the
/// calling thread.
///
/// `window` is floored at 1. With `threads <= 1` or fewer than two
/// tickets everything runs inline on the calling thread — byte-for-byte
/// the serial loop, which is what makes the streamed-vs-materialized
/// digest tests meaningful at one thread.
///
/// The first `Err` from `consume` stops the pipeline: in-flight
/// production finishes, gated producers drain out, and the error is
/// returned. (`produce` results past the failure point are dropped.)
///
/// # Panics
///
/// A panic inside `produce` aborts the remaining tickets and is
/// propagated to the caller when the worker scope joins.
pub fn run<T, E, P, C>(
    threads: usize,
    n: usize,
    window: usize,
    produce: P,
    mut consume: C,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    P: Fn(usize) -> T + Sync,
    C: FnMut(usize, T) -> Result<(), E>,
{
    let window = window.max(1);
    if threads <= 1 || n <= 1 {
        for i in 0..n {
            consume(i, produce(i))?;
        }
        return Ok(());
    }
    let shared = Shared {
        state: Mutex::new(State {
            ready: BTreeMap::new(),
            consumed: 0,
            abort: false,
        }),
        cv: Condvar::new(),
    };
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            let shared = &shared;
            let next = &next;
            let produce = &produce;
            s.spawn(move || {
                let _guard = AbortOnPanic { shared };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    // Backpressure gate: wait until ticket i fits in
                    // the in-flight window.
                    {
                        let mut st = shared.state.lock().expect("pipeline lock never poisoned");
                        while !st.abort && i >= st.consumed + window {
                            st = shared.cv.wait(st).expect("pipeline lock never poisoned");
                        }
                        if st.abort {
                            return;
                        }
                    }
                    let item = produce(i);
                    let mut st = shared.state.lock().expect("pipeline lock never poisoned");
                    if st.abort {
                        return;
                    }
                    st.ready.insert(i, item);
                    drop(st);
                    shared.cv.notify_all();
                }
            });
        }
        // The calling thread is the consumer: drain the reorder buffer
        // strictly in ticket order.
        let mut result = Ok(());
        for i in 0..n {
            let item = {
                let mut st = shared.state.lock().expect("pipeline lock never poisoned");
                loop {
                    if let Some(item) = st.ready.remove(&i) {
                        break Some(item);
                    }
                    if st.abort {
                        // A producer panicked; the scope join below
                        // re-raises it.
                        break None;
                    }
                    st = shared.cv.wait(st).expect("pipeline lock never poisoned");
                }
            };
            let Some(item) = item else { break };
            match consume(i, item) {
                Ok(()) => {
                    let mut st = shared.state.lock().expect("pipeline lock never poisoned");
                    st.consumed = i + 1;
                    drop(st);
                    shared.cv.notify_all();
                }
                Err(e) => {
                    result = Err(e);
                    let mut st = shared.state.lock().expect("pipeline lock never poisoned");
                    st.abort = true;
                    drop(st);
                    shared.cv.notify_all();
                    break;
                }
            }
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The produced+consumed sequence matches the serial loop exactly,
    /// at every thread count and window size.
    #[test]
    fn matches_serial_at_any_thread_count_and_window() {
        let n = 200;
        let serial: Vec<(usize, u64)> = (0..n).map(|i| (i, (i as u64).wrapping_mul(31))).collect();
        for threads in [1usize, 2, 4, 8] {
            for window in [1usize, 2, 7, 64] {
                let mut seen = Vec::new();
                let r: Result<(), ()> = run(
                    threads,
                    n,
                    window,
                    |i| (i as u64).wrapping_mul(31),
                    |i, v| {
                        seen.push((i, v));
                        Ok(())
                    },
                );
                assert!(r.is_ok());
                assert_eq!(seen, serial, "threads={threads} window={window}");
            }
        }
    }

    /// The window is a hard bound: produced-but-unconsumed tickets
    /// never exceed it.
    #[test]
    fn window_bounds_in_flight() {
        for window in [1usize, 2, 3] {
            let in_flight = AtomicUsize::new(0);
            let max_seen = AtomicUsize::new(0);
            let r: Result<(), ()> = run(
                4,
                64,
                window,
                |i| {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    i
                },
                |_, _| {
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    Ok(())
                },
            );
            assert!(r.is_ok());
            assert!(
                max_seen.load(Ordering::SeqCst) <= window,
                "window={window} peaked at {}",
                max_seen.load(Ordering::SeqCst)
            );
        }
    }

    /// A consume error stops the pipeline and propagates.
    #[test]
    fn consume_error_stops_pipeline() {
        let consumed = AtomicUsize::new(0);
        let r = run(
            4,
            1000,
            4,
            |i| i,
            |i, _| {
                if i == 3 {
                    return Err("disk full");
                }
                consumed.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        );
        assert_eq!(r, Err("disk full"));
        assert_eq!(consumed.load(Ordering::SeqCst), 3, "stopped at the error");
    }

    /// A producer panic reaches the caller instead of deadlocking the
    /// consumer or gated siblings.
    #[test]
    fn producer_panic_propagates() {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run::<usize, (), _, _>(
                4,
                256,
                2,
                |i| {
                    if i == 5 {
                        panic!("shard exploded");
                    }
                    i
                },
                |_, _| Ok(()),
            )
        }));
        assert!(r.is_err(), "caller observes the producer panic");
    }
}
