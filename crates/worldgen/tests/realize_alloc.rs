//! Allocation budget for realizing a streamed shard: a name's host,
//! address, CAA set and resolution behaviour share one `SimNet` entry
//! under the host's one copy of its name; digests whose bytes are not
//! kept finalize into arrays; key seeds are hashed from their parts;
//! each leaf profile is built once and moves into its certificate; an
//! issued chain is built straight into the shared slice its TLS
//! listener serves; and the hostname generator keeps one copy of each
//! name. Over every shard of a scale-0.05 plan at the default seed,
//! `realize_shard` then makes 9.77 allocation calls per host, against
//! 19.95 when the name was copied into two maps beside a one-address
//! `Vec`, every digest came back as a `Vec` and each profile was built
//! twice (20.67 against 8.38 at scale 3). Dropping the realized shards
//! makes 7.47 deallocations per host, against 10.17 (9.89 against 7.19
//! at scale 3). This file holds one test so that no other test
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use govscan_worldgen::{stream_shards, WorldConfig};

/// The system allocator, counting allocation calls (reallocations
/// included) and deallocations.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; bumping atomic counters
// allocates nothing and touches no memory the caller owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls and deallocations `f` makes, and its result.
fn count<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let (allocs, frees) = (ALLOCS.load(Ordering::SeqCst), FREES.load(Ordering::SeqCst));
    let out = f();
    (
        ALLOCS.load(Ordering::SeqCst) - allocs,
        FREES.load(Ordering::SeqCst) - frees,
        out,
    )
}

#[test]
fn realize_shard_stays_within_its_allocation_budget() {
    // The default seed of every binary and of the benchmark.
    let config = WorldConfig {
        seed: 0x6076_5CA9,
        scale: 0.05,
    };
    let plan = stream_shards(&config);
    let (mut allocs, mut frees, mut hosts) = (0, 0, 0);
    for i in 0..plan.shard_count() {
        let (shard_allocs, _, shard) = count(|| plan.realize_shard(i));
        hosts += shard.hostnames.len();
        let (_, shard_frees, ()) = count(|| drop(shard));
        allocs += shard_allocs;
        frees += shard_frees;
    }
    assert_eq!(hosts as u64, plan.host_count());
    let per_host = allocs as f64 / hosts as f64;
    eprintln!(
        "realize_shard: {per_host:.2} allocation calls per host, dropping: {:.2} \
         deallocations per host, over {hosts} hosts",
        frees as f64 / hosts as f64
    );
    assert!(
        per_host <= 13.0,
        "realizing {hosts} hosts made {allocs} allocation calls, {per_host:.2} per host"
    );
}
