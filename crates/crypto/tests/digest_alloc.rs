//! Allocation budget for the digests: every hasher buffers at most one
//! partial block inline and pads in place, so a one-shot `digest` makes
//! exactly one allocation, its output, however long its input. When
//! each hasher copied its input into a growing `Vec` and padded through
//! a freshly allocated one, `digest` made 4 allocation calls here (3
//! for SHA-512 of 100 B), and `Sha256::digest` of 1 MiB requested
//! 1,048,736 bytes (252 for 100 B). Only the measuring thread counts, so
//! the test harness's own threads cannot allocate into the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use govscan_crypto::{Digest, Md5, Sha1, Sha256, Sha512};

/// The system allocator, counting allocation calls and bytes requested
/// on a thread that has armed it.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread runs the measured call.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Count one allocation call of `bytes` if the current thread is
/// measuring. A `const`-initialized `Cell` needs no lazy setup, so
/// reading it never allocates; `try_with` reads `false` on a thread
/// being torn down.
fn count(bytes: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::SeqCst);
        BYTES.fetch_add(bytes, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; reading a thread-local flag
// and bumping atomic counters allocate nothing and touch no memory the
// caller owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls and bytes `H::digest(data)` makes, checked against
/// its one output allocation.
fn assert_one_allocation<H: Digest>(name: &str, data: &[u8]) {
    let (calls, bytes) = (CALLS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    ARMED.set(true);
    let out = H::digest(data);
    ARMED.set(false);
    let calls = CALLS.load(Ordering::SeqCst) - calls;
    let bytes = BYTES.load(Ordering::SeqCst) - bytes;
    assert_eq!(out.len(), H::OUT);
    assert_eq!(
        (calls, bytes),
        (1, H::OUT),
        "{name}::digest of {} bytes: {calls} allocation calls, {bytes} bytes",
        data.len()
    );
}

#[test]
fn digest_allocates_only_its_output() {
    let small = vec![0x5au8; 100];
    let large = vec![0xa5u8; 1 << 20];
    for data in [&small, &large] {
        assert_one_allocation::<Md5>("Md5", data);
        assert_one_allocation::<Sha1>("Sha1", data);
        assert_one_allocation::<Sha256>("Sha256", data);
        assert_one_allocation::<Sha512>("Sha512", data);
    }
}
