//! A frame's length prefix must not size an allocation: `read_message`
//! grows its buffer with the payload bytes that actually arrive, so a
//! 12-byte frame claiming `MAX_FRAME` bytes costs kilobytes, not
//! 256 MiB. This file holds one test so that no other test allocates
//! while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Cursor, ErrorKind};
use std::sync::atomic::{AtomicUsize, Ordering};

use govscan_orchestrate::protocol::{read_message, MAX_FRAME};

/// The system allocator, recording the largest single request.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; recording a size in an
// atomic allocates nothing and touches no memory the caller owns.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::SeqCst);
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

#[test]
fn lying_length_prefix_allocates_only_what_arrives() {
    // A MAX_FRAME header, then 8 of its promised payload bytes (a
    // Result tag and the start of its shard index).
    let mut frame = MAX_FRAME.to_le_bytes().to_vec();
    frame.extend_from_slice(&[4, 0, 0, 0, 0, 0, 0, 0]);
    let mut input = Cursor::new(frame);

    LARGEST.store(0, Ordering::SeqCst);
    let err = read_message(&mut input).expect_err("payload ends 8 bytes in");
    let largest = LARGEST.load(Ordering::SeqCst);

    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    assert!(
        largest < 64 * 1024,
        "largest single allocation was {largest} bytes"
    );
}
