//! Allocation budget for the government filter: `GovFilter::classify`
//! matches label-aligned suffixes on the hostname's bytes, ignoring ASCII
//! case, so it makes no allocation on any input. When it lowercased a
//! copy of the hostname, collected its labels into a `Vec` and split
//! every exception into another, it made 15.3 allocation calls per
//! scanned host. The crawl criteria (`has_cc_tld`, `crawlable`) share its
//! country-code lookup and allocate nothing either. Only the measuring
//! thread counts, so the test harness's own threads cannot allocate into
//! the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use govscan_scanner::filter::COUNTRY_CODES;
use govscan_scanner::GovFilter;

/// The system allocator, counting every allocation and reallocation
/// made on a thread that has armed it.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread runs the measured call.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Count one allocation call if the current thread is measuring. A
/// `const`-initialized `Cell` needs no lazy setup, so reading it never
/// allocates; `try_with` reads `false` on a thread being torn down.
fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; reading a thread-local flag
// and bumping an atomic counter allocate nothing and touch no memory
// the caller owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Hostnames under every country code and label convention, the
/// exceptions, and malformed, mixed-case and non-ASCII names.
fn corpus() -> Vec<String> {
    let labels = [
        "gov",
        "GOUV",
        "gob",
        "go",
        "gov2",
        "Government",
        "admin",
        "x",
        "g0v",
        "é",
    ];
    let mut hosts: Vec<String> = Vec::new();
    for cc in COUNTRY_CODES {
        for label in labels {
            hosts.push(format!("www.{label}.{cc}"));
            hosts.push(format!("{label}.{}", cc.to_ascii_uppercase()));
        }
    }
    for odd in [
        "",
        ".",
        "..",
        "gov",
        "x.gov.",
        "x..gov",
        ".x.gov",
        "WWW.NIH.GOV.",
        "gc.ca",
        "www.gc.ca",
        "notgc.ca",
        "e.rks-gov.net",
        "abcgov.us",
        "etagov.sl",
        "eta.gov.lk",
        "x.gov.é",
        "ñ.gob.mx",
        "x.gov.🇧🇩",
        "a.fed.us",
        "x.mil",
        "localhost",
        "x.gov.uk",
    ] {
        hosts.push(odd.to_string());
        hosts.push(format!("{odd}."));
    }
    hosts
}

#[test]
fn classify_makes_no_allocation() {
    let filter = GovFilter::standard();
    let hosts = corpus();
    let before = CALLS.load(Ordering::SeqCst);
    let mut government = 0usize;
    let mut crawlable = 0usize;
    ARMED.set(true);
    for host in &hosts {
        government += usize::from(filter.classify(host).is_some());
        crawlable += usize::from(filter.crawlable(host));
    }
    ARMED.set(false);
    let calls = CALLS.load(Ordering::SeqCst) - before;
    assert_eq!(calls, 0, "classifying {} hostnames allocated", hosts.len());
    assert!(government > 1_000, "{government} government hostnames");
    assert!(crawlable > government, "{crawlable} crawlable hostnames");
}
