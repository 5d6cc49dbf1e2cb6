//! Allocation budget for the verdict cache's repeat path: a memoized
//! chain is found under its sighting hash and confirmed by comparing
//! its fingerprints, so a third sighting allocates nothing. When the
//! memo map was keyed by the fingerprint sequence itself, every sighting
//! after the first collected a `Vec<Fingerprint>` key to look it up.
//! This file holds one test so that no other test allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use govscan_asn1::Time;
use govscan_crypto::{KeyAlgorithm, KeyPair};
use govscan_pki::ca::{CertificateAuthority, IssuancePolicy, LeafProfile};
use govscan_pki::cert::Validity;
use govscan_pki::name::DistinguishedName;
use govscan_pki::trust::TrustStore;
use govscan_pki::ChainVerdictCache;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; bumping an atomic counter
// allocates nothing and touches no memory the caller owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls `f` makes, and its result.
fn count<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = CALLS.load(Ordering::SeqCst);
    let out = f();
    (CALLS.load(Ordering::SeqCst) - before, out)
}

#[test]
fn a_third_sighting_of_a_memoized_chain_allocates_nothing() {
    let validity = Validity {
        not_before: Time::from_ymd(2010, 1, 1),
        not_after: Time::from_ymd(2040, 1, 1),
    };
    let mut root = CertificateAuthority::new_root(
        DistinguishedName::ca("ISRG Root X1", "Internet Security Research Group", "US"),
        KeyPair::from_seed(KeyAlgorithm::Rsa(4096), b"isrg"),
        IssuancePolicy::default(),
        validity,
    );
    let inter = CertificateAuthority::new_intermediate(
        &mut root,
        DistinguishedName::ca("R3", "Let's Encrypt", "US"),
        KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"r3"),
        IssuancePolicy::default(),
        validity,
    );
    let mut trust = TrustStore::new();
    trust.add_root(root.cert.clone());
    let host = "www.nih.gov";
    let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), host.as_bytes());
    let leaf = inter.issue_deterministic(&LeafProfile::dv(
        host,
        key.public(),
        Time::from_ymd(2020, 3, 1),
    ));
    let chain = vec![leaf, inter.cert.clone()];
    let cache = ChainVerdictCache::new(trust, Time::from_ymd(2020, 4, 22));

    // The first sighting computes without storing, the second computes
    // again and memoizes.
    let first = cache.structure(&chain).expect("valid");
    cache.structure(&chain).expect("valid");
    assert_eq!((cache.misses(), cache.hits(), cache.len()), (2, 0, 1));

    let (calls, third) = count(|| cache.structure(&chain));
    let third = third.expect("valid");
    assert_eq!(third.path, first.path);
    assert_eq!(
        (cache.misses(), cache.hits()),
        (2, 1),
        "the third sighting hits"
    );
    assert_eq!(
        calls, 0,
        "a third sighting of a memoized chain made {calls} allocation calls"
    );
}
