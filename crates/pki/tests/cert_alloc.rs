//! Allocation budgets for the issue-and-validate path: a certificate is
//! encoded once into one buffer, its TBS bytes are kept from signing,
//! and a clone shares its body. Issuing a leaf and taking its
//! fingerprint, and validating the chain it heads, must each stay under
//! half the allocation calls they made when every nested DER element
//! had its own buffer, the TBS was re-encoded for each signature check
//! and a clone deep-copied the certificate: 286 and 352 calls then, 36
//! and 21 now. This file holds one test so that no other test allocates
//! while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use govscan_asn1::Time;
use govscan_crypto::{KeyAlgorithm, KeyPair};
use govscan_pki::ca::{CertificateAuthority, IssuancePolicy, LeafProfile};
use govscan_pki::cert::Validity;
use govscan_pki::name::DistinguishedName;
use govscan_pki::trust::TrustStore;
use govscan_pki::validate_chain;

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
fn issue_and_validate_stay_within_their_allocation_budgets() {
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
    // The CAs' own fingerprints are taken once, as a scan's first chain
    // would take them.
    inter.cert.fingerprint();
    root.cert.fingerprint();
    let host = "www.nih.gov";
    let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), host.as_bytes());
    let profile = LeafProfile::dv(host, key.public(), Time::from_ymd(2020, 3, 1));

    let (issue_calls, leaf) = count(|| {
        let leaf = inter.issue_deterministic(&profile);
        leaf.fingerprint();
        leaf
    });
    let (validate_calls, verdict) = count(|| {
        let chain = vec![leaf.clone(), inter.cert.clone()];
        validate_chain(&chain, &trust, host, Time::from_ymd(2020, 4, 22)).map(|v| v.path.len())
    });

    assert_eq!(verdict, Ok(3), "the chain validates to the root");
    assert!(
        issue_calls <= 143,
        "issuing a leaf and fingerprinting it made {issue_calls} allocation calls"
    );
    assert!(
        validate_calls <= 176,
        "building and validating its chain made {validate_calls} allocation calls"
    );
}
