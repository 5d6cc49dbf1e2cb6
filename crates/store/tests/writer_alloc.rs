//! Allocation budgets for the snapshot writer: the string table keeps
//! one copy of its text, the strings section payload itself, indexed by
//! hash, and every host record is encoded into one reused buffer. So
//! appending records costs amortized buffer growth, not allocations per
//! record, and finishing frees a handful of buffers, not every string.
//! When the table owned each distinct string twice and each record grew
//! a fresh encoder, appending these 10,000 records made about 6.4
//! allocation calls per record, and finishing and dropping the writer at
//! least two deallocations per distinct string. This file holds one test
//! so that no other test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};

use govscan_crypto::{Fingerprint, KeyAlgorithm, SignatureAlgorithm};
use govscan_pki::caa::CaaRecord;
use govscan_pki::Time;
use govscan_scanner::dataset::HostingKind;
use govscan_scanner::{CertMeta, ErrorCategory, HttpsStatus, ScanRecord};
use govscan_store::{Snapshot, SnapshotWriter};

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

/// One of three certificates, by index.
fn cert(i: usize) -> CertMeta {
    let k = (i % 3) as u8;
    CertMeta {
        issuer: ["R3", "DigiCert TLS RSA SHA256 2020 CA1", "Sectigo RSA DV"][i % 3].to_string(),
        key_algorithm: KeyAlgorithm::Rsa(2048),
        signature_algorithm: SignatureAlgorithm::Sha256WithRsa,
        not_before: Time::from_ymd(2020, 1, 1),
        not_after: Time::from_ymd(2021, 1, 1),
        serial: format!("0{k}"),
        fingerprint: Fingerprint::from_digest(&[k; 32]),
        key_fingerprint: Fingerprint::from_digest(&[k + 3; 32]),
        wildcard: false,
        is_ev: false,
        self_issued: false,
        chain_len: 2,
    }
}

/// 10,000 records with distinct hostnames, repeating countries,
/// providers, CAA values and certificates, as a scanned shard does.
fn records() -> Vec<ScanRecord> {
    let countries = ["br", "cn", "bd", "us", "kr"];
    (0..10_000)
        .map(|i| {
            let mut r = ScanRecord::unavailable(format!("host-{i}.gov.{}", countries[i % 5]));
            r.country = Some(countries[i % 5]);
            if i % 2 == 0 {
                r.available = true;
                r.http_200 = true;
                r.ip = Some(Ipv4Addr::new(192, 0, 2, (i % 250) as u8));
                r.hosting = [HostingKind::Private, HostingKind::Cloud("Amazon AWS")][i % 4 / 2];
                r.https = if i % 6 == 0 {
                    HttpsStatus::Valid(cert(i))
                } else {
                    HttpsStatus::Invalid(ErrorCategory::HostnameMismatch, Some(cert(i)))
                };
            }
            if i % 10 == 0 {
                r.caa = vec![CaaRecord::issue("letsencrypt.org")];
            }
            r
        })
        .collect()
}

#[test]
fn append_and_finish_stay_within_their_allocation_budgets() {
    let records = records();
    let mut writer =
        SnapshotWriter::new(Cursor::new(Vec::new()), Some(Time::from_ymd(2020, 4, 22)))
            .expect("in-memory sink");
    let (append_allocs, _, appended) = count(|| writer.append_records(&records));
    appended.expect("representable records");
    assert_eq!(writer.host_count(), 10_000);

    // `finish` consumes the writer: its pools are freed before it
    // returns the sink.
    let (_, finish_frees, bytes) = count(|| writer.finish().map(Cursor::into_inner));
    let bytes = bytes.expect("in-memory sink");

    assert!(
        append_allocs <= 500,
        "appending 10,000 records made {append_allocs} allocation calls"
    );
    assert!(
        finish_frees <= 100,
        "finishing and dropping the writer made {finish_frees} deallocations"
    );
    // The budgets hold for a correct archive.
    let snapshot = Snapshot::from_bytes(bytes).expect("a valid archive");
    let dataset = snapshot.dataset().expect("every section verifies");
    assert_eq!(dataset.records(), &records[..]);
}
