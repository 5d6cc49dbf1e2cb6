//! Memoized chain validation — the scan hot path's verdict cache.
//!
//! Real-world scans see the same certificate chain on many hosts: a
//! wildcard certificate deployed across a ministry's portals, a CDN
//! terminating thousands of government sites, one appliance cert copied
//! onto every city's server. The structural half of the verdict
//! ([`validate_chain_structure`]) depends only on the chain, the trust
//! store, and the scan time — so a [`ChainVerdictCache`] computes it
//! twice per repeating chain and replays it for every later host,
//! leaving only the cheap per-host [`check_hostname`] step on the hot
//! path.
//!
//! The cache is keyed by the chain's certificate fingerprints, which
//! identify the DER bytes exactly. It is sharded: each shard holds an
//! independent map behind its own mutex, so scanner workers contend only
//! when they hash to the same shard. Verdicts are stored as
//! `Result<Arc<ValidatedChain>, CertError>` — hits clone an `Arc` and a
//! `Copy` error, never a certificate path.
//!
//! Insertion is **lazy**: the first sighting of a chain records only a
//! 64-bit key hash and returns the computed verdict without storing it;
//! the verdict is memoized on the *second* sighting, when the chain has
//! proven it repeats. A cold scan over mostly-distinct chains (the
//! generated world issues nearly one chain per TLS host outside the
//! shared-chain clusters) therefore pays no key allocation, no verdict
//! clone, and no map growth — the bookkeeping that once made a cold scan
//! measurably *slower* than the uncached baseline (0.97×, then 1.00×
//! with lazy insertion; CHANGES.md, "streamed generate→scan→archive
//! pipeline"). Chains that do repeat pay one extra structural validation
//! (on their second sighting) and then hit forever. A hash collision
//! between two distinct chains is harmless: the verdict map is still
//! keyed by the full fingerprint sequence, so a collision only promotes
//! a chain into the map one sighting early.
//!
//! The second sighting inserts the chain's memo cell under the shard
//! lock and computes the verdict outside it. A sighting that races it
//! finds the cell and waits on it instead of computing again, so a
//! repeating chain misses exactly twice at any thread interleaving.
//!
//! One cache is valid for exactly one (trust store, scan time) pair:
//! both are fixed at construction, and using the cache with a different
//! trust store than the one it was built for would replay stale
//! verdicts. [`ChainVerdictCache::validate`] therefore takes the trust
//! store from the cache itself, not from the caller.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use govscan_asn1::Time;
use govscan_crypto::Fingerprint;

use crate::cert::Certificate;
use crate::trust::TrustStore;
use crate::validate::{check_hostname, validate_chain_structure, CertError, ValidatedChain};

/// Number of independent shards. Fingerprints are uniformly distributed
/// (they are SHA-256 output), so a power of two spreads load evenly;
/// 16 shards keep contention negligible for the worker counts the
/// scanner uses (≤ 8) without bloating the structure.
const SHARDS: usize = 16;

/// The host-independent verdict for one chain, as stored in the cache.
type Verdict = Result<Arc<ValidatedChain>, CertError>;

/// One shard: the sighting filter plus the verdict map it gates.
#[derive(Default)]
struct Shard {
    /// FNV-1a-64 hashes of every chain sighted so far. Membership
    /// without a map entry means "seen exactly once" — the next
    /// sighting promotes the chain into `map`.
    seen: HashSet<u64>,
    /// Memo cells for chains sighted at least twice, keyed by the exact
    /// fingerprint sequence (collisions in `seen` can promote early but
    /// can never replay the wrong verdict). A cell is inserted empty and
    /// filled once, outside the lock, by the sighting that promoted it.
    map: HashMap<Box<[Fingerprint]>, Arc<OnceLock<Verdict>>>,
}

/// Lock a shard, ignoring poisoning: every write under the lock is a
/// single insert, so a panicked holder cannot leave a shard
/// half-updated.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded, thread-safe memo of structural chain verdicts for one
/// (trust store, scan time) pair.
pub struct ChainVerdictCache {
    trust: TrustStore,
    now: Time,
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ChainVerdictCache {
    /// Build an empty cache bound to `trust` and scan time `now`.
    pub fn new(trust: TrustStore, now: Time) -> ChainVerdictCache {
        ChainVerdictCache {
            trust,
            now,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The trust store verdicts are computed against.
    pub fn trust(&self) -> &TrustStore {
        &self.trust
    }

    /// The scan time verdicts are computed at.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Full validation of `peer_chain` as presented to `host`:
    /// memoized structural verdict, then the per-host hostname check.
    ///
    /// Equivalent to [`crate::validate_chain`] with this cache's trust
    /// store and scan time — same verdicts, same error precedence — but
    /// O(1) after the first sighting of a chain.
    pub fn validate(
        &self,
        peer_chain: &[Certificate],
        host: &str,
    ) -> Result<Arc<ValidatedChain>, CertError> {
        let validated = self.structure(peer_chain)?;
        check_hostname(&validated, host)?;
        Ok(validated)
    }

    /// The memoized structural verdict for `peer_chain`.
    pub fn structure(&self, peer_chain: &[Certificate]) -> Verdict {
        // Streaming FNV-1a over the fingerprint bytes: the cold path
        // (first sighting) needs no key allocation at all, which is
        // what keeps a cold scan at least as fast as the uncached
        // baseline. Fingerprints are memoized on the certificates, so
        // this walk is a few cache-line reads per cert.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut shard_idx = 0usize;
        for (i, cert) in peer_chain.iter().enumerate() {
            let fp = cert.fingerprint();
            let bytes = fp.as_bytes();
            if i == 0 {
                // The first byte of a SHA-256 fingerprint is already
                // uniform; empty chains land in shard 0.
                shard_idx = bytes[0] as usize % SHARDS;
            }
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let shard = &self.shards[shard_idx];
        let cell = {
            let mut s = lock(shard);
            if s.seen.insert(hash) {
                // First sighting: record the hash only. Compute outside
                // the lock and return without memoizing — most chains
                // in a scan never repeat, and singletons shouldn't pay
                // for key boxing, verdict cloning, or map growth.
                drop(s);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return validate_chain_structure(peer_chain, &self.trust, self.now).map(Arc::new);
            }
            // Sighted before: the full-key map holds the memo cell, or
            // this is the second sighting, which inserts it.
            let key: Vec<Fingerprint> = peer_chain.iter().map(|c| c.fingerprint()).collect();
            match s.map.get(key.as_slice()) {
                Some(cell) => Arc::clone(cell),
                None => {
                    let cell = Arc::new(OnceLock::new());
                    s.map.insert(key.into_boxed_slice(), Arc::clone(&cell));
                    cell
                }
            }
        };
        // Fill the cell outside the lock — structural validation walks
        // and verifies the whole chain, and other chains hashing to this
        // shard shouldn't wait behind it. The sighting that runs the
        // initializer counts the miss; every other one, including one
        // that waits for a racing initializer, counts a hit.
        let mut computed = false;
        let verdict = cell.get_or_init(|| {
            computed = true;
            validate_chain_structure(peer_chain, &self.trust, self.now).map(Arc::new)
        });
        let counter = if computed { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        verdict.clone()
    }

    /// Cache hits so far (structural lookups answered from the memo).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (structural verdicts actually computed). A
    /// repeating chain misses twice — once on first sighting, once when
    /// its second sighting promotes it into the memo — then hits.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct chains memoized. Lazy insertion means chains
    /// sighted exactly once are not counted — they were never stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// True when no verdict has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for ChainVerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainVerdictCache")
            .field("chains", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::{CertificateAuthority, IssuancePolicy, LeafProfile};
    use crate::cert::Validity;
    use crate::name::DistinguishedName;
    use crate::validate_chain;
    use govscan_crypto::{KeyAlgorithm, KeyPair};

    fn scan_time() -> Time {
        Time::from_ymd(2020, 4, 22)
    }

    fn pki() -> (CertificateAuthority, CertificateAuthority, TrustStore) {
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::ca("Cache Root", "Org", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(4096), b"cache-root"),
            IssuancePolicy::default(),
            Validity {
                not_before: Time::from_ymd(2010, 1, 1),
                not_after: Time::from_ymd(2040, 1, 1),
            },
        );
        let inter = CertificateAuthority::new_intermediate(
            &mut root,
            DistinguishedName::ca("Cache Inter", "Org", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"cache-inter"),
            IssuancePolicy::default(),
            Validity {
                not_before: Time::from_ymd(2010, 1, 1),
                not_after: Time::from_ymd(2040, 1, 1),
            },
        );
        let mut trust = TrustStore::new();
        trust.add_root(root.cert.clone());
        (root, inter, trust)
    }

    fn issue(inter: &mut CertificateAuthority, host: &str) -> Certificate {
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), host.as_bytes());
        inter.issue(&LeafProfile::dv(
            host,
            key.public(),
            Time::from_ymd(2020, 3, 1),
        ))
    }

    #[test]
    fn hit_replays_identical_verdict() {
        let (_root, mut inter, trust) = pki();
        let leaf = issue(&mut inter, "www.nih.gov");
        let chain = vec![leaf, inter.cert.clone()];
        let cache = ChainVerdictCache::new(trust.clone(), scan_time());

        // Lazy insertion: the first sighting computes without storing,
        // the second computes again and memoizes, the third hits.
        let first = cache.validate(&chain, "www.nih.gov").expect("valid");
        let second = cache.validate(&chain, "www.nih.gov").expect("valid");
        assert_eq!(first.path, second.path);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 1);
        let third = cache.validate(&chain, "www.nih.gov").expect("valid");
        assert_eq!(first.path, third.path);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 1);

        let reference = validate_chain(&chain, &trust, "www.nih.gov", scan_time()).unwrap();
        assert_eq!(first.path, reference.path);
    }

    #[test]
    fn hostname_mismatch_still_per_host() {
        // The structural verdict is shared; the hostname verdict is not.
        let (_root, mut inter, trust) = pki();
        let leaf = issue(&mut inter, "a.gov.xx");
        let chain = vec![leaf, inter.cert.clone()];
        let cache = ChainVerdictCache::new(trust, scan_time());

        assert!(cache.validate(&chain, "a.gov.xx").is_ok());
        assert_eq!(
            cache.validate(&chain, "b.gov.xx").unwrap_err(),
            CertError::HostnameMismatch
        );
        // The second sighting promoted the chain into the memo; from
        // the third on, one structural verdict serves every host.
        assert_eq!(
            cache.validate(&chain, "c.gov.xx").unwrap_err(),
            CertError::HostnameMismatch
        );
        assert!(cache.validate(&chain, "a.gov.xx").is_ok());
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn errors_are_cached_too() {
        let (_root, mut inter, _trust) = pki();
        let leaf = issue(&mut inter, "x.gov.xx");
        let chain = vec![leaf, inter.cert.clone()];
        // Empty store: every chain fails with UnableToGetLocalIssuer.
        let cache = ChainVerdictCache::new(TrustStore::new(), scan_time());
        for _ in 0..4 {
            assert_eq!(
                cache.validate(&chain, "x.gov.xx").unwrap_err(),
                CertError::UnableToGetLocalIssuer
            );
        }
        // Sightings 1 and 2 compute (the second memoizes), 3 and 4 hit.
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn distinct_chains_get_distinct_entries() {
        let (_root, mut inter, trust) = pki();
        let cache = ChainVerdictCache::new(trust, scan_time());
        let chains: Vec<(String, Vec<Certificate>)> = (0..10)
            .map(|i| {
                let host = format!("h{i}.gov.xx");
                let chain = vec![issue(&mut inter, &host), inter.cert.clone()];
                (host, chain)
            })
            .collect();
        // A cold pass over all-distinct chains stores nothing at all —
        // that is the lazy-insertion win.
        for (host, chain) in &chains {
            assert!(cache.validate(chain, host).is_ok());
        }
        assert_eq!(cache.len(), 0, "singletons are never stored");
        assert_eq!(cache.misses(), 10);
        assert_eq!(cache.hits(), 0);
        // The second pass promotes every chain into its own entry; the
        // third pass is all hits.
        for (host, chain) in &chains {
            assert!(cache.validate(chain, host).is_ok());
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.misses(), 20);
        for (host, chain) in &chains {
            assert!(cache.validate(chain, host).is_ok());
        }
        assert_eq!(cache.hits(), 10);
    }

    #[test]
    fn empty_chain_verdict() {
        let cache = ChainVerdictCache::new(TrustStore::new(), scan_time());
        assert_eq!(
            cache.validate(&[], "x.gov").unwrap_err(),
            CertError::EmptyChain
        );
        assert_eq!(
            cache.validate(&[], "y.gov").unwrap_err(),
            CertError::EmptyChain
        );
        assert_eq!(
            cache.validate(&[], "z.gov").unwrap_err(),
            CertError::EmptyChain
        );
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn shared_across_threads() {
        let (_root, mut inter, trust) = pki();
        let leaf = issue(&mut inter, "par.gov.xx");
        let chain = vec![leaf, inter.cert.clone()];
        let cache = ChainVerdictCache::new(trust, scan_time());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert!(cache.validate(&chain, "par.gov.xx").is_ok());
                    }
                });
            }
        });
        // The first sighting and the one that inserts the memo cell
        // compute; every other sighting hits, however the threads race.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 198);
    }

    #[test]
    fn racing_sightings_miss_exactly_twice() {
        // Eight threads released together on a fresh cache: the second
        // and third sightings race, and only the one that fills the memo
        // cell may count a miss.
        let (_root, mut inter, trust) = pki();
        let chain = vec![issue(&mut inter, "race.gov.xx"), inter.cert.clone()];
        for round in 0..1000 {
            let cache = ChainVerdictCache::new(trust.clone(), scan_time());
            let barrier = std::sync::Barrier::new(8);
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        barrier.wait();
                        assert!(cache.validate(&chain, "race.gov.xx").is_ok());
                    });
                }
            });
            assert_eq!((cache.misses(), cache.hits()), (2, 6), "round {round}");
        }
    }
}
