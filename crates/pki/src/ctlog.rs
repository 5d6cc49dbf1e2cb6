//! A Certificate Transparency log (RFC 6962-style Merkle tree).
//!
//! §2.2 of the paper discusses CT as the auditing substrate for issuance
//! and notes that "there is no existing measurement of the number of
//! government domain certificates missing from CT logs" — an extension
//! this workspace implements: the world generator logs most CA-issued
//! certificates here, and `govscan-analysis` measures the government
//! slice's coverage (the `ct_coverage` experiment).
//!
//! The tree follows RFC 6962 §2.1: leaf hashes are `SHA-256(0x00 ‖
//! entry)`, interior nodes `SHA-256(0x01 ‖ left ‖ right)`, with the
//! standard unbalanced split (largest power of two strictly less than
//! `n`). Inclusion (audit) proofs verify against the signed tree head.
//!
//! The log stores every complete subtree: `levels[j][i]` is the hash of
//! leaves `[i·2^j, (i+1)·2^j)`, and `levels[0]` holds the leaf hashes.
//! An append fills the levels like a binary counter, one node hash on
//! average, and never rewrites a node. Only the nodes on the tree's
//! right edge are computed on demand, so the root costs O(log n) node
//! hashes and an inclusion proof O(log² n). The stored nodes take about
//! 2 × leaves × 32 bytes.

use std::collections::HashMap;

use govscan_crypto::{Digest, Fingerprint, Sha256};

use crate::cert::Certificate;

/// A Merkle tree hash (SHA-256).
pub type Hash = [u8; 32];

fn leaf_hash(entry: &[u8]) -> Hash {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(entry);
    h.finalize_fixed()
}

fn node_hash(left: &Hash, right: &Hash) -> Hash {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize_fixed()
}

/// Largest power of two strictly less than `n` (n ≥ 2): the RFC 6962
/// split. Read off the bit length of `n − 1`, so it cannot overflow
/// for any `n`, including a hostile proof's `tree_size`.
fn largest_power_of_two_below(n: u64) -> u64 {
    debug_assert!(n >= 2);
    1 << (63 - (n - 1).leading_zeros())
}

/// An inclusion (audit) proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionProof {
    /// Index of the leaf the proof is for.
    pub leaf_index: u64,
    /// Tree size the proof was generated against.
    pub tree_size: u64,
    /// Sibling hashes, leaf-to-root.
    pub path: Vec<Hash>,
}

/// An append-only certificate log.
#[derive(Debug, Clone, Default)]
pub struct CtLog {
    // `levels[j][i]` is the hash of leaves `[i·2^j, (i+1)·2^j)`, so
    // `levels[j]` holds `size / 2^j` nodes (see the module doc).
    levels: Vec<Vec<Hash>>,
    // First leaf index per fingerprint. The CT-coverage analysis probes
    // this once per scanned host, so lookup must not walk the log.
    index: HashMap<Fingerprint, u64>,
}

impl CtLog {
    /// An empty log.
    pub fn new() -> CtLog {
        CtLog::default()
    }

    /// Append a certificate; returns its leaf index.
    pub fn append(&mut self, cert: &Certificate) -> u64 {
        let idx = self.size();
        // Carry like a binary counter: a level that reaches an even
        // length has completed a subtree one level up.
        let mut node = leaf_hash(cert.to_der());
        for level in 0.. {
            if level == self.levels.len() {
                self.levels.push(Vec::new());
            }
            let row = &mut self.levels[level];
            row.push(node);
            if row.len() % 2 == 1 {
                break;
            }
            node = node_hash(&row[row.len() - 2], &row[row.len() - 1]);
        }
        // Duplicates keep their first index, matching what a linear
        // front-to-back scan of the log would report.
        self.index.entry(cert.fingerprint()).or_insert(idx);
        idx
    }

    /// Number of logged entries.
    pub fn size(&self) -> u64 {
        self.levels.first().map_or(0, |leaves| leaves.len() as u64)
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// The current tree head (Merkle root).
    pub fn root(&self) -> Hash {
        self.mth(0, self.size())
    }

    /// Is a certificate (by fingerprint) present?
    pub fn contains_fingerprint(&self, fingerprint: Fingerprint) -> bool {
        self.index.contains_key(&fingerprint)
    }

    /// Index of a certificate by fingerprint (first occurrence).
    pub fn index_of(&self, fingerprint: Fingerprint) -> Option<u64> {
        self.index.get(&fingerprint).copied()
    }

    /// Build the RFC 6962 §2.1.1 audit path for `leaf_index` against the
    /// current tree.
    pub fn prove_inclusion(&self, leaf_index: u64) -> Option<InclusionProof> {
        let n = self.size();
        if leaf_index >= n {
            return None;
        }
        let mut path = Vec::new();
        self.audit_path(0, n, leaf_index, &mut path);
        Some(InclusionProof {
            leaf_index,
            tree_size: n,
            path,
        })
    }

    /// Verify an inclusion proof for `cert` against `root`.
    pub fn verify_inclusion(cert: &Certificate, proof: &InclusionProof, root: &Hash) -> bool {
        if proof.leaf_index >= proof.tree_size {
            return false;
        }
        let mut hash = leaf_hash(cert.to_der());
        let mut index = proof.leaf_index;
        let mut size = proof.tree_size;
        let mut path = proof.path.iter();
        // Walk up the RFC 6962 unbalanced tree.
        fn walk(
            index: &mut u64,
            size: &mut u64,
            hash: &mut Hash,
            path: &mut std::slice::Iter<'_, Hash>,
        ) -> bool {
            if *size == 1 {
                return true;
            }
            let k = largest_power_of_two_below(*size);
            if *index < k {
                let mut sub_index = *index;
                let mut sub_size = k;
                if !walk(&mut sub_index, &mut sub_size, hash, path) {
                    return false;
                }
                match path.next() {
                    Some(sib) => *hash = node_hash(hash, sib),
                    None => return false,
                }
            } else {
                let mut sub_index = *index - k;
                let mut sub_size = *size - k;
                if !walk(&mut sub_index, &mut sub_size, hash, path) {
                    return false;
                }
                match path.next() {
                    Some(sib) => *hash = node_hash(sib, hash),
                    None => return false,
                }
            }
            true
        }
        if !walk(&mut index, &mut size, &mut hash, &mut path) {
            return false;
        }
        path.next().is_none() && &hash == root
    }

    /// Merkle tree hash over leaves `[lo, hi)` (RFC 6962 §2.1): the
    /// stored node when the range is an aligned power of two, else
    /// split as the RFC does. Every left half is such a range, so only
    /// the right edge recurses.
    fn mth(&self, lo: u64, hi: u64) -> Hash {
        let n = hi - lo;
        if n == 0 {
            // MTH of the empty tree is the hash of the empty string.
            return Sha256::digest_fixed(b"");
        }
        if n.is_power_of_two() && lo.is_multiple_of(n) {
            return self.levels[n.trailing_zeros() as usize][(lo / n) as usize];
        }
        let k = largest_power_of_two_below(n);
        node_hash(&self.mth(lo, lo + k), &self.mth(lo + k, hi))
    }

    /// Recursive audit-path construction over leaves `[lo, hi)`, for
    /// leaf `m`.
    fn audit_path(&self, lo: u64, hi: u64, m: u64, out: &mut Vec<Hash>) {
        if hi - lo <= 1 {
            return;
        }
        let k = largest_power_of_two_below(hi - lo);
        if m < lo + k {
            self.audit_path(lo, lo + k, m, out);
            out.push(self.mth(lo + k, hi));
        } else {
            self.audit_path(lo + k, hi, m, out);
            out.push(self.mth(lo, lo + k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::{self, CertificateAuthority, IssuancePolicy, LeafProfile};
    use crate::cert::Validity;
    use crate::name::DistinguishedName;
    use govscan_asn1::Time;
    use govscan_crypto::{KeyAlgorithm, KeyPair, SignatureAlgorithm};
    use std::sync::mpsc;
    use std::time::Duration;

    /// The reference tree: RFC 6962 §2.1 recursion over leaf slices,
    /// rehashing every leaf a call covers. The stored levels must
    /// reproduce its roots and audit paths byte for byte.
    mod reference {
        use super::super::{node_hash, Hash};
        use govscan_crypto::{Digest, Sha256};

        fn split(n: usize) -> usize {
            let mut k = 1;
            while k * 2 < n {
                k *= 2;
            }
            k
        }

        /// Merkle tree hash over `leaves` (RFC 6962 §2.1).
        pub(super) fn subtree_hash(leaves: &[Hash]) -> Hash {
            match leaves.len() {
                0 => Sha256::digest_fixed(b""),
                1 => leaves[0],
                n => {
                    let k = split(n);
                    node_hash(&subtree_hash(&leaves[..k]), &subtree_hash(&leaves[k..]))
                }
            }
        }

        /// Audit path over `leaves` for leaf `m`.
        pub(super) fn audit_path(leaves: &[Hash], m: usize, out: &mut Vec<Hash>) {
            let n = leaves.len();
            if n <= 1 {
                return;
            }
            let k = split(n);
            if m < k {
                audit_path(&leaves[..k], m, out);
                out.push(subtree_hash(&leaves[k..]));
            } else {
                audit_path(&leaves[k..], m - k, out);
                out.push(subtree_hash(&leaves[..k]));
            }
        }
    }

    fn certs(n: usize) -> Vec<Certificate> {
        let mut ca = CertificateAuthority::new_root(
            DistinguishedName::ca("CT Test Root", "Org", "US"),
            KeyPair::from_seed(KeyAlgorithm::Rsa(2048), b"ct-root"),
            IssuancePolicy::default(),
            Validity {
                not_before: Time::from_ymd(2010, 1, 1),
                not_after: Time::from_ymd(2040, 1, 1),
            },
        );
        (0..n)
            .map(|i| {
                let key = KeyPair::from_seed(KeyAlgorithm::Rsa(2048), format!("k{i}").as_bytes());
                ca.issue(&LeafProfile::dv(
                    format!("host{i}.gov.xx"),
                    key.public(),
                    Time::from_ymd(2020, 1, 1),
                ))
            })
            .collect()
    }

    #[test]
    fn empty_tree_root_is_hash_of_empty_string() {
        let log = CtLog::new();
        assert_eq!(
            govscan_crypto::hex::encode(&log.root()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert!(log.is_empty());
    }

    #[test]
    fn inclusion_proofs_verify_for_every_leaf_and_size() {
        // Cover balanced and unbalanced tree shapes.
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 13, 16, 21] {
            let certs = certs(n);
            let mut log = CtLog::new();
            for c in &certs {
                log.append(c);
            }
            let root = log.root();
            for (i, cert) in certs.iter().enumerate() {
                let proof = log.prove_inclusion(i as u64).expect("leaf exists");
                assert!(
                    CtLog::verify_inclusion(cert, &proof, &root),
                    "n={n}, leaf={i}"
                );
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_certificate() {
        let certs = certs(8);
        let mut log = CtLog::new();
        for c in &certs {
            log.append(c);
        }
        let root = log.root();
        let proof = log.prove_inclusion(3).unwrap();
        assert!(!CtLog::verify_inclusion(&certs[4], &proof, &root));
    }

    #[test]
    fn proof_fails_against_wrong_root() {
        let certs = certs(5);
        let mut log = CtLog::new();
        for c in &certs {
            log.append(c);
        }
        let proof = log.prove_inclusion(2).unwrap();
        let mut bad_root = log.root();
        bad_root[0] ^= 1;
        assert!(!CtLog::verify_inclusion(&certs[2], &proof, &bad_root));
    }

    #[test]
    fn proof_fails_for_hostile_tree_size() {
        // Past 2^63 a split found by doubling overflows: a panic in
        // debug, an endless loop in release. Verify on a thread the test
        // can stop waiting for.
        let certs = certs(4);
        let mut log = CtLog::new();
        for c in &certs {
            log.append(c);
        }
        let root = log.root();
        let honest = log.prove_inclusion(1).unwrap();
        let cert = certs[1].clone();
        let (tx, rx) = mpsc::channel();
        let verifier = std::thread::spawn(move || {
            let mut verdicts = Vec::new();
            for tree_size in [u64::MAX, (1 << 63) + 1] {
                for leaf_index in [1, tree_size - 1] {
                    let proof = InclusionProof {
                        leaf_index,
                        tree_size,
                        ..honest.clone()
                    };
                    verdicts.push(CtLog::verify_inclusion(&cert, &proof, &root));
                }
            }
            let _ = tx.send(verdicts);
        });
        let verdicts = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("verify_inclusion returns on a hostile tree_size");
        verifier.join().expect("verifier thread finished");
        assert_eq!(verdicts, [false; 4]);
    }

    #[test]
    fn stored_levels_match_the_reference_while_the_log_grows() {
        // Sizes 0..=130 cross the 64 and 128 boundaries, where the
        // levels gain a new top.
        let certs = certs(130);
        let leaves: Vec<Hash> = certs.iter().map(|c| leaf_hash(c.to_der())).collect();
        let mut log = CtLog::new();
        for n in 0..=certs.len() {
            if n > 0 {
                log.append(&certs[n - 1]);
            }
            assert_eq!(log.size(), n as u64);
            assert_eq!(log.root(), reference::subtree_hash(&leaves[..n]), "n={n}");
            for m in 0..n {
                let mut want = Vec::new();
                reference::audit_path(&leaves[..n], m, &mut want);
                let proof = log.prove_inclusion(m as u64).expect("leaf exists");
                assert_eq!(proof.path, want, "n={n}, leaf={m}");
            }
            assert_eq!(log.prove_inclusion(n as u64), None);
        }
    }

    #[test]
    fn proof_from_older_tree_fails_on_new_root() {
        let certs = certs(6);
        let mut log = CtLog::new();
        for c in certs.iter().take(4) {
            log.append(c);
        }
        let proof = log.prove_inclusion(1).unwrap();
        let old_root = log.root();
        log.append(&certs[4]);
        let new_root = log.root();
        assert!(CtLog::verify_inclusion(&certs[1], &proof, &old_root));
        assert!(!CtLog::verify_inclusion(&certs[1], &proof, &new_root));
    }

    #[test]
    fn append_only_growth_changes_root() {
        let certs = certs(3);
        let mut log = CtLog::new();
        let mut roots = vec![log.root()];
        for c in &certs {
            log.append(c);
            roots.push(log.root());
        }
        roots.dedup();
        assert_eq!(roots.len(), 4, "every append changes the head");
        assert_eq!(log.size(), 3);
    }

    #[test]
    fn fingerprint_lookup() {
        let certs = certs(4);
        let mut log = CtLog::new();
        for c in &certs {
            log.append(c);
        }
        assert!(log.contains_fingerprint(certs[2].fingerprint()));
        assert_eq!(log.index_of(certs[2].fingerprint()), Some(2));
        // Something never logged (self-signed appliance cert).
        let key = KeyPair::from_seed(KeyAlgorithm::Rsa(1024), b"unlogged");
        let ss = ca::self_signed(
            "localhost",
            vec![],
            &key,
            SignatureAlgorithm::Sha1WithRsa,
            Validity {
                not_before: Time::from_ymd(2015, 1, 1),
                not_after: Time::from_ymd(2035, 1, 1),
            },
        );
        assert!(!log.contains_fingerprint(ss.fingerprint()));
    }
}
