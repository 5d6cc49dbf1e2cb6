//! §5.3.3: host public-key and certificate reuse across hostnames and
//! governments.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use govscan_crypto::Fingerprint;
use govscan_scanner::ErrorCategory;

use crate::aggregate::AggregateIndex;
use crate::table::TextTable;

/// A group of hosts presenting the same public key.
#[derive(Debug, Clone)]
pub struct ReuseCluster {
    /// Public-key fingerprint.
    pub key_fingerprint: Fingerprint,
    /// Distinct certificate fingerprints seen with this key.
    pub cert_fingerprints: HashSet<Fingerprint>,
    /// Hostnames presenting the key.
    pub hosts: Vec<String>,
    /// Countries spanned.
    pub countries: HashSet<&'static str>,
    /// Hosts with a valid chain.
    pub valid_hosts: usize,
    /// Hosts failing with hostname mismatch.
    pub mismatch_hosts: usize,
    /// Hosts with self-signed leaves.
    pub self_signed_hosts: usize,
    /// Distinct issuers seen with this key, lexicographically sorted —
    /// more than one means the key was re-certified across CAs.
    pub issuers: Vec<String>,
}

/// A group of hosts presenting the same *certificate* (the unit the
/// paper's "154 certificates reused across 1,390 hostnames" counts).
#[derive(Debug, Clone)]
pub struct CertCluster {
    /// Certificate fingerprint.
    pub fingerprint: Fingerprint,
    /// Hostnames presenting it.
    pub hosts: Vec<String>,
    /// Countries spanned.
    pub countries: HashSet<&'static str>,
}

/// The §5.3.3 report.
#[derive(Debug, Clone, Default)]
pub struct ReuseReport {
    /// Same-key clusters with at least two hosts, largest first.
    pub clusters: Vec<ReuseCluster>,
    /// Same-certificate clusters with at least two hosts, largest first.
    pub cert_clusters: Vec<CertCluster>,
}

/// Build from a pre-built aggregation index: only the pre-grouped
/// fingerprint clusters with two or more hosts are materialized, so the
/// (dominant) singleton population costs nothing here.
pub fn build_from_index(index: &AggregateIndex) -> ReuseReport {
    let mut clusters: Vec<ReuseCluster> = index
        .by_key
        .iter()
        .filter(|(_, members)| members.len() >= 2)
        .map(|(&key_fingerprint, members)| {
            let mut cluster = ReuseCluster {
                key_fingerprint,
                cert_fingerprints: HashSet::new(),
                hosts: Vec::with_capacity(members.len()),
                countries: HashSet::new(),
                valid_hosts: 0,
                mismatch_hosts: 0,
                self_signed_hosts: 0,
                issuers: Vec::new(),
            };
            let mut issuer_ids: BTreeSet<u32> = BTreeSet::new();
            for &pos in members.as_slice() {
                let h = index.host(pos);
                let cert = index.cert_bits(h).expect("cert population has cert bits");
                cluster.cert_fingerprints.insert(cert.fingerprint);
                cluster.hosts.push(h.hostname.clone());
                if let Some(cc) = h.country {
                    cluster.countries.insert(cc);
                }
                if h.valid {
                    cluster.valid_hosts += 1;
                }
                match h.error {
                    Some(ErrorCategory::HostnameMismatch) => cluster.mismatch_hosts += 1,
                    Some(ErrorCategory::SelfSigned) => cluster.self_signed_hosts += 1,
                    _ => {}
                }
                issuer_ids.insert(cert.issuer);
            }
            cluster.issuers = issuer_ids
                .into_iter()
                .map(|id| index.issuer(id).to_string())
                .collect();
            cluster.issuers.sort();
            cluster
        })
        .collect();
    clusters.sort_by(|a, b| {
        b.hosts
            .len()
            .cmp(&a.hosts.len())
            .then(b.countries.len().cmp(&a.countries.len()))
            .then(a.key_fingerprint.cmp(&b.key_fingerprint))
    });
    let mut cert_clusters: Vec<CertCluster> = index
        .by_cert
        .iter()
        .filter(|(_, members)| members.len() >= 2)
        .map(|(&fingerprint, members)| {
            let mut cluster = CertCluster {
                fingerprint,
                hosts: Vec::with_capacity(members.len()),
                countries: HashSet::new(),
            };
            for &pos in members.as_slice() {
                let h = index.host(pos);
                cluster.hosts.push(h.hostname.clone());
                if let Some(cc) = h.country {
                    cluster.countries.insert(cc);
                }
            }
            cluster
        })
        .collect();
    cert_clusters.sort_by(|a, b| {
        b.hosts
            .len()
            .cmp(&a.hosts.len())
            .then(a.fingerprint.cmp(&b.fingerprint))
    });
    ReuseReport {
        clusters,
        cert_clusters,
    }
}

impl ReuseReport {
    /// Clusters spanning more than one country (the paper's 154 certs /
    /// 1,390 hosts).
    pub fn cross_country(&self) -> impl Iterator<Item = &ReuseCluster> {
        self.clusters.iter().filter(|c| c.countries.len() >= 2)
    }

    /// Total hosts involved in cross-country reuse.
    pub fn cross_country_hosts(&self) -> usize {
        self.cross_country().map(|c| c.hosts.len()).sum()
    }

    /// Distribution of cross-country clusters by countries spanned
    /// (paper: 108 by 2, 19 by 3, 11 by 4, 1 by 24).
    pub fn span_histogram(&self) -> BTreeMap<usize, usize> {
        let mut h = BTreeMap::new();
        for c in self.cross_country() {
            *h.entry(c.countries.len()).or_insert(0) += 1;
        }
        h
    }

    /// Same-certificate clusters spanning ≥2 countries (the "154 certs
    /// reused across 1,390 hostnames" unit).
    pub fn cross_country_certs(&self) -> impl Iterator<Item = &CertCluster> {
        self.cert_clusters.iter().filter(|c| c.countries.len() >= 2)
    }

    /// Hosts involved in cross-country certificate reuse.
    pub fn cross_country_cert_hosts(&self) -> usize {
        self.cross_country_certs().map(|c| c.hosts.len()).sum()
    }

    /// Distribution of cross-country *certificate* clusters by countries
    /// spanned.
    pub fn cert_span_histogram(&self) -> BTreeMap<usize, usize> {
        let mut h = BTreeMap::new();
        for c in self.cross_country_certs() {
            *h.entry(c.countries.len()).or_insert(0) += 1;
        }
        h
    }

    /// Are there any *valid* cross-country reuses? (The paper found none.)
    pub fn valid_cross_country_reuse(&self) -> bool {
        self.cross_country().any(|c| c.valid_hosts > 0)
    }

    /// Largest *pathological* cluster within one country (the Bangladesh
    /// case: one certificate across 102 hostnames). All-valid national
    /// clusters are skipped — those are legitimate shared hosting (one
    /// wildcard or SAN-packed chain serving many sites of one
    /// government), not the §5.3.3 misuse pattern.
    pub fn largest_national(&self) -> Option<&ReuseCluster> {
        self.clusters
            .iter()
            .find(|c| c.countries.len() == 1 && c.valid_hosts < c.hosts.len())
    }

    /// Render the headline numbers plus the top clusters.
    pub fn render(&self) -> String {
        let mut out = format!(
            "reused keys: {} clusters, cross-country: {} clusters / {} hosts, span histogram {:?}\n\
             reused certificates: {} clusters, cross-country: {} certs / {} hosts, span histogram {:?}\n",
            self.clusters.len(),
            self.cross_country().count(),
            self.cross_country_hosts(),
            self.span_histogram(),
            self.cert_clusters.len(),
            self.cross_country_certs().count(),
            self.cross_country_cert_hosts(),
            self.cert_span_histogram()
        );
        let mut t = TextTable::new(vec![
            "Issuer/CN",
            "Issuers",
            "Hosts",
            "Countries",
            "Valid",
            "Mismatch",
            "SelfSigned",
        ]);
        for c in self.clusters.iter().take(15) {
            t.row(vec![
                c.issuers.first().cloned().unwrap_or_default(),
                c.issuers.len().to_string(),
                c.hosts.len().to_string(),
                c.countries.len().to_string(),
                c.valid_hosts.to_string(),
                c.mismatch_hosts.to_string(),
                c.self_signed_hosts.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::index;

    fn report() -> ReuseReport {
        build_from_index(index())
    }

    #[test]
    fn reuse_clusters_exist() {
        let r = report();
        assert!(!r.clusters.is_empty(), "clusters found");
        assert!(r.clusters[0].hosts.len() >= 3, "largest cluster is large");
    }

    #[test]
    fn cross_country_localhost_clusters_detected() {
        let r = report();
        assert!(r.cross_country().count() >= 1, "cross-country reuse exists");
        // The shared appliance key shows up as self-signed localhost.
        let localhost = r
            .cross_country()
            .find(|c| c.issuers.iter().any(|i| i == "localhost"))
            .expect("localhost cluster");
        assert!(localhost.self_signed_hosts > 0);
        assert!(localhost.countries.len() >= 2);
    }

    #[test]
    fn issuer_sets_are_distinct_and_sorted() {
        let r = report();
        for c in &r.clusters {
            assert!(!c.issuers.is_empty(), "every cluster saw an issuer");
            for w in c.issuers.windows(2) {
                assert!(w[0] < w[1], "sorted, deduplicated: {:?}", c.issuers);
            }
            // A key can never span more issuers than certificates.
            assert!(c.issuers.len() <= c.cert_fingerprints.len().max(1));
        }
    }

    #[test]
    fn no_valid_cross_country_reuse() {
        // §5.3.3: "We do not find any instances of valid public key reuse
        // across country governments."
        let r = report();
        assert!(!r.valid_cross_country_reuse());
    }

    #[test]
    fn national_wildcard_clusters_are_mismatches() {
        let r = report();
        let national = r.largest_national().expect("national cluster");
        // The Bangladesh-style cluster: wildcard misuse → mismatches.
        assert!(
            national.mismatch_hosts > 0 || national.self_signed_hosts > 0,
            "{national:?}"
        );
    }

    #[test]
    fn renders() {
        let s = report().render();
        assert!(s.contains("reused keys"));
        assert!(s.contains("span histogram"));
    }
}
