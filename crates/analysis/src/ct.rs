//! Certificate-Transparency coverage of government certificates — the
//! §2.2 open question the paper calls out ("there is no existing
//! measurement of the number of government domain certificates missing
//! from CT logs"), answered over the simulated ecosystem.

use govscan_pki::ctlog::CtLog;

use crate::aggregate::AggregateIndex;
use crate::stats::Share;
use crate::table::{pct, TextTable};

/// Per-issuer CT coverage.
#[derive(Debug, Clone, Copy, Default)]
pub struct IssuerCoverage {
    /// Certificates observed on the wire.
    pub seen: u64,
    /// … of which present in the CT log.
    pub logged: u64,
}

/// The CT coverage report.
#[derive(Debug, Clone, Default)]
pub struct CtReport {
    /// CA-issued government certificates observed.
    pub ca_issued: u64,
    /// … present in the CT log.
    pub ca_logged: u64,
    /// Self-signed certificates observed (never logged, by definition).
    pub self_signed: u64,
    /// Per-issuer coverage.
    pub by_issuer: std::collections::BTreeMap<String, IssuerCoverage>,
    /// Inclusion proofs spot-checked against the tree head.
    pub proofs_checked: u64,
    /// … that verified.
    pub proofs_ok: u64,
}

/// Build from a pre-built aggregation index.
pub fn build_from_index(
    index: &AggregateIndex,
    log: &CtLog,
    net: &govscan_net::SimNet,
) -> CtReport {
    let mut report = CtReport::default();
    let root = log.root();
    let client = govscan_net::TlsClientConfig::default();
    for h in index.cert_hosts() {
        let cert = index.cert_bits(h).expect("cert population has cert bits");
        if cert.self_issued {
            report.self_signed += 1;
            continue;
        }
        report.ca_issued += 1;
        let row = report
            .by_issuer
            .entry(index.issuer(cert.issuer).to_string())
            .or_default();
        row.seen += 1;
        if let Some(leaf_index) = log.index_of(cert.fingerprint) {
            report.ca_logged += 1;
            row.logged += 1;
            // Spot-check one inclusion proof in 16: a proof costs
            // O(log² n) node hashes over the log's stored subtrees, but
            // retrieving the chain re-dials the host.
            if leaf_index % 16 == 0 {
                if let Ok(session) = net.tls_connect(&h.hostname, &client) {
                    if let Some(leaf) = session.peer_chain.first() {
                        report.proofs_checked += 1;
                        let proof = log.prove_inclusion(leaf_index).expect("indexed leaf");
                        if CtLog::verify_inclusion(leaf, &proof, &root) {
                            report.proofs_ok += 1;
                        }
                    }
                }
            }
        }
    }
    report
}

impl CtReport {
    /// Share of CA-issued government certificates missing from CT (the
    /// paper's open question; ~10–12% is the com/net/org baseline).
    pub fn missing_share(&self) -> Share {
        Share::new(self.ca_issued - self.ca_logged, self.ca_issued)
    }

    /// Render.
    pub fn render(&self) -> String {
        let mut out = format!(
            "CA-issued gov certs: {} ({} logged, {} missing = {:.1}%); self-signed (unloggable): {}\n\
             inclusion proofs spot-checked: {} ({} verified)\n",
            self.ca_issued,
            self.ca_logged,
            self.ca_issued - self.ca_logged,
            self.missing_share().percent(),
            self.self_signed,
            self.proofs_checked,
            self.proofs_ok,
        );
        let mut t = TextTable::new(vec!["Issuer", "Seen", "Logged", "Coverage %"]);
        let mut rows: Vec<(&String, &IssuerCoverage)> = self.by_issuer.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.seen));
        for (issuer, cov) in rows.into_iter().take(15) {
            t.row(vec![
                issuer.clone(),
                cov.seen.to_string(),
                cov.logged.to_string(),
                pct(if cov.seen == 0 {
                    0.0
                } else {
                    cov.logged as f64 / cov.seen as f64
                }),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{index, study};

    fn report() -> CtReport {
        let world = &study().0;
        build_from_index(index(), world.cadb.ct_log(), &world.net)
    }

    #[test]
    fn most_ca_certs_are_logged() {
        let r = report();
        assert!(r.ca_issued > 300);
        let missing = r.missing_share().fraction();
        assert!((0.02..0.20).contains(&missing), "missing share {missing}");
    }

    #[test]
    fn lets_encrypt_coverage_is_total() {
        // LE publishes everything to CT automatically (§2.2 / [80]).
        let r = report();
        let le = r
            .by_issuer
            .get("Let's Encrypt Authority X3")
            .expect("LE certs observed");
        assert_eq!(le.logged, le.seen, "LE is fully logged");
    }

    #[test]
    fn self_signed_certs_never_appear_in_ct() {
        let r = report();
        assert!(r.self_signed > 0);
    }

    #[test]
    fn inclusion_proofs_verify_against_the_head() {
        let r = report();
        assert!(r.proofs_checked > 0, "spot checks ran");
        assert_eq!(r.proofs_ok, r.proofs_checked, "all proofs verify");
    }

    #[test]
    fn renders() {
        assert!(report().render().contains("inclusion proofs"));
    }
}
