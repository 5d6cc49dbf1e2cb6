//! Figures A.2 / A.3 / A.6 and §5.3's EV analysis: Extended-Validation
//! certificate usage and per-issuer validity.

use std::collections::BTreeMap;

use crate::aggregate::AggregateIndex;
use crate::stats::Share;
use crate::table::{pct, TextTable};

/// One EV issuer's row.
#[derive(Debug, Clone, Default)]
pub struct EvIssuerRow {
    /// Valid EV chains.
    pub valid: u64,
    /// Invalid EV chains.
    pub invalid: u64,
}

/// The EV report.
#[derive(Debug, Clone, Default)]
pub struct EvReport {
    /// Hosts with certificate metadata examined.
    pub hosts_with_certs: u64,
    /// Hosts asserting a recognised EV policy OID.
    pub ev_hosts: u64,
    /// Per-issuer EV counts.
    pub by_issuer: BTreeMap<String, EvIssuerRow>,
}

/// Build from a pre-built aggregation index.
pub fn build_from_index(index: &AggregateIndex) -> EvReport {
    let mut report = EvReport {
        hosts_with_certs: index.cert_hosts.len() as u64,
        ..EvReport::default()
    };
    for h in index.cert_hosts() {
        let cert = index.cert_bits(h).expect("cert population has cert bits");
        if !cert.is_ev {
            continue;
        }
        report.ev_hosts += 1;
        let row = report
            .by_issuer
            .entry(index.issuer(cert.issuer).to_string())
            .or_default();
        if h.valid {
            row.valid += 1;
        } else {
            row.invalid += 1;
        }
    }
    report
}

impl EvReport {
    /// EV adoption share (paper: 4.24% of hostnames with certificates).
    pub fn adoption(&self) -> Share {
        Share::new(self.ev_hosts, self.hosts_with_certs)
    }

    /// Invalid share across all EV certificates (paper: 15–20% even for
    /// paid EV CAs — the argument that paid issuance doesn't help).
    pub fn invalid_share(&self) -> f64 {
        let valid: u64 = self.by_issuer.values().map(|r| r.valid).sum();
        let invalid: u64 = self.by_issuer.values().map(|r| r.invalid).sum();
        if valid + invalid == 0 {
            0.0
        } else {
            invalid as f64 / (valid + invalid) as f64
        }
    }

    /// Render.
    pub fn render(&self) -> String {
        let mut out = format!(
            "EV adoption: {} of {} ({:.2}%), EV invalid share {:.1}%\n",
            self.ev_hosts,
            self.hosts_with_certs,
            self.adoption().percent(),
            self.invalid_share() * 100.0
        );
        let mut t = TextTable::new(vec!["EV issuer", "Valid", "Invalid", "Invalid %"]);
        let mut rows: Vec<(&String, &EvIssuerRow)> = self.by_issuer.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.valid + r.1.invalid));
        for (issuer, row) in rows {
            let total = row.valid + row.invalid;
            t.row(vec![
                issuer.clone(),
                row.valid.to_string(),
                row.invalid.to_string(),
                pct(if total == 0 {
                    0.0
                } else {
                    row.invalid as f64 / total as f64
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
    use crate::testsupport::index;

    fn report() -> EvReport {
        build_from_index(index())
    }

    #[test]
    fn ev_is_a_small_minority() {
        let r = report();
        let share = r.adoption().fraction();
        assert!((0.005..0.12).contains(&share), "EV adoption {share}");
    }

    #[test]
    fn ev_issuers_are_the_paid_cas() {
        let r = report();
        assert!(!r.by_issuer.is_empty());
        // DigiCert-family CAs are the leading EV issuers in the roster.
        assert!(
            r.by_issuer.keys().any(|k| k.contains("DigiCert")
                || k.contains("GeoTrust")
                || k.contains("Thawte")
                || k.contains("Entrust")
                || k.contains("GlobalSign")
                || k.contains("Go Daddy")
                || k.contains("COMODO")
                || k.contains("QuoVadis")
                || k.contains("Starfield")),
            "{:?}",
            r.by_issuer.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn paid_ev_is_not_immune_to_invalidity() {
        // Figure A.6's point: EV CAs still show 15–20% invalidity.
        let r = report();
        let inv = r.invalid_share();
        assert!(inv > 0.02, "some EV certs are invalid: {inv}");
        assert!(inv < 0.6, "but most are valid: {inv}");
    }

    #[test]
    fn renders() {
        assert!(report().render().contains("EV adoption"));
    }
}
