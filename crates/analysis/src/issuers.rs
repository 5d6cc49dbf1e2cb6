//! Figures 2 / 8 / 11: top certificate issuers with valid and invalid
//! counts (worldwide, USA, South Korea).

use crate::aggregate::AggregateIndex;
use crate::table::{pct, TextTable};

/// One issuer's bar.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IssuerRow {
    /// Issuer common name.
    pub issuer: String,
    /// Hosts presenting a valid chain from this issuer.
    pub valid: u64,
    /// Hosts presenting an invalid chain from this issuer.
    pub invalid: u64,
}

impl IssuerRow {
    /// Total hosts using this issuer.
    pub fn total(&self) -> u64 {
        self.valid + self.invalid
    }

    /// Invalid share.
    pub fn invalid_share(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.invalid as f64 / self.total() as f64
        }
    }
}

/// The issuer figure: top-N rows sorted by total usage.
#[derive(Debug, Clone, Default)]
pub struct IssuerFigure {
    /// Rows, descending by total.
    pub rows: Vec<IssuerRow>,
    /// Hosts whose certificates carried no issuer information.
    pub without_issuer: u64,
}

/// Build from a pre-built aggregation index: one row per pre-grouped
/// issuer, no per-host hashing.
pub fn build_from_index(index: &AggregateIndex, n: usize) -> IssuerFigure {
    let mut rows: Vec<IssuerRow> = Vec::new();
    let mut without = 0u64;
    for (id, members) in index.by_issuer.iter().enumerate() {
        // Issuers interned from unavailable hosts leave empty groups.
        if members.is_empty() {
            continue;
        }
        let issuer = &index.issuers[id];
        if issuer.is_empty() {
            // Chains whose leaves carried no issuer information.
            without += members.len() as u64;
            continue;
        }
        let mut row = IssuerRow {
            issuer: issuer.clone(),
            ..Default::default()
        };
        for &pos in members {
            if index.host(pos).valid {
                row.valid += 1;
            } else {
                row.invalid += 1;
            }
        }
        rows.push(row);
    }
    rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.issuer.cmp(&b.issuer)));
    rows.truncate(n);
    IssuerFigure {
        rows,
        without_issuer: without,
    }
}

impl IssuerFigure {
    /// Row for an issuer, if present.
    pub fn get(&self, issuer: &str) -> Option<&IssuerRow> {
        self.rows.iter().find(|r| r.issuer == issuer)
    }

    /// The most-used issuer.
    pub fn leader(&self) -> Option<&IssuerRow> {
        self.rows.first()
    }

    /// Render as a table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Issuer", "Valid", "Invalid", "Invalid %"]);
        for r in &self.rows {
            t.row(vec![
                r.issuer.clone(),
                r.valid.to_string(),
                r.invalid.to_string(),
                pct(r.invalid_share()),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::index;

    fn fig() -> IssuerFigure {
        build_from_index(index(), 40)
    }

    #[test]
    fn lets_encrypt_leads_worldwide() {
        // §5.2: Let's Encrypt is the most popular CA (~20%).
        let f = fig();
        let leader = f.leader().expect("has issuers");
        assert_eq!(leader.issuer, "Let's Encrypt Authority X3");
        let total: u64 = f.rows.iter().map(|r| r.total()).sum();
        let share = leader.total() as f64 / total as f64;
        assert!((0.10..0.35).contains(&share), "LE share {share}");
    }

    #[test]
    fn lets_encrypt_is_mostly_valid() {
        // §5.2: ≈80% of LE government certificates are valid.
        let f = fig();
        let le = f.get("Let's Encrypt Authority X3").unwrap();
        let invalid = le.invalid_share();
        assert!(
            (0.05..0.45).contains(&invalid),
            "LE invalid share {invalid}"
        );
    }

    #[test]
    fn top_40_requested() {
        let f = fig();
        assert!(f.rows.len() <= 40);
        assert!(f.rows.len() >= 20, "roster diversity: {}", f.rows.len());
        // Sorted descending.
        for w in f.rows.windows(2) {
            assert!(w[0].total() >= w[1].total());
        }
    }

    #[test]
    fn self_signed_pseudo_issuers_present() {
        // Self-signed certs report their own CN (often "localhost").
        let f = fig();
        assert!(
            f.rows.iter().any(|r| r.issuer == "localhost"),
            "localhost cluster appears as an issuer"
        );
    }

    #[test]
    fn renders() {
        let s = fig().render();
        assert!(s.contains("Issuer"));
        assert!(s.contains("Let's Encrypt"));
    }
}
