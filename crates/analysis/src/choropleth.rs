//! Figure 1: the per-country choropleth — availability, https adoption
//! among available sites, and validity among https sites.

use std::collections::BTreeMap;

use crate::aggregate::AggregateIndex;
use crate::stats::Share;
use crate::table::{pct, TextTable};

/// One country's three Figure 1 layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountryRow {
    /// Hosts in the measured list.
    pub total: u64,
    /// Hosts returning a 200 (top map).
    pub available: u64,
    /// Available hosts serving https (middle map).
    pub https: u64,
    /// https hosts with valid certificates (bottom map).
    pub valid: u64,
}

impl CountryRow {
    /// Availability share (top map).
    pub fn availability(&self) -> Share {
        Share::new(self.available, self.total)
    }

    /// https share among available (middle map).
    pub fn https_share(&self) -> Share {
        Share::new(self.https, self.available)
    }

    /// Valid share among https (bottom map).
    pub fn valid_share(&self) -> Share {
        Share::new(self.valid, self.https)
    }
}

/// The Figure 1 data: one row per country.
#[derive(Debug, Clone, Default)]
pub struct Choropleth {
    /// Per-country rows keyed by ISO code.
    pub rows: BTreeMap<&'static str, CountryRow>,
}

/// Build from a pre-built aggregation index, walking the per-country
/// groups (which include unavailable hosts — the top map's denominator).
pub fn build_from_index(index: &AggregateIndex) -> Choropleth {
    let mut rows: BTreeMap<&'static str, CountryRow> = BTreeMap::new();
    for (cc, members) in &index.by_country {
        let row = rows.entry(cc).or_default();
        for &pos in members {
            let h = index.host(pos);
            row.total += 1;
            if h.available {
                row.available += 1;
                if h.attempts {
                    row.https += 1;
                    if h.valid {
                        row.valid += 1;
                    }
                }
            }
        }
    }
    Choropleth { rows }
}

impl Choropleth {
    /// Render as a table sorted by country code.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Country", "Hosts", "Avail %", "HTTPS %", "Valid %"]);
        for (cc, row) in &self.rows {
            t.row(vec![
                cc.to_string(),
                row.total.to_string(),
                pct(row.availability().fraction()),
                pct(row.https_share().fraction()),
                pct(row.valid_share().fraction()),
            ]);
        }
        t.render()
    }

    /// A country's row.
    pub fn get(&self, cc: &str) -> Option<&CountryRow> {
        self.rows.get(cc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::index;

    fn fig() -> Choropleth {
        build_from_index(index())
    }

    #[test]
    fn covers_many_countries() {
        let f = fig();
        assert!(f.rows.len() > 80, "countries: {}", f.rows.len());
    }

    #[test]
    fn china_reachability_and_validity_are_low() {
        // §7.1.2: ~50% reachable; ~11% of https sites valid.
        let f = fig();
        let cn = f.get("cn").expect("china present");
        let avail = cn.availability().fraction();
        assert!((0.4..0.62).contains(&avail), "cn availability {avail}");
        let valid = cn.valid_share().fraction();
        assert!(valid < 0.25, "cn valid share {valid}");
    }

    #[test]
    fn nordics_beat_the_long_tail() {
        let f = fig();
        let no = f
            .get("no")
            .map(|r| r.valid_share().fraction())
            .unwrap_or(1.0);
        // Aggregate a low-tech slice for a stable comparison.
        let mut low_valid = 0;
        let mut low_https = 0;
        for cc in ["td", "ne", "er", "ss", "so"] {
            if let Some(r) = f.get(cc) {
                low_valid += r.valid;
                low_https += r.https;
            }
        }
        let low = Share::new(low_valid, low_https.max(1)).fraction();
        assert!(no > low, "norway {no} vs low-tech {low}");
    }

    #[test]
    fn usa_https_share_is_high() {
        let f = fig();
        let us = f.get("us").expect("usa present");
        assert!(us.https_share().fraction() > 0.6, "{:?}", us);
    }

    #[test]
    fn renders() {
        let s = fig().render();
        assert!(s.contains("Country"));
        assert!(s.contains("cn"));
    }
}
