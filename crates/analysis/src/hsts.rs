//! HSTS adoption — §8.2's recommendation ("enlist government websites
//! into the HSTS preload list") and the post-disclosure US mandate
//! (§7.2.2: HSTS preloading required for `.gov` by September 2020).

use std::collections::{BTreeMap, HashMap};

use crate::aggregate::AggregateIndex;
use crate::stats::Share;
use crate::table::{pct, TextTable};

/// Per-country HSTS adoption among valid-https hosts.
#[derive(Debug, Clone, Copy, Default)]
pub struct HstsRow {
    /// Valid-https hosts.
    pub valid: u64,
    /// … sending Strict-Transport-Security.
    pub hsts: u64,
    /// … also redirecting http → https (the full §8.2 posture).
    pub enforcing: u64,
}

/// The HSTS report.
#[derive(Debug, Clone, Default)]
pub struct HstsReport {
    /// Worldwide totals.
    pub world: HstsRow,
    /// Per country.
    pub by_country: BTreeMap<&'static str, HstsRow>,
}

fn bump(row: &mut HstsRow, hsts: bool, enforcing: bool) {
    row.valid += 1;
    if hsts {
        row.hsts += 1;
    }
    if enforcing {
        row.enforcing += 1;
    }
}

/// Build from a pre-built aggregation index.
pub fn build_from_index(index: &AggregateIndex) -> HstsReport {
    let mut report = HstsReport::default();
    // Accumulate country rows through a hash map and sort once at the
    // end; a per-host ordered-map lookup is measurable at scale.
    let mut by_country: HashMap<&'static str, HstsRow> = HashMap::new();
    for h in &index.hosts {
        // `valid` implies available + attempting in the summary, but the
        // availability gate keeps the `scan.valid()` population explicit.
        if !h.available || !h.valid {
            continue;
        }
        let enforcing = h.hsts && h.http_redirects_https;
        bump(&mut report.world, h.hsts, enforcing);
        if let Some(cc) = h.country {
            bump(by_country.entry(cc).or_default(), h.hsts, enforcing);
        }
    }
    report.by_country = by_country.into_iter().collect();
    report
}

impl HstsReport {
    /// Worldwide HSTS share among valid hosts.
    pub fn adoption(&self) -> Share {
        Share::new(self.world.hsts, self.world.valid)
    }

    /// HSTS share for one country.
    pub fn country_adoption(&self, cc: &str) -> Option<Share> {
        self.by_country.get(cc).map(|r| Share::new(r.hsts, r.valid))
    }

    /// Render the worldwide line plus the top-10 countries by adoption
    /// (minimum 10 valid hosts).
    pub fn render(&self) -> String {
        let mut out = format!(
            "HSTS among valid-https gov hosts: {} of {} ({:.1}%), fully enforcing: {}\n",
            self.world.hsts,
            self.world.valid,
            self.adoption().percent(),
            self.world.enforcing
        );
        let mut rows: Vec<(&&str, &HstsRow)> = self
            .by_country
            .iter()
            .filter(|(_, r)| r.valid >= 10)
            .collect();
        rows.sort_by(|a, b| {
            let ra = a.1.hsts as f64 / a.1.valid as f64;
            let rb = b.1.hsts as f64 / b.1.valid as f64;
            rb.partial_cmp(&ra).unwrap()
        });
        let mut t = TextTable::new(vec!["Country", "Valid", "HSTS", "HSTS %"]);
        for (cc, r) in rows.into_iter().take(10) {
            t.row(vec![
                cc.to_string(),
                r.valid.to_string(),
                r.hsts.to_string(),
                pct(r.hsts as f64 / r.valid as f64),
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

    fn report() -> HstsReport {
        build_from_index(index())
    }

    #[test]
    fn hsts_is_a_minority_posture() {
        let r = report();
        let share = r.adoption().fraction();
        assert!((0.05..0.70).contains(&share), "adoption {share}");
        assert!(r.world.enforcing <= r.world.hsts);
    }

    #[test]
    fn usa_leads_the_long_tail_on_hsts() {
        let r = report();
        let us = r
            .country_adoption("us")
            .map(|s| s.fraction())
            .unwrap_or(0.0);
        // Aggregate low-tech slice.
        let mut lo_valid = 0;
        let mut lo_hsts = 0;
        for cc in ["td", "ne", "bi", "so", "er", "ss", "mw", "mz"] {
            if let Some(row) = r.by_country.get(cc) {
                lo_valid += row.valid;
                lo_hsts += row.hsts;
            }
        }
        if lo_valid >= 5 {
            let lo = lo_hsts as f64 / lo_valid as f64;
            assert!(us > lo, "us {us} vs low-tech {lo}");
        } else {
            assert!(us > 0.2, "us adoption {us}");
        }
    }

    #[test]
    fn renders() {
        assert!(report().render().contains("HSTS among"));
    }
}
