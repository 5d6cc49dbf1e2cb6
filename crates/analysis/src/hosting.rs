//! Figure 5 (and the hosting panels of Figure 6 / Figure A.1):
//! certificate validity by hosting type.

use std::collections::BTreeMap;

use crate::aggregate::AggregateIndex;
use crate::table::{pct, TextTable};

/// Counts for one hosting class.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostingRow {
    /// Hosts attributed to this class.
    pub total: u64,
    /// … attempting https.
    pub https: u64,
    /// … with valid chains.
    pub valid: u64,
}

impl HostingRow {
    /// Valid share among all hosts of the class (Figure 5's bars).
    pub fn valid_share(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.valid as f64 / self.total as f64
        }
    }
}

/// The hosting figure: coarse classes plus per-provider rows.
#[derive(Debug, Clone, Default)]
pub struct HostingFigure {
    /// cloud / cdn / private.
    pub coarse: BTreeMap<&'static str, HostingRow>,
    /// Per provider (aws, azure, cloudflare, …).
    pub providers: BTreeMap<&'static str, HostingRow>,
}

/// Build over a pre-built aggregation index: the one builder, whatever
/// the population (world, USA, ROK, a Figure 6 comparison group).
pub fn build_all_from_index(index: &AggregateIndex) -> HostingFigure {
    // Both groupings have a handful of static-string keys, so accumulate
    // through linear-scan tables (two ordered-map lookups per host are
    // measurable at the 135k-host scale) and sort once at the end.
    let mut coarse: Vec<(&'static str, HostingRow)> = Vec::new();
    let mut providers: Vec<(&'static str, HostingRow)> = Vec::new();
    let bump = |table: &mut Vec<(&'static str, HostingRow)>, key, attempts, valid| {
        let slot = match table.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                table.push((key, HostingRow::default()));
                table.len() - 1
            }
        };
        let row = &mut table[slot].1;
        row.total += 1;
        if attempts {
            row.https += 1;
        }
        if valid {
            row.valid += 1;
        }
    };
    for h in &index.hosts {
        if !h.available {
            continue;
        }
        bump(&mut coarse, h.hosting.coarse(), h.attempts, h.valid);
        if let Some(p) = h.hosting.provider() {
            bump(&mut providers, p, h.attempts, h.valid);
        }
    }
    HostingFigure {
        coarse: coarse.into_iter().collect(),
        providers: providers.into_iter().collect(),
    }
}

impl HostingFigure {
    /// Valid share of a coarse class.
    pub fn valid_share(&self, class: &str) -> f64 {
        self.coarse
            .get(class)
            .map(|r| r.valid_share())
            .unwrap_or(0.0)
    }

    /// Share of hosts on cloud or CDN.
    pub fn cloud_cdn_share(&self) -> f64 {
        let total: u64 = self.coarse.values().map(|r| r.total).sum();
        let cloud = self.coarse.get("cloud").map(|r| r.total).unwrap_or(0)
            + self.coarse.get("cdn").map(|r| r.total).unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            cloud as f64 / total as f64
        }
    }

    /// Render both tables.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Hosting", "Hosts", "HTTPS", "Valid", "Valid %"]);
        for (class, r) in &self.coarse {
            t.row(vec![
                class.to_string(),
                r.total.to_string(),
                r.https.to_string(),
                r.valid.to_string(),
                pct(r.valid_share()),
            ]);
        }
        let mut out = t.render();
        out.push('\n');
        let mut t = TextTable::new(vec!["Provider", "Hosts", "Valid %"]);
        for (p, r) in &self.providers {
            t.row(vec![
                p.to_string(),
                r.total.to_string(),
                pct(r.valid_share()),
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

    fn fig() -> HostingFigure {
        build_all_from_index(index())
    }

    #[test]
    fn government_sites_are_mostly_private() {
        // §5.4: government websites primarily tend to be privately hosted.
        let f = fig();
        let share = f.cloud_cdn_share();
        assert!(share < 0.35, "cloud share {share}");
        let private = f.coarse.get("private").map(|r| r.total).unwrap_or(0);
        let cloud = f.coarse.get("cloud").map(|r| r.total).unwrap_or(0);
        assert!(private > cloud * 2);
    }

    #[test]
    fn cloud_hosts_have_higher_validity() {
        // §5.4: cloud/CDN ≈60% valid vs ≈30% on private servers.
        let f = fig();
        let cloud = f.valid_share("cloud");
        let private = f.valid_share("private");
        assert!(
            cloud > private,
            "cloud {cloud} should beat private {private}"
        );
    }

    #[test]
    fn aws_is_the_biggest_provider() {
        // §6.1.2: AWS ≈3.5× the next provider.
        let f = fig();
        let aws = f.providers.get("aws").map(|r| r.total).unwrap_or(0);
        for (p, r) in &f.providers {
            if *p != "aws" {
                assert!(aws >= r.total, "{p} {} vs aws {aws}", r.total);
            }
        }
    }

    #[test]
    fn renders() {
        let s = fig().render();
        assert!(s.contains("private"));
        assert!(s.contains("Provider"));
    }
}
