//! Longitudinal trends over a monitored epoch sequence.
//!
//! The paper measures one scan plus a single 60-day rescan (Figure 13).
//! The `govscan-monitor` subsystem extends that to a year of epochs;
//! this module turns the resulting snapshot sequence into the
//! trajectories an analyst actually plots: validity share over time,
//! the migration of the error mix (does "Expired" shrink while
//! "Self-signed" persists?), HSTS ramp-up, and per-country validity
//! paths.
//!
//! Each epoch costs exactly one dataset walk ([`epoch_point`]); the
//! series itself is just accumulation, so trend-building over a chain
//! of lazily-resolved snapshots streams one epoch at a time.

use std::collections::BTreeMap;

use govscan_pki::Time;
use govscan_scanner::{ErrorCategory, ScanDataset};

/// One country's position at one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountryPoint {
    /// Hosts attributed to the country.
    pub hosts: u64,
    /// … that were available.
    pub available: u64,
    /// … attempting https.
    pub attempting: u64,
    /// … serving valid https.
    pub valid: u64,
}

/// The aggregate state of one epoch, extracted in a single walk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochPoint {
    /// Caller-supplied label (e.g. `"epoch 3"` or a filename).
    pub label: String,
    /// The epoch's scan time.
    pub scan_time: Option<Time>,
    /// Total hosts in the epoch.
    pub hosts: u64,
    /// Available hosts (the paper's analysis denominator).
    pub available: u64,
    /// Available hosts attempting https.
    pub attempting: u64,
    /// Available hosts with a valid configuration.
    pub valid: u64,
    /// Valid hosts sending Strict-Transport-Security.
    pub hsts: u64,
    /// Invalid-https hosts by Table 2 error label.
    pub errors: BTreeMap<&'static str, u64>,
    /// Per-country positions.
    pub by_country: BTreeMap<&'static str, CountryPoint>,
}

impl EpochPoint {
    /// Valid share of https-attempting hosts (the paper's headline
    /// validity metric), 0 when nothing attempts.
    pub fn validity(&self) -> f64 {
        if self.attempting == 0 {
            0.0
        } else {
            self.valid as f64 / self.attempting as f64
        }
    }

    /// Valid share of available hosts.
    pub fn valid_of_available(&self) -> f64 {
        if self.available == 0 {
            0.0
        } else {
            self.valid as f64 / self.available as f64
        }
    }
}

/// Summarize one epoch's dataset. Exactly one full walk.
pub fn epoch_point(label: impl Into<String>, scan: &ScanDataset) -> EpochPoint {
    let mut p = EpochPoint {
        label: label.into(),
        scan_time: scan.scan_time,
        ..EpochPoint::default()
    };
    for r in scan.records() {
        p.hosts += 1;
        let country = r.country.map(|cc| p.by_country.entry(cc).or_default());
        if let Some(c) = country {
            c.hosts += 1;
        }
        if !r.available {
            continue;
        }
        p.available += 1;
        let attempts = r.https.attempts();
        let valid = r.https.is_valid();
        if attempts {
            p.attempting += 1;
        }
        if valid {
            p.valid += 1;
            if r.hsts {
                p.hsts += 1;
            }
        }
        if let Some(e) = r.https.error() {
            *p.errors.entry(e.label()).or_insert(0) += 1;
        }
        if let Some(cc) = r.country {
            let c = p.by_country.entry(cc).or_default();
            c.available += 1;
            if attempts {
                c.attempting += 1;
            }
            if valid {
                c.valid += 1;
            }
        }
    }
    p
}

/// An ordered sequence of epoch summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrendSeries {
    /// The epochs, in scan order.
    pub points: Vec<EpochPoint>,
}

impl TrendSeries {
    /// An empty series.
    pub fn new() -> TrendSeries {
        TrendSeries::default()
    }

    /// Append one epoch.
    pub fn push(&mut self, point: EpochPoint) {
        self.points.push(point);
    }

    /// Error labels that appear anywhere in the series, in Table 2
    /// order — the columns of the error-mix table.
    pub fn error_labels(&self) -> Vec<&'static str> {
        ErrorCategory::ALL
            .iter()
            .map(|e| e.label())
            .filter(|l| self.points.iter().any(|p| p.errors.contains_key(l)))
            .collect()
    }

    /// Countries present in every epoch with at least `min_hosts`
    /// hosts in the first epoch, ordered by first-epoch size — the
    /// stable per-country trajectories.
    pub fn tracked_countries(&self, min_hosts: u64) -> Vec<&'static str> {
        let Some(first) = self.points.first() else {
            return Vec::new();
        };
        let mut ccs: Vec<(&'static str, u64)> = first
            .by_country
            .iter()
            .filter(|(cc, c)| {
                c.hosts >= min_hosts && self.points.iter().all(|p| p.by_country.contains_key(*cc))
            })
            .map(|(cc, c)| (*cc, c.hosts))
            .collect();
        ccs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        ccs.into_iter().map(|(cc, _)| cc).collect()
    }

    /// Render the trajectory tables: headline validity per epoch, the
    /// error-mix migration, and the largest tracked countries' paths.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("Longitudinal trends\n");
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>9} {:>10} {:>7} {:>8} {:>7}",
            "epoch", "hosts", "available", "attempting", "valid", "valid %", "HSTS"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>9} {:>10} {:>7} {:>7.1}% {:>7}",
                p.label,
                p.hosts,
                p.available,
                p.attempting,
                p.valid,
                100.0 * p.validity(),
                p.hsts
            );
        }
        let labels = self.error_labels();
        if !labels.is_empty() {
            out.push_str("\nError mix by epoch\n");
            for label in labels {
                let _ = write!(out, "{label:<34}");
                for p in &self.points {
                    let _ = write!(out, " {:>6}", p.errors.get(label).copied().unwrap_or(0));
                }
                out.push('\n');
            }
        }
        let tracked = self.tracked_countries(10);
        if !tracked.is_empty() {
            out.push_str("\nPer-country validity (% of attempting)\n");
            for cc in tracked.into_iter().take(10) {
                let _ = write!(out, "{cc:<6}");
                for p in &self.points {
                    let c = p.by_country[cc];
                    let pctv = if c.attempting == 0 {
                        0.0
                    } else {
                        100.0 * c.valid as f64 / c.attempting as f64
                    };
                    let _ = write!(out, " {pctv:>6.1}");
                }
                out.push('\n');
            }
        }
        out
    }

    /// The series as a JSON array (one object per epoch), for the
    /// `govscan-serve` `/trends` endpoint and `monitor --json`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                concat!(
                    "{{\"label\":\"{}\",\"scan_time\":{},\"hosts\":{},",
                    "\"available\":{},\"attempting\":{},\"valid\":{},",
                    "\"validity\":{:.4},\"hsts\":{},\"errors\":{{"
                ),
                p.label.replace('\\', "\\\\").replace('"', "\\\""),
                p.scan_time.map_or("null".to_string(), |t| t.0.to_string()),
                p.hosts,
                p.available,
                p.attempting,
                p.valid,
                p.validity(),
                p.hsts,
            );
            for (j, (label, count)) in p.errors.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{label}\":{count}");
            }
            out.push_str("},\"by_country\":{");
            for (j, (cc, c)) in p.by_country.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\"{cc}\":{{\"hosts\":{},\"available\":{},\"attempting\":{},\"valid\":{}}}",
                    c.hosts, c.available, c.attempting, c.valid
                );
            }
            out.push_str("}}");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport;

    #[test]
    fn one_epoch_point_matches_dataset_filters() {
        // A private copy: other tests walk the shared dataset at the
        // same time, which would race this walk count.
        let scan = &testsupport::study().1.scan.clone();
        let walks_before = scan.walks();
        let p = epoch_point("epoch 0", scan);
        assert_eq!(
            scan.walks() - walks_before,
            1,
            "trend extraction must walk the dataset exactly once"
        );
        assert_eq!(p.hosts, scan.len() as u64);
        assert_eq!(p.available, scan.available().count() as u64);
        assert_eq!(p.attempting, scan.https_attempting().count() as u64);
        assert_eq!(p.valid, scan.valid().count() as u64);
        assert!(p.valid > 0 && p.validity() > 0.0 && p.validity() <= 1.0);
        assert!(
            !p.errors.is_empty(),
            "the small world must carry injected errors"
        );
        assert_eq!(p.scan_time, scan.scan_time);
    }

    #[test]
    fn series_renders_and_serializes() {
        let scan = &testsupport::study().1.scan;
        let mut series = TrendSeries::new();
        series.push(epoch_point("epoch 0", scan));
        series.push(epoch_point("epoch 1", scan));
        let rendered = series.render();
        assert!(rendered.contains("epoch 0"), "{rendered}");
        assert!(rendered.contains("Error mix by epoch"), "{rendered}");
        let json = series.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"label\":\"epoch 1\""), "{json}");
        assert!(json.contains("\"validity\":"), "{json}");
        // Identical epochs must produce identical points.
        assert_eq!(series.points[0].errors, series.points[1].errors);
        assert_eq!(series.error_labels().len(), series.points[0].errors.len());
        assert!(!series.tracked_countries(1).is_empty());
    }
}
