//! Figures 3 & 10 and §5.3.1: certificate issue/expiry dates and
//! validity durations.

use govscan_pki::Time;

use crate::aggregate::AggregateIndex;
use crate::table::{pct, TextTable};

/// Scatter point: one certificate's dates and verdict.
#[derive(Debug, Clone, Copy)]
pub struct CertPoint {
    /// notBefore.
    pub issued: Time,
    /// notAfter.
    pub expires: Time,
    /// Was the chain valid?
    pub valid: bool,
}

/// §5.3.1's duration statistics over *invalid* certificates.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurationStats {
    /// Certificates examined.
    pub total: u64,
    /// Share with total validity under 2 years (paper: only 32%).
    pub under_2y: u64,
    /// Issued for longer than 3 years (paper: 14%).
    pub over_3y: u64,
    /// Ten-year certificates (paper: 617).
    pub ten_year: u64,
    /// Twenty-year certificates (paper: 155).
    pub twenty_year: u64,
    /// Thirty-year-or-more certificates (paper: 36 + outliers).
    pub thirty_year_plus: u64,
    /// Hundred-year certificates (paper: 40).
    pub hundred_year: u64,
    /// Durations that are exact multiples of 365 days (paper: 43.24%).
    pub multiple_of_365: u64,
    /// Issue date at or before the Unix epoch (paper: 1).
    pub epoch_issued: u64,
}

/// The figure data.
#[derive(Debug, Clone, Default)]
pub struct DurationFigure {
    /// All certificate points (valid and invalid).
    pub points: Vec<CertPoint>,
    /// Stats over invalid certificates.
    pub invalid_stats: DurationStats,
    /// Stats over valid certificates (for the contrast).
    pub valid_stats: DurationStats,
}

fn accumulate(stats: &mut DurationStats, issued: Time, days: i64) {
    stats.total += 1;
    if days < 730 {
        stats.under_2y += 1;
    }
    if days > 1095 {
        stats.over_3y += 1;
    }
    if (3600..3700).contains(&days) {
        stats.ten_year += 1;
    }
    if (7250..7350).contains(&days) {
        stats.twenty_year += 1;
    }
    if days >= 10900 {
        stats.thirty_year_plus += 1;
    }
    if days >= 36000 {
        stats.hundred_year += 1;
    }
    if days > 0 && days % 365 == 0 {
        stats.multiple_of_365 += 1;
    }
    if issued.0 <= 0 {
        stats.epoch_issued += 1;
    }
}

/// Build from a pre-built aggregation index (points keep record order).
pub fn build_from_index(index: &AggregateIndex) -> DurationFigure {
    let mut fig = DurationFigure {
        points: Vec::with_capacity(index.cert_hosts.len()),
        ..DurationFigure::default()
    };
    for h in index.cert_hosts() {
        let cert = index.cert_bits(h).expect("cert population has cert bits");
        fig.points.push(CertPoint {
            issued: cert.not_before,
            expires: cert.not_after,
            valid: h.valid,
        });
        let stats = if h.valid {
            &mut fig.valid_stats
        } else {
            &mut fig.invalid_stats
        };
        accumulate(stats, cert.not_before, cert.validity_days);
    }
    fig
}

impl DurationFigure {
    /// Render the §5.3.1 statistics.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Statistic", "Invalid", "Valid"]);
        let s = &self.invalid_stats;
        let v = &self.valid_stats;
        let frac = |n: u64, d: u64| pct(if d == 0 { 0.0 } else { n as f64 / d as f64 });
        t.row(vec![
            "Certificates".to_string(),
            s.total.to_string(),
            v.total.to_string(),
        ]);
        t.row(vec![
            "Under 2 years (%)".to_string(),
            frac(s.under_2y, s.total),
            frac(v.under_2y, v.total),
        ]);
        t.row(vec![
            "Over 3 years (%)".to_string(),
            frac(s.over_3y, s.total),
            frac(v.over_3y, v.total),
        ]);
        t.row(vec![
            "10-year certs".to_string(),
            s.ten_year.to_string(),
            v.ten_year.to_string(),
        ]);
        t.row(vec![
            "20-year certs".to_string(),
            s.twenty_year.to_string(),
            v.twenty_year.to_string(),
        ]);
        t.row(vec![
            "30-year+ certs".to_string(),
            s.thirty_year_plus.to_string(),
            v.thirty_year_plus.to_string(),
        ]);
        t.row(vec![
            "100-year certs".to_string(),
            s.hundred_year.to_string(),
            v.hundred_year.to_string(),
        ]);
        t.row(vec![
            "Multiples of 365 (%)".to_string(),
            frac(s.multiple_of_365, s.total),
            frac(v.multiple_of_365, v.total),
        ]);
        t.row(vec![
            "Epoch-issued".to_string(),
            s.epoch_issued.to_string(),
            v.epoch_issued.to_string(),
        ]);
        t.render()
    }

    /// Monthly histogram of issue dates `(year, month, valid, invalid)`,
    /// the plottable form of the Figure 3/10 scatter.
    pub fn monthly_issue_histogram(&self) -> Vec<(i32, u8, u64, u64)> {
        let mut map: std::collections::BTreeMap<(i32, u8), (u64, u64)> =
            std::collections::BTreeMap::new();
        for p in &self.points {
            let dt = p.issued.to_datetime();
            let e = map.entry((dt.year, dt.month)).or_default();
            if p.valid {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        map.into_iter()
            .map(|((y, m), (v, i))| (y, m, v, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::index;

    fn fig() -> DurationFigure {
        build_from_index(index())
    }

    #[test]
    fn valid_certs_are_cab_compliant() {
        // Figure 3/10: valid certificates cluster in short windows.
        let f = fig();
        let v = &f.valid_stats;
        assert!(v.total > 100);
        assert_eq!(v.ten_year, 0);
        assert_eq!(v.hundred_year, 0);
        let under = v.under_2y as f64 / v.total as f64;
        assert!(under > 0.6, "valid under-2y {under}");
    }

    #[test]
    fn invalid_certs_have_the_long_tail() {
        let f = fig();
        let s = &f.invalid_stats;
        assert!(s.total > 50);
        let under = s.under_2y as f64 / s.total as f64;
        assert!(
            under < 0.75,
            "§5.3.1: only ~32% of invalid are under 2 years; got {under}"
        );
        assert!(s.over_3y > 0, "multi-year invalid certs exist");
        assert!(
            s.ten_year + s.twenty_year + s.thirty_year_plus > 0,
            "decade-plus certificates exist"
        );
    }

    #[test]
    fn multiples_of_365_are_common_among_invalid() {
        let f = fig();
        let s = &f.invalid_stats;
        let share = s.multiple_of_365 as f64 / s.total as f64;
        assert!((0.15..0.75).contains(&share), "365-multiple share {share}");
    }

    #[test]
    fn issue_dates_cluster_before_scan() {
        let f = fig();
        let hist = f.monthly_issue_histogram();
        assert!(!hist.is_empty());
        // Every issue month is on or before the scan month (2020-04).
        for (y, m, _, _) in &hist {
            assert!(*y < 2020 || (*y == 2020 && *m <= 4), "{y}-{m}");
        }
        // Valid certs concentrate in 2019–2020.
        let recent: u64 = hist
            .iter()
            .filter(|(y, _, _, _)| *y >= 2019)
            .map(|(_, _, v, _)| v)
            .sum();
        let older: u64 = hist
            .iter()
            .filter(|(y, _, _, _)| *y < 2019)
            .map(|(_, _, v, _)| v)
            .sum();
        assert!(recent > older, "recent {recent} vs older {older}");
    }

    #[test]
    fn renders() {
        let s = fig().render();
        assert!(s.contains("10-year certs"));
        assert!(s.contains("Multiples of 365"));
    }
}
