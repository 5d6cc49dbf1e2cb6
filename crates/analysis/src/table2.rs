//! Table 2: worldwide government sites by https validity and error.

use std::collections::BTreeMap;

use govscan_scanner::ErrorCategory;

use crate::aggregate::AggregateIndex;
use crate::stats::Share;
use crate::table::TextTable;

/// The Table 2 reproduction.
#[derive(Debug, Clone, Default)]
pub struct Table2 {
    /// Total websites considered (available ones).
    pub total: u64,
    /// Content served on http only.
    pub http_only: u64,
    /// Content served on https (valid + invalid).
    pub https: u64,
    /// Valid https certificates.
    pub valid: u64,
    /// Valid and also serving plain-http content (the 4,126 bucket).
    pub valid_serving_both: u64,
    /// Invalid https certificates.
    pub invalid: u64,
    /// Invalid counts per category.
    pub errors: BTreeMap<ErrorCategory, u64>,
}

/// Build Table 2 from a pre-built aggregation index: the spine comes
/// straight from the single-pass totals, the error breakdown from the
/// pre-grouped category index.
pub fn build_from_index(index: &AggregateIndex) -> Table2 {
    let t = index.totals;
    Table2 {
        total: t.available,
        http_only: t.http_only,
        https: t.https,
        valid: t.valid,
        valid_serving_both: t.valid_serving_both,
        invalid: t.invalid,
        errors: index
            .by_error
            .iter()
            .map(|(cat, members)| (*cat, members.len() as u64))
            .collect(),
    }
}

impl Table2 {
    /// Share of available hosts attempting https (paper: 39.33%).
    pub fn https_share(&self) -> Share {
        Share::new(self.https, self.total)
    }

    /// Share of https hosts with a valid chain (paper: 71.41%).
    pub fn valid_share(&self) -> Share {
        Share::new(self.valid, self.https)
    }

    /// Exceptions subtotal (protocol-level failures).
    pub fn exceptions(&self) -> u64 {
        self.errors
            .iter()
            .filter(|(c, _)| c.is_exception())
            .map(|(_, n)| n)
            .sum()
    }

    /// Count for one category.
    pub fn count(&self, cat: ErrorCategory) -> u64 {
        self.errors.get(&cat).copied().unwrap_or(0)
    }

    /// Hosts not using valid https (the headline ≈72%).
    pub fn not_valid_share(&self) -> Share {
        Share::new(self.total - self.valid, self.total)
    }

    /// Render in the paper's layout (percentages are of the level above,
    /// as in Table 2's caption).
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["Category", "Count", "%"]);
        let p = |n: u64, d: u64| format!("{:.2}", Share::new(n, d).percent());
        t.row(vec![
            "Total websites considered".to_string(),
            self.total.to_string(),
            "100".into(),
        ]);
        t.row(vec![
            "> Content served on HTTP only".to_string(),
            self.http_only.to_string(),
            p(self.http_only, self.total),
        ]);
        t.row(vec![
            "> Content served on HTTPS".to_string(),
            self.https.to_string(),
            p(self.https, self.total),
        ]);
        t.row(vec![
            ">> Valid HTTPS Certificates".to_string(),
            self.valid.to_string(),
            p(self.valid, self.https),
        ]);
        t.row(vec![
            ">>   (also serving HTTP)".to_string(),
            self.valid_serving_both.to_string(),
            p(self.valid_serving_both, self.valid),
        ]);
        t.row(vec![
            ">> Invalid HTTPS Certificates".to_string(),
            self.invalid.to_string(),
            p(self.invalid, self.https),
        ]);
        // Certificate-level errors: % of invalid.
        for cat in [
            ErrorCategory::HostnameMismatch,
            ErrorCategory::UnableLocalIssuer,
        ] {
            t.row(vec![
                format!(">>> {}", cat.label()),
                self.count(cat).to_string(),
                p(self.count(cat), self.invalid),
            ]);
        }
        let exc = self.exceptions();
        t.row(vec![
            ">>> Exceptions".to_string(),
            exc.to_string(),
            p(exc, self.invalid),
        ]);
        for cat in ErrorCategory::ALL.iter().filter(|c| c.is_exception()) {
            t.row(vec![
                format!(">>>> {}", cat.label()),
                self.count(*cat).to_string(),
                p(self.count(*cat), exc),
            ]);
        }
        for cat in [
            ErrorCategory::SelfSigned,
            ErrorCategory::Expired,
            ErrorCategory::SelfSignedInChain,
        ] {
            t.row(vec![
                format!(">>> {}", cat.label()),
                self.count(cat).to_string(),
                p(self.count(cat), self.invalid),
            ]);
        }
        let others = self.count(ErrorCategory::Other) + self.count(ErrorCategory::NotYetValid);
        t.row(vec![
            ">>> Others".to_string(),
            others.to_string(),
            p(others, self.invalid),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::index;

    fn table() -> Table2 {
        build_from_index(index())
    }

    #[test]
    fn shapes_match_paper() {
        let t = table();
        assert!(t.total > 1000, "enough hosts: {}", t.total);
        // https share ~39% (wide band at small scale).
        let https = t.https_share().fraction();
        assert!((0.28..0.60).contains(&https), "https share {https}");
        // valid share ~71%.
        let valid = t.valid_share().fraction();
        assert!((0.55..0.85).contains(&valid), "valid share {valid}");
        // Headline: ≈72% do not use valid https.
        let not_valid = t.not_valid_share().fraction();
        assert!((0.6..0.85).contains(&not_valid), "not-valid {not_valid}");
    }

    #[test]
    fn hostname_mismatch_is_the_leading_error() {
        let t = table();
        let mismatch = t.count(ErrorCategory::HostnameMismatch);
        for cat in ErrorCategory::ALL {
            if cat != ErrorCategory::HostnameMismatch {
                assert!(
                    mismatch >= t.count(cat),
                    "{cat:?}: {} > mismatch {mismatch}",
                    t.count(cat)
                );
            }
        }
    }

    #[test]
    fn unsupported_protocol_dominates_exceptions() {
        let t = table();
        let exc = t.exceptions();
        let unsup = t.count(ErrorCategory::UnsupportedProtocol);
        assert!(exc > 0);
        assert!(
            unsup as f64 / exc as f64 > 0.5,
            "unsupported {unsup} of {exc}"
        );
    }

    #[test]
    fn counts_are_consistent() {
        let t = table();
        assert_eq!(t.total, t.http_only + t.https);
        assert_eq!(t.https, t.valid + t.invalid);
        let sum: u64 = t.errors.values().sum();
        assert_eq!(sum, t.invalid);
    }

    #[test]
    fn renders_all_rows() {
        let t = table();
        let s = t.render();
        assert!(s.contains("Content served on HTTPS"));
        assert!(s.contains("Hostname Mismatch"));
        assert!(s.contains("Unsupported SSL Protocol"));
        assert!(s.contains("Self-signed certificate in chain"));
    }
}
