//! §6: the USA (GSA) and South Korea (Government24) case studies —
//! headline rates, per-dataset breakdowns (Tables A.1/A.2/A.3/A.4), and
//! the §6.3 error-profile contrast. Each reads the aggregation index of
//! its case study's scan, as every other figure reads its scan's.

use std::collections::BTreeMap;

use govscan_scanner::ErrorCategory;
use govscan_worldgen::usa::UsaDataset;

use crate::aggregate::{AggregateIndex, HostSummary};
use crate::stats::Share;
use crate::table::{pct, TextTable};

/// Aggregate outcome counts for one host list.
#[derive(Debug, Clone, Default)]
pub struct CaseAggregate {
    /// Rows scanned (available or not).
    pub total: u64,
    /// Unavailable rows.
    pub unavailable: u64,
    /// Reachable, http only.
    pub http_only: u64,
    /// Serving on both http and https.
    pub both: u64,
    /// Attempting https.
    pub https: u64,
    /// Valid chains.
    pub valid: u64,
    /// Invalid chains.
    pub invalid: u64,
    /// Error counts.
    pub errors: BTreeMap<ErrorCategory, u64>,
}

impl CaseAggregate {
    /// Accumulate one host.
    fn add(&mut self, h: &HostSummary) {
        self.total += 1;
        if !h.available {
            self.unavailable += 1;
            return;
        }
        if !h.attempts {
            self.http_only += 1;
            return;
        }
        self.https += 1;
        if h.serves_both {
            self.both += 1;
        }
        if h.valid {
            self.valid += 1;
        } else {
            self.invalid += 1;
            if let Some(e) = h.error {
                *self.errors.entry(e).or_default() += 1;
            }
        }
    }

    /// The §6 headline: valid share among https-attempting hosts
    /// (paper: USA 81.12%, ROK 37.95%).
    pub fn headline_valid_rate(&self) -> Share {
        Share::new(self.valid, self.https)
    }

    /// Share of invalidity caused by exceptions (the §6.3 contrast:
    /// 2.79% in the USA vs 21.08% in the ROK).
    pub fn exception_share_of_invalid(&self) -> f64 {
        let exc: u64 = self
            .errors
            .iter()
            .filter(|(c, _)| c.is_exception())
            .map(|(_, n)| n)
            .sum();
        if self.invalid == 0 {
            0.0
        } else {
            exc as f64 / self.invalid as f64
        }
    }

    /// Share of invalidity from self-signed-in-chain (USA 0.18% vs ROK
    /// 5.95% — of https in the paper; we report over invalid).
    pub fn chain_self_signed_share(&self) -> f64 {
        let n = self
            .errors
            .get(&ErrorCategory::SelfSignedInChain)
            .copied()
            .unwrap_or(0);
        if self.invalid == 0 {
            0.0
        } else {
            n as f64 / self.invalid as f64
        }
    }
}

/// The USA case study: overall plus per-GSA-dataset aggregates.
#[derive(Debug, Clone, Default)]
pub struct UsaCase {
    /// All GSA rows together.
    pub overall: CaseAggregate,
    /// Per dataset.
    pub per_dataset: BTreeMap<UsaDataset, CaseAggregate>,
}

/// Build the USA case from the index of a scan of the GSA lists plus
/// the hostname → dataset tags that come with the GSA's published files.
pub fn build_usa(index: &AggregateIndex, tags: &BTreeMap<String, Vec<UsaDataset>>) -> UsaCase {
    let mut case = UsaCase::default();
    for h in &index.hosts {
        case.overall.add(h);
        if let Some(datasets) = tags.get(&h.hostname) {
            for d in datasets {
                case.per_dataset.entry(*d).or_default().add(h);
            }
        }
    }
    case
}

/// Build the ROK case from the index of a scan of the Government24 list.
pub fn build_rok(index: &AggregateIndex) -> CaseAggregate {
    let mut agg = CaseAggregate::default();
    for h in &index.hosts {
        agg.add(h);
    }
    agg
}

/// Render a case aggregate in the Table A.3/A.4 layout.
pub fn render_aggregate(name: &str, a: &CaseAggregate) -> String {
    let mut t = TextTable::new(vec!["Metric", "Count", "%"]);
    t.row(vec![
        format!("{name} total"),
        a.total.to_string(),
        "100".to_string(),
    ]);
    t.row(vec![
        "Unavailable".to_string(),
        a.unavailable.to_string(),
        pct(a.unavailable as f64 / a.total.max(1) as f64),
    ]);
    t.row(vec![
        "HTTP only".to_string(),
        a.http_only.to_string(),
        pct(a.http_only as f64 / a.total.max(1) as f64),
    ]);
    t.row(vec![
        "HTTPS".to_string(),
        a.https.to_string(),
        pct(a.https as f64 / a.total.max(1) as f64),
    ]);
    t.row(vec![
        "Valid".to_string(),
        a.valid.to_string(),
        pct(a.headline_valid_rate().fraction()),
    ]);
    t.row(vec![
        "Invalid".to_string(),
        a.invalid.to_string(),
        pct(a.invalid as f64 / a.https.max(1) as f64),
    ]);
    for (e, n) in &a.errors {
        t.row(vec![
            format!("  {}", e.label()),
            n.to_string(),
            pct(*n as f64 / a.invalid.max(1) as f64),
        ]);
    }
    t.render()
}

/// Render the per-dataset Table A.1 layout.
pub fn render_usa_datasets(case: &UsaCase) -> String {
    let mut t = TextTable::new(vec![
        "Dataset",
        "Total",
        "HTTP only",
        "Both",
        "HTTPS",
        "Valid",
        "Invalid",
    ]);
    for (d, a) in &case.per_dataset {
        t.row(vec![
            format!("{d:?}"),
            a.total.to_string(),
            a.http_only.to_string(),
            a.both.to_string(),
            a.https.to_string(),
            a.valid.to_string(),
            a.invalid.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use govscan_scanner::StudyPipeline;
    use std::sync::OnceLock;

    struct Cases {
        usa: UsaCase,
        rok: CaseAggregate,
    }

    static CASES: OnceLock<Cases> = OnceLock::new();

    fn cases() -> &'static Cases {
        CASES.get_or_init(|| {
            let (world, _) = crate::testsupport::study();
            let pipeline = StudyPipeline::new(world);
            let usa_scan = pipeline.scan_list(&world.gsa_hosts);
            let rok_scan = pipeline.scan_list(&world.rok_hosts);
            let tags: BTreeMap<String, Vec<UsaDataset>> = world
                .gsa_hosts
                .iter()
                .filter_map(|h| world.record(h).map(|r| (h.clone(), r.gsa_datasets.clone())))
                .collect();
            Cases {
                usa: build_usa(&AggregateIndex::build(&usa_scan), &tags),
                rok: build_rok(&AggregateIndex::build(&rok_scan)),
            }
        })
    }

    #[test]
    fn usa_headline_near_81_percent() {
        let rate = cases().usa.overall.headline_valid_rate().fraction();
        assert!((0.72..0.92).contains(&rate), "usa headline {rate}");
    }

    #[test]
    fn rok_headline_near_38_percent() {
        let rate = cases().rok.headline_valid_rate().fraction();
        assert!((0.28..0.50).contains(&rate), "rok headline {rate}");
    }

    #[test]
    fn usa_beats_rok_by_a_wide_margin() {
        // §6.3: 81.12% vs 37.95%.
        let usa = cases().usa.overall.headline_valid_rate().fraction();
        let rok = cases().rok.headline_valid_rate().fraction();
        assert!(usa > rok + 0.25, "usa {usa} rok {rok}");
    }

    #[test]
    fn rok_has_far_more_exceptions_and_chain_errors() {
        let usa = &cases().usa.overall;
        let rok = &cases().rok;
        assert!(
            rok.exception_share_of_invalid() > usa.exception_share_of_invalid(),
            "rok exceptions {} vs usa {}",
            rok.exception_share_of_invalid(),
            usa.exception_share_of_invalid()
        );
        assert!(
            rok.chain_self_signed_share() > usa.chain_self_signed_share(),
            "chain-self-signed contrast"
        );
    }

    #[test]
    fn every_gsa_dataset_appears() {
        let usa = &cases().usa;
        assert_eq!(usa.per_dataset.len(), 15, "{:?}", usa.per_dataset.keys());
        // EoT is mostly unavailable (archived).
        let eot = &usa.per_dataset[&UsaDataset::EndOfTerm2016];
        assert!(
            eot.unavailable as f64 / eot.total as f64 > 0.4,
            "eot unavailable share"
        );
    }

    #[test]
    fn current_federal_outperforms_the_rest() {
        let usa = &cases().usa;
        let fed = usa.per_dataset[&UsaDataset::CurrentFederal]
            .headline_valid_rate()
            .fraction();
        let overall = usa.overall.headline_valid_rate().fraction();
        // CurrentFederal is tiny at test scale; allow sampling noise.
        assert!(fed >= overall - 0.12, "fed {fed} vs overall {overall}");
    }

    #[test]
    fn renders() {
        let c = cases();
        let s = render_aggregate("ROK", &c.rok);
        assert!(s.contains("Valid"));
        let s = render_usa_datasets(&c.usa);
        assert!(s.contains("CurrentFederal"));
    }
}
