//! # govscan-analysis
//!
//! Builders for every table and figure in the paper's evaluation, plus
//! the statistics utilities they need. Each module produces a typed
//! result with a text rendering whose rows match the paper's. Modules
//! over a scan have one builder, `build_from_index`, over a shared
//! [`aggregate::AggregateIndex`]; the rest take their inputs directly.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`aggregate`] | shared: single-pass `AggregateIndex` over the scan |
//! | [`table1`] | Table 1 — overlap with the public top-million lists |
//! | [`table2`] | Table 2 — worldwide validity + error breakdown |
//! | [`choropleth`] | Figure 1 — per-country availability/https/validity |
//! | [`issuers`] | Figures 2, 8, 11 — certificate issuers |
//! | [`durations`] | Figures 3, 10 + §5.3.1 — issue dates & durations |
//! | [`keys`] | Figures 4, 9, 12 — key types × signing algorithms |
//! | [`hosting`] | Figures 5, 6 (hosting panels), A.1 |
//! | [`compare`] | §5.5, Figures 6, 7 — gov vs non-gov by rank |
//! | [`reuse`] | §5.3.3 — key/certificate reuse |
//! | [`caa`] | §5.3.4 — CAA adoption |
//! | [`ct`] | extension: CT-log coverage of government certificates (§2.2) |
//! | [`hsts`] | extension: HSTS adoption (§8.2's recommendation) |
//! | [`casestudy`] | §6 — USA & South Korea case studies, Tables A.1–A.4 |
//! | [`crawlstats`] | Figure A.4 — crawler growth |
//! | [`interlink`] | Figure A.5 — cross-government links |
//! | [`ev`] | Figures A.2, A.3, A.6 — EV issuers |
//! | [`trend`] | extension: longitudinal trajectories over monitor epochs |
//! | [`phishing`] | §7.3.2 — lookalike-domain detection |
//! | [`stats`] | shared: OLS + 95% CI, binning, descriptive stats |
//! | [`table`] | shared: text-table rendering |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod caa;
pub mod casestudy;
pub mod choropleth;
pub mod compare;
pub mod crawlstats;
pub mod ct;
pub mod durations;
pub mod ev;
pub mod hosting;
pub mod hsts;
pub mod interlink;
pub mod issuers;
pub mod keys;
pub mod phishing;
pub mod reuse;
pub mod stats;
pub mod table;
pub mod table1;
pub mod table2;
pub mod trend;

#[cfg(test)]
pub(crate) mod testsupport {
    //! One shared small-world study run for every test in this crate —
    //! generating a world and running the pipeline is the expensive part,
    //! so tests share a single deterministic instance.
    use std::sync::OnceLock;

    use govscan_scanner::{StudyOutput, StudyPipeline};
    use govscan_worldgen::{World, WorldConfig};

    use crate::aggregate::AggregateIndex;

    static STUDY: OnceLock<(World, StudyOutput)> = OnceLock::new();
    static INDEX: OnceLock<AggregateIndex> = OnceLock::new();

    pub fn study() -> &'static (World, StudyOutput) {
        STUDY.get_or_init(|| {
            let world = World::generate(&WorldConfig::small(0xA11A));
            let output = StudyPipeline::new(&world).run();
            (world, output)
        })
    }

    /// The aggregation index over the shared study's scan.
    pub fn index() -> &'static AggregateIndex {
        INDEX.get_or_init(|| AggregateIndex::build(&study().1.scan))
    }
}
