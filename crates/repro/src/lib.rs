//! # govscan-repro
//!
//! The paper's experiments, one function per table/figure in
//! [`experiments`] (see DESIGN.md §3 for the full index), and the
//! binaries that run them: `repro <key>` runs one experiment, `repro
//! all` runs every one and emits the EXPERIMENTS.md comparison, and
//! `snapshot`, `pipeline`, `monitor` and `distributed` drive the
//! archive, the streamed pipeline, the monitor and the distributed scan.
//!
//! Every binary that generates a world accepts two environment variables:
//!
//! - `GOVSCAN_SCALE` — world scale, a finite positive number (default
//!   0.2; `1.0` = paper scale). Any other value falls back to the default.
//! - `GOVSCAN_SEED` — world seed (default `0x60765CA9`).
//!
//! Reported numbers are `paper=<value> measured=<value>` rows; absolute
//! counts scale with `GOVSCAN_SCALE`, percentages and orderings should
//! not.
//!
//! ## Quickstart
//!
//! ```
//! use govscan_analysis::aggregate::AggregateIndex;
//! use govscan_scanner::StudyPipeline;
//! use govscan_worldgen::{World, WorldConfig};
//!
//! // A small world: ~1% of the paper's scale, fully deterministic.
//! let world = World::generate(&WorldConfig::small(42));
//! let study = StudyPipeline::new(&world).run();
//! let index = AggregateIndex::build(&study.scan);
//! let t2 = govscan_analysis::table2::build_from_index(&index);
//! assert!(t2.total > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod experiments;
pub mod pipeline;
pub mod snapshot;

use std::collections::BTreeMap;
use std::sync::OnceLock;

use govscan_analysis::aggregate::AggregateIndex;
use govscan_scanner::{ScanDataset, StudyOutput, StudyPipeline};
use govscan_worldgen::usa::UsaDataset;
use govscan_worldgen::{World, WorldConfig};

/// The shared experiment environment: one generated world plus the study
/// pipeline output, with the two case studies scanned lazily.
pub struct Env {
    /// The generated world (mutable: the disclosure experiment mutates it).
    pub world: World,
    /// The worldwide study output.
    pub study: StudyOutput,
    /// Single-pass aggregation over the worldwide scan, built once by
    /// [`Env::with`] and shared by every experiment via [`Env::index`].
    aggregate: AggregateIndex,
    usa: OnceLock<CaseStudy>,
    rok: OnceLock<CaseStudy>,
}

/// One §6 case study: the scan of its host list and the one index every
/// figure reads from it.
pub struct CaseStudy {
    /// The scan of the case study's host list.
    pub scan: ScanDataset,
    /// The aggregation index over [`Self::scan`].
    pub index: AggregateIndex,
    /// GSA hostname → dataset tags, the input metadata of Tables
    /// A.1/A.2; empty for the ROK.
    pub tags: BTreeMap<String, Vec<UsaDataset>>,
}

impl CaseStudy {
    fn new(world: &World, hosts: &[String], tags: BTreeMap<String, Vec<UsaDataset>>) -> Self {
        let scan = StudyPipeline::new(world).scan_list(hosts);
        let index = AggregateIndex::build(&scan);
        CaseStudy { scan, index, tags }
    }
}

impl Env {
    /// Build from `GOVSCAN_SCALE` / `GOVSCAN_SEED`.
    pub fn load() -> Env {
        let config = env_params();
        Self::with(config.seed, config.scale)
    }

    /// Build with explicit parameters.
    pub fn with(seed: u64, scale: f64) -> Env {
        let mut config = WorldConfig::paper_scale(seed);
        config.scale = scale;
        eprintln!("[govscan] generating world (seed={seed}, scale={scale})...");
        let world = World::generate(&config);
        eprintln!(
            "[govscan] world: {} gov hosts, {} net hosts; running study pipeline...",
            world.gov_hosts.len(),
            world.net.len()
        );
        let study = StudyPipeline::new(&world).run();
        // Build the shared index up front: the startup summary below
        // reads its totals instead of spending a dataset walk, so the
        // whole full-report run walks the scan exactly once — here.
        let index = AggregateIndex::build(&study.scan);
        eprintln!(
            "[govscan] study: {} hosts measured ({} available)",
            study.scan.len(),
            index.totals.available,
        );
        Env {
            world,
            study,
            aggregate: index,
            usa: OnceLock::new(),
            rok: OnceLock::new(),
        }
    }

    /// The shared aggregation index over the worldwide scan. Every
    /// experiment reads the same index, so the full report costs exactly
    /// one dataset walk.
    pub fn index(&self) -> &AggregateIndex {
        &self.aggregate
    }

    /// The USA GSA case study, scanned and indexed on first use. A first
    /// use after the disclosure experiment scans the remediated world.
    pub fn usa(&self) -> &CaseStudy {
        self.usa.get_or_init(|| {
            let tags = self
                .world
                .gsa_hosts
                .iter()
                .filter_map(|h| {
                    self.world
                        .record(h)
                        .map(|r| (h.clone(), r.gsa_datasets.clone()))
                })
                .collect();
            CaseStudy::new(&self.world, &self.world.gsa_hosts, tags)
        })
    }

    /// The South Korea Government24 case study, scanned and indexed on
    /// first use, as [`Env::usa`] is.
    pub fn rok(&self) -> &CaseStudy {
        self.rok
            .get_or_init(|| CaseStudy::new(&self.world, &self.world.rok_hosts, BTreeMap::new()))
    }
}

/// The world `GOVSCAN_SEED` / `GOVSCAN_SCALE` name, with the documented
/// defaults: the paper-scale config at that seed, at that scale.
pub fn env_params() -> WorldConfig {
    let seed: u64 = std::env::var("GOVSCAN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x60765CA9);
    let mut config = WorldConfig::paper_scale(seed);
    config.scale = parse_scale(std::env::var("GOVSCAN_SCALE").ok().as_deref(), 0.2);
    config
}

/// A `GOVSCAN_SCALE` value as a world scale: the number it parses to if
/// that is finite and positive, else `default`. Zero or a negative scale
/// would build a near-empty world, and an infinite one would size every
/// population at `u64::MAX`.
pub fn parse_scale(value: Option<&str>, default: f64) -> f64 {
    value
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .unwrap_or(default)
}

/// Format a paper-vs-measured row.
pub fn cmp_row(label: &str, paper: &str, measured: &str) -> String {
    format!("  {label:<48} paper={paper:<18} measured={measured}\n")
}

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn scale_falls_back_unless_finite_and_positive() {
        for value in [
            Some("0"),
            Some("-1"),
            Some("nan"),
            Some("inf"),
            Some("abc"),
            None,
        ] {
            assert_eq!(parse_scale(value, 0.2), 0.2, "{value:?}");
        }
        assert_eq!(parse_scale(Some("0.5"), 0.2), 0.5);
    }
}
