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
//! - `GOVSCAN_SCALE` — world scale (default 0.2; `1.0` = paper scale).
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
use govscan_worldgen::{World, WorldConfig};

/// The shared experiment environment: one generated world plus the study
/// pipeline output, with case-study scans computed lazily.
pub struct Env {
    /// The generated world (mutable: the disclosure experiment mutates it).
    pub world: World,
    /// The worldwide study output.
    pub study: StudyOutput,
    /// Single-pass aggregation over the worldwide scan, built on first
    /// use and shared by every experiment via [`Env::index`].
    aggregate: OnceLock<AggregateIndex>,
    usa_scan: Option<ScanDataset>,
    rok_scan: Option<ScanDataset>,
}

impl Env {
    /// Build from `GOVSCAN_SCALE` / `GOVSCAN_SEED`.
    pub fn load() -> Env {
        let (seed, scale) = env_params();
        Self::with(seed, scale)
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
            aggregate: OnceLock::from(index),
            usa_scan: None,
            rok_scan: None,
        }
    }

    /// The shared aggregation index over the worldwide scan. The first
    /// caller pays the one dataset walk; every later experiment reads
    /// the same index, so the full report costs exactly one walk.
    pub fn index(&self) -> &AggregateIndex {
        self.aggregate
            .get_or_init(|| AggregateIndex::build(&self.study.scan))
    }

    /// The USA GSA case-study scan (computed once).
    pub fn usa_scan(&mut self) -> &ScanDataset {
        if self.usa_scan.is_none() {
            let scan = StudyPipeline::new(&self.world).scan_list(&self.world.gsa_hosts);
            self.usa_scan = Some(scan);
        }
        self.usa_scan.as_ref().expect("just set")
    }

    /// The South Korea Government24 case-study scan (computed once).
    pub fn rok_scan(&mut self) -> &ScanDataset {
        if self.rok_scan.is_none() {
            let scan = StudyPipeline::new(&self.world).scan_list(&self.world.rok_hosts);
            self.rok_scan = Some(scan);
        }
        self.rok_scan.as_ref().expect("just set")
    }

    /// GSA hostname → dataset tags (input metadata for Table A.1/A.2).
    pub fn gsa_tags(&self) -> BTreeMap<String, Vec<govscan_worldgen::usa::UsaDataset>> {
        self.world
            .gsa_hosts
            .iter()
            .filter_map(|h| {
                self.world
                    .record(h)
                    .map(|r| (h.clone(), r.gsa_datasets.clone()))
            })
            .collect()
    }
}

/// `(seed, scale)` from `GOVSCAN_SEED` / `GOVSCAN_SCALE`, with the
/// documented defaults.
pub fn env_params() -> (u64, f64) {
    let scale: f64 = std::env::var("GOVSCAN_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2);
    let seed: u64 = std::env::var("GOVSCAN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x60765CA9);
    (seed, scale)
}

/// Format a paper-vs-measured row.
pub fn cmp_row(label: &str, paper: &str, measured: &str) -> String {
    format!("  {label:<48} paper={paper:<18} measured={measured}\n")
}
