//! # govscan-disclosure
//!
//! The responsible-disclosure arc of the study (§7.2): per-country
//! vulnerability reports emailed to government domain registrars, the
//! response pattern by country population rank (Figure 13), a
//! remediation model (webmasters fixing certificates, sites being taken
//! down, unreachable sites coming back), and the two-months-later
//! effectiveness re-scan (§7.2.2) — which runs the *real* scanner again
//! over the mutated simulated Internet. [`run_arc`] runs the whole arc.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod registrar;
pub mod remediation;
pub mod rescan;

pub use campaign::{Campaign, CountryOutcome, ResponseKind};
pub use remediation::RemediationPlan;
pub use rescan::{
    followup_scan, rescan_from_datasets, rescan_from_snapshots, unreachable_pool, RescanReport,
};

use govscan_scanner::ScanDataset;
use govscan_worldgen::World;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the §7.2 arc produces, in the order it produces it.
#[derive(Debug)]
pub struct DisclosureArc {
    /// The previously-unreachable pool ([`unreachable_pool`]).
    pub unreachable: Vec<String>,
    /// The registrar campaign (Figure 13).
    pub campaign: Campaign,
    /// The two months of remediation applied to the world.
    pub plan: RemediationPlan,
    /// The sixty-day follow-up scan ([`followup_scan`]).
    pub followup: ScanDataset,
}

/// Run the §7.2 arc over `world` and its study scan `scan`, on one RNG
/// stream seeded `world seed ^ 0xD15C`. The world is left remediated;
/// the §7.2.2 report is [`rescan_from_datasets`] over `scan` and the
/// arc's follow-up and pool.
pub fn run_arc(world: &mut World, scan: &ScanDataset) -> DisclosureArc {
    let unreachable = unreachable_pool(scan);
    let seed = world.config.seed;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C);
    let campaign = campaign::run(scan, &mut rng, seed);
    let plan = remediation::apply(world, scan, &unreachable, &campaign, &mut rng);
    let followup = followup_scan(world, scan, &unreachable);
    DisclosureArc {
        unreachable,
        campaign,
        plan,
        followup,
    }
}
