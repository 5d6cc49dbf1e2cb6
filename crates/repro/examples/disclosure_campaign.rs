//! Disclosure campaign: notify registrars about invalid hosts, let the
//! remediation model act for two months, and re-scan to measure the
//! effect — the §7.2 arc end to end.
//!
//! ```sh
//! cargo run --release -p govscan-repro --example disclosure_campaign
//! ```

use govscan_disclosure::{rescan_from_datasets, run_arc};
use govscan_scanner::StudyPipeline;
use govscan_worldgen::{World, WorldConfig};

fn main() {
    let mut world = World::generate(&WorldConfig::small(42));
    let study = StudyPipeline::new(&world).run();
    println!(
        "original scan: {} hosts, {} invalid https",
        study.scan.len(),
        study.scan.invalid().count()
    );

    // §7.2: email every country's registrar a vulnerability report; two
    // months pass (webmasters fix, remove and revive hosts); re-scan the
    // previously invalid and unreachable pools.
    let arc = run_arc(&mut world, &study.scan);
    println!("\n== campaign (Figure 13) ==\n{}", arc.campaign.render());
    let plan = &arc.plan;
    println!(
        "remediation: {} fixed, {} removed, {} revived, {} upgraded from http",
        plan.fixed.len(),
        plan.removed.len(),
        plan.revived_valid.len() + plan.revived_invalid.len(),
        plan.upgraded.len()
    );

    // §7.2.2: the follow-up scan against the original.
    let report = rescan_from_datasets(&study.scan, &arc.followup, &arc.unreachable);
    println!(
        "\n== effectiveness re-scan (§7.2.2) ==\n{}",
        report.render()
    );
    println!(
        "paper: strict improvement 8.3%, optimistic 18.7% — measured {:.1}% / {:.1}%",
        report.strict_improvement() * 100.0,
        report.optimistic_improvement() * 100.0
    );
}
