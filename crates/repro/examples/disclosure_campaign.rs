//! Disclosure campaign: notify registrars about invalid hosts, let the
//! remediation model act for two months, and re-scan to measure the
//! effect — the §7.2 arc end to end.
//!
//! ```sh
//! cargo run --release -p govscan-repro --example disclosure_campaign
//! ```

use govscan_disclosure::{campaign, remediation, run_rescan};
use govscan_scanner::StudyPipeline;
use govscan_worldgen::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut world = World::generate(&WorldConfig::small(42));
    let study = StudyPipeline::new(&world).run();
    println!(
        "original scan: {} hosts, {} invalid https",
        study.scan.len(),
        study.scan.invalid().count()
    );

    // §7.2: email every country's registrar a vulnerability report.
    let mut rng = StdRng::seed_from_u64(world.config.seed ^ 0xD15C);
    let camp = campaign::run(&study.scan, &mut rng, world.config.seed);
    println!("\n== campaign (Figure 13) ==\n{}", camp.render());

    // Two months pass: webmasters fix, remove, and revive hosts.
    let unreachable: Vec<String> = study
        .scan
        .records()
        .iter()
        .filter(|r| !r.available)
        .map(|r| r.hostname.clone())
        .collect();
    let plan = remediation::apply(&mut world, &study.scan, &unreachable, &camp, &mut rng);
    println!(
        "remediation: {} fixed, {} removed, {} revived, {} upgraded from http",
        plan.fixed.len(),
        plan.removed.len(),
        plan.revived_valid.len() + plan.revived_invalid.len(),
        plan.upgraded.len()
    );

    // §7.2.2: the follow-up scan.
    let report = run_rescan(&world, &study.scan, &unreachable);
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
