//! Certificate forensics: the §5.3.3 key-reuse hunt plus the §7.3.2
//! lookalike-domain detector — the security-facing analyses of the study.
//!
//! ```sh
//! cargo run --release -p govscan-repro --example cert_forensics
//! ```

use govscan_analysis::aggregate::AggregateIndex;
use govscan_analysis::{phishing, reuse};
use govscan_scanner::{GovFilter, StudyPipeline};
use govscan_worldgen::{World, WorldConfig};

fn main() {
    let world = World::generate(&WorldConfig::small(42));
    let pipeline = StudyPipeline::new(&world);
    let study = pipeline.run();

    // --- §5.3.3: public keys shared across hostnames and governments. ---
    let report = reuse::build_from_index(&AggregateIndex::build(&study.scan));
    println!("== key / certificate reuse (§5.3.3) ==");
    println!("{}", report.render());
    for cluster in report.cross_country().take(5) {
        println!(
            "cluster '{}' ({} issuers) spans {} countries over {} hosts (e.g. {})",
            cluster.issuers.first().map(String::as_str).unwrap_or("-"),
            cluster.issuers.len(),
            cluster.countries.len(),
            cluster.hosts.len(),
            cluster.hosts.first().map(String::as_str).unwrap_or("-")
        );
    }
    println!(
        "valid cross-country reuse found: {} (paper found none)\n",
        report.valid_cross_country_reuse()
    );

    // --- §7.3.2: lookalike domains with valid certificates. ---
    let ctx = pipeline.context();
    let filter = GovFilter::standard();
    let candidates: Vec<String> = world.net.hostnames().map(str::to_string).collect();
    let collapsed: std::collections::HashSet<String> = study
        .scan
        .records()
        .iter()
        .map(|r| r.hostname.replace('.', ""))
        .collect();
    let twins = phishing::detect(
        &ctx,
        &filter,
        candidates.iter().map(|s| s.as_str()),
        &collapsed,
    );
    println!("== lookalike domains (§7.3.2) ==");
    println!("{}", twins.render());
}
