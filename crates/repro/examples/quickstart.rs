//! Quickstart: generate a small synthetic Internet, run the full §4
//! measurement pipeline against it, and print the headline numbers.
//!
//! ```sh
//! cargo run --release -p govscan-repro --example quickstart
//! ```

use govscan_analysis::aggregate::AggregateIndex;
use govscan_analysis::table2;
use govscan_scanner::StudyPipeline;
use govscan_worldgen::{World, WorldConfig};

fn main() {
    // A deterministic ~1.5% world (≈2,700 government hosts). The same
    // seed always produces byte-identical results.
    let world = World::generate(&WorldConfig::small(42));
    println!(
        "generated world: {} government hosts, {} dialable hosts, {} CAs",
        world.gov_hosts.len(),
        world.net.len(),
        world.cadb.len()
    );

    // Run the paper's methodology: seed merge → MTurk expansion →
    // 7-level crawl → whitelist → full TLS scan + validation.
    let study = StudyPipeline::new(&world).run();
    println!(
        "pipeline: {} seeds → {} measured hostnames ({} available)",
        study.seed_list.len(),
        study.final_list.len(),
        study.scan.available().count()
    );

    // Table 2: the worldwide https breakdown.
    let t2 = table2::build_from_index(&AggregateIndex::build(&study.scan));
    println!("\n{}", t2.render());
    println!(
        "headline: {:.1}% of government sites do not use valid https (paper: ≈72%)",
        t2.not_valid_share().percent()
    );
}
