//! Country report: the Figure 1 choropleth layers as a per-country
//! table, with the paper's China / USA / South-Korea call-outs.
//!
//! ```sh
//! cargo run --release -p govscan-repro --example country_report [cc ...]
//! ```
//!
//! Pass ISO country codes to print only those rows (e.g.
//! `country_report cn us kr bd`).

use govscan_analysis::aggregate::AggregateIndex;
use govscan_analysis::choropleth;
use govscan_scanner::StudyPipeline;
use govscan_worldgen::{World, WorldConfig};

fn main() {
    let wanted: Vec<String> = std::env::args()
        .skip(1)
        .map(|s| s.to_ascii_lowercase())
        .collect();

    let world = World::generate(&WorldConfig::small(42));
    let study = StudyPipeline::new(&world).run();
    let fig = choropleth::build_from_index(&AggregateIndex::build(&study.scan));

    if wanted.is_empty() {
        println!("{}", fig.render());
    } else {
        println!(
            "{:<8} {:>7} {:>8} {:>8} {:>8}",
            "country", "hosts", "avail%", "https%", "valid%"
        );
        for cc in &wanted {
            match fig.get(cc) {
                Some(row) => println!(
                    "{:<8} {:>7} {:>7.1}% {:>7.1}% {:>7.1}%",
                    cc,
                    row.total,
                    row.availability().percent(),
                    row.https_share().percent(),
                    row.valid_share().percent()
                ),
                None => println!("{cc:<8} (no hosts measured)"),
            }
        }
    }

    // The paper's §7.1.2 China observation, reproduced.
    if let Some(cn) = fig.get("cn") {
        println!(
            "\nChina: ~{:.0}% reachable (paper ~50%), {:.0}% of https sites valid (paper 11%)",
            cn.availability().percent(),
            cn.valid_share().percent()
        );
    }
}
