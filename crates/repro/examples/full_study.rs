//! The full study, end to end: every stage of the paper in one run —
//! dataset assembly, the worldwide scan, both case studies, and the
//! disclosure arc — printing one summary block per section of the paper.
//!
//! ```sh
//! cargo run --release -p govscan-repro --example full_study           # ~1.5% scale
//! GOVSCAN_SCALE=0.2 cargo run --release -p govscan-repro --example full_study
//! ```

use govscan_analysis::{casestudy, choropleth, hosting, issuers, table2};
use govscan_disclosure::{rescan_from_datasets, run_arc};
use govscan_repro::{parse_scale, Env};

fn main() {
    let scale = parse_scale(std::env::var("GOVSCAN_SCALE").ok().as_deref(), 0.015);
    // The world, the study pipeline and one aggregation index, which
    // serves every worldwide figure below.
    let mut env = Env::with(42, scale);
    let study = &env.study;
    let index = env.index();

    // §4: methodology.
    println!("== §4 dataset ==");
    println!(
        "seeds {} → +MTurk {} → crawl {} gov hostnames → +whitelist = {} measured",
        study.seed_list.len(),
        study.mturk.new_hostnames.len(),
        study.crawl.government_hostnames.len(),
        study.final_list.len()
    );

    // §5.1: worldwide adoption.
    let t2 = table2::build_from_index(index);
    println!("\n== §5.1 worldwide (Table 2) ==");
    println!(
        "https {:.2}% | valid-of-https {:.2}% | not-valid {:.2}%",
        t2.https_share().percent(),
        t2.valid_share().percent(),
        t2.not_valid_share().percent()
    );

    // §5.2: certificate authorities.
    let cas = issuers::build_from_index(index, 5);
    println!("\n== §5.2 top CAs (Figure 2) ==");
    for row in &cas.rows {
        println!(
            "  {:<50} {:>5} hosts, {:>5.1}% invalid",
            row.issuer,
            row.total(),
            row.invalid_share() * 100.0
        );
    }

    // §5.4: hosting.
    let host_fig = hosting::build_all_from_index(index);
    println!("\n== §5.4 hosting (Figure 5) ==");
    println!(
        "cloud+cdn share {:.1}%; valid: cloud {:.0}% vs private {:.0}%",
        host_fig.cloud_cdn_share() * 100.0,
        host_fig.valid_share("cloud") * 100.0,
        host_fig.valid_share("private") * 100.0
    );

    // §6: case studies.
    let (usa, rok) = (env.usa(), env.rok());
    let usa = casestudy::build_usa(&usa.index, &usa.tags);
    let rok = casestudy::build_rok(&rok.index);
    println!("\n== §6 case studies ==");
    println!(
        "USA (GSA): {:.2}% valid (paper 81.12%) | ROK (Government24): {:.2}% valid (paper 37.95%)",
        usa.overall.headline_valid_rate().percent(),
        rok.headline_valid_rate().percent()
    );

    // Figure 1 call-out.
    let map = choropleth::build_from_index(index);
    if let Some(cn) = map.get("cn") {
        println!(
            "China: {:.0}% reachable, {:.0}% of https valid (paper: ~50%, 11%)",
            cn.availability().percent(),
            cn.valid_share().percent()
        );
    }

    // §7.2: disclosure.
    let arc = run_arc(&mut env.world, &env.study.scan);
    let rescan = rescan_from_datasets(&env.study.scan, &arc.followup, &arc.unreachable);
    println!("\n== §7.2 disclosure ==");
    println!(
        "notified {} countries ({:.0}% supportive); improvement {:.1}% strict / {:.1}% optimistic",
        arc.campaign.notified(),
        arc.campaign.supportive_share() * 100.0,
        rescan.strict_improvement() * 100.0,
        rescan.optimistic_improvement() * 100.0
    );
}
