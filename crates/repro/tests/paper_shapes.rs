//! Integration tests asserting the paper's headline *shapes* — who wins,
//! by roughly what factor, where the crossovers fall — over a single
//! shared small world. Exact counts scale with the world; orderings and
//! ratios must hold.

use std::sync::OnceLock;

use govscan_analysis as analysis;
use govscan_analysis::aggregate::AggregateIndex;
use govscan_scanner::{GovFilter, StudyOutput, StudyPipeline};
use govscan_worldgen::{World, WorldConfig};

static STUDY: OnceLock<(World, StudyOutput)> = OnceLock::new();
static INDEX: OnceLock<AggregateIndex> = OnceLock::new();

fn study() -> &'static (World, StudyOutput) {
    STUDY.get_or_init(|| {
        let world = World::generate(&WorldConfig::small(0x5AFE));
        let out = StudyPipeline::new(&world).run();
        (world, out)
    })
}

/// The aggregation index over the shared study's worldwide scan.
fn index() -> &'static AggregateIndex {
    INDEX.get_or_init(|| AggregateIndex::build(&study().1.scan))
}

#[test]
fn headline_most_gov_sites_lack_valid_https() {
    // Abstract: "greater than 70% of the total government websites
    // measured worldwide do not use valid https".
    let t2 = analysis::table2::build_from_index(index());
    let share = t2.not_valid_share().fraction();
    assert!((0.62..0.82).contains(&share), "not-valid share {share}");
}

#[test]
fn table2_marginals() {
    let t2 = analysis::table2::build_from_index(index());
    let https = t2.https_share().fraction();
    assert!(
        (0.30..0.50).contains(&https),
        "https {https} (paper 39.33%)"
    );
    let valid = t2.valid_share().fraction();
    assert!(
        (0.60..0.82).contains(&valid),
        "valid {valid} (paper 71.41%)"
    );
}

#[test]
fn lets_encrypt_is_the_global_leader_but_not_everywhere() {
    let world = &study().0;
    let world_fig = analysis::issuers::build_from_index(index(), 40);
    assert_eq!(
        world_fig.leader().unwrap().issuer,
        "Let's Encrypt Authority X3",
        "§5.2: LE leads globally"
    );
    // …but the ROK list is led by something else (§6.2.1: Sectigo/NPKI).
    let rok_scan = StudyPipeline::new(world).scan_list(&world.rok_hosts);
    let rok_fig = analysis::issuers::build_from_index(&AggregateIndex::build(&rok_scan), 40);
    assert_ne!(
        rok_fig.leader().unwrap().issuer,
        "Let's Encrypt Authority X3",
        "§5.2: the leading CA differs by country"
    );
}

#[test]
fn usa_and_rok_case_study_ordering() {
    let (world, _) = study();
    let pipeline = StudyPipeline::new(world);
    let usa_scan = pipeline.scan_list(&world.gsa_hosts);
    let rok_scan = pipeline.scan_list(&world.rok_hosts);
    let tags = world
        .gsa_hosts
        .iter()
        .filter_map(|h| world.record(h).map(|r| (h.clone(), r.gsa_datasets.clone())))
        .collect();
    let usa = analysis::casestudy::build_usa(&usa_scan, &tags);
    let rok = analysis::casestudy::build_rok(&rok_scan);
    let u = usa.overall.headline_valid_rate().fraction();
    let k = rok.headline_valid_rate().fraction();
    // Paper: 81.12% vs 37.95% — a gap of ≈2×.
    assert!(u > 0.7, "usa {u}");
    assert!(k < 0.5, "rok {k}");
    assert!(u / k > 1.6, "usa/rok ratio {}", u / k);
}

#[test]
fn cloud_beats_private_hosting_on_validity() {
    let fig = analysis::hosting::build_all_from_index(index());
    let cloud = fig.valid_share("cloud");
    let private = fig.valid_share("private");
    // Paper §5.4: ~60% vs ~30%.
    assert!(cloud > private + 0.10, "cloud {cloud} vs private {private}");
    assert!(fig.cloud_cdn_share() < 0.35, "gov sites mostly private");
}

#[test]
fn gov_sites_underperform_nongov_at_equal_rank() {
    use rand::SeedableRng;
    let (world, _) = study();
    let pipeline = StudyPipeline::new(world);
    let ctx = pipeline.context();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let gov = analysis::compare::gov_group(&ctx, &world.tranco);
    let matched = analysis::compare::nongov_rank_matched(&ctx, &world.tranco, 20, &mut rng);
    assert!(
        matched.valid_share() > gov.valid_share() + 0.08,
        "nongov {} vs gov {}",
        matched.valid_share(),
        gov.valid_share()
    );
}

#[test]
fn validity_declines_with_rank() {
    let (world, _) = study();
    let pipeline = StudyPipeline::new(world);
    let ctx = pipeline.context();
    let top = analysis::compare::nongov_top(&ctx, &world.tranco, 150);
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(6)
    };
    let uniform = analysis::compare::nongov_uniform(&ctx, &world.tranco, 400, &mut rng);
    assert!(
        top.valid_share() > uniform.valid_share(),
        "top {} vs uniform {}",
        top.valid_share(),
        uniform.valid_share()
    );
}

#[test]
fn china_slice_matches_7_1_2() {
    let map = analysis::choropleth::build_from_index(index());
    let cn = map.get("cn").expect("china measured");
    assert!(
        cn.availability().fraction() < 0.65,
        "china mostly firewalled"
    );
    assert!(
        cn.valid_share().fraction() < 0.25,
        "china https rarely valid"
    );
}

#[test]
fn reuse_and_caa_shapes() {
    let (_, out) = study();
    let reuse = analysis::reuse::build_from_index(index());
    assert!(reuse.cross_country().count() >= 1);
    assert!(!reuse.valid_cross_country_reuse());
    let caa = analysis::caa::build(&out.scan, |issuer| {
        govscan_worldgen::cadb::CA_PROFILES
            .iter()
            .find(|p| p.label == issuer)
            .map(|p| p.caa_domain.to_string())
    });
    assert!(caa.adoption().fraction() < 0.06, "CAA rare");
    assert_eq!(caa.well_formed, caa.with_caa, "published CAA 100% valid");
}

#[test]
fn filter_rejects_every_phishing_twin_in_the_final_list() {
    let (_, out) = study();
    let filter = GovFilter::standard();
    for r in out.scan.records() {
        assert!(
            filter.is_gov(&r.hostname) || r.country.is_some(),
            "{} slipped into the dataset without curation",
            r.hostname
        );
        assert!(
            !r.hostname.contains("gov.us") || filter.is_gov(&r.hostname),
            "lookalike {} must not be in the gov dataset",
            r.hostname
        );
    }
}

#[test]
fn ev_is_rare_and_imperfect() {
    let ev = analysis::ev::build_from_index(index());
    assert!(ev.adoption().fraction() < 0.12, "EV minority");
    assert!(ev.invalid_share() > 0.02, "paid EV still fails");
}

#[test]
fn crawl_growth_figure_shape() {
    let (_, out) = study();
    let growth = analysis::crawlstats::build(&out.crawl);
    assert!(growth.declines_after_peak());
    assert!(growth.total_growth() > 2.0);
}
