//! Aggregation-layer invariants: the whole index-fed report set costs
//! exactly one dataset walk, and the index keeps record order where a
//! figure plots it.

use std::sync::OnceLock;

use govscan_analysis::aggregate::AggregateIndex;
use govscan_analysis::{
    choropleth, compare, ct, durations, ev, hosting, hsts, issuers, keys, reuse, table2,
};
use govscan_scanner::{StudyOutput, StudyPipeline};
use govscan_worldgen::{World, WorldConfig};

fn study() -> &'static (World, StudyOutput) {
    static STUDY: OnceLock<(World, StudyOutput)> = OnceLock::new();
    STUDY.get_or_init(|| {
        let world = World::generate(&WorldConfig::small(0x51E5));
        let output = StudyPipeline::new(&world).run();
        (world, output)
    })
}

#[test]
fn index_fed_report_set_costs_one_walk() {
    let (world, out) = study();
    // A private clone: the shared fixture's walk counter is bumped by
    // sibling tests running concurrently, this one's is ours alone.
    let scan = out.scan.clone();
    let before = scan.walks();
    let index = AggregateIndex::build(&scan);
    let _ = table2::build_from_index(&index);
    let _ = choropleth::build_from_index(&index);
    let _ = issuers::build_from_index(&index, 40);
    let _ = keys::build_from_index(&index);
    let _ = durations::build_from_index(&index);
    let _ = hosting::build_all_from_index(&index);
    let _ = hsts::build_from_index(&index);
    let _ = ev::build_from_index(&index);
    let _ = ct::build_from_index(&index, world.cadb.ct_log(), &world.net);
    let _ = reuse::build_from_index(&index);
    // The gov comparison group uses indexed lookups, not a walk.
    let _ = compare::gov_group_from_scan(&scan, &world.tranco);
    assert_eq!(scan.walks() - before, 1, "one walk for the whole report");
}

#[test]
fn durations_points_keep_record_order() {
    let (_, out) = study();
    let scan = &out.scan;
    let indexed = durations::build_from_index(&AggregateIndex::build(scan));
    // The plotted population: available hosts attempting https that
    // presented a certificate, in record order.
    let expected: Vec<_> = scan
        .https_attempting()
        .filter_map(|r| {
            r.https
                .meta()
                .map(|m| (m.not_before, m.not_after, r.https.is_valid()))
        })
        .collect();
    assert!(!expected.is_empty(), "fixture world has certificates");
    let points: Vec<_> = indexed
        .points
        .iter()
        .map(|p| (p.issued, p.expires, p.valid))
        .collect();
    assert_eq!(points, expected);
}
