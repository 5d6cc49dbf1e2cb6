//! Figure 13 from the archive: the §7.2.2 report produced from two
//! snapshot *files* must be byte-identical to the one produced live
//! from the in-memory world — same campaign, same remediation, same
//! sixty-day follow-up, but replayed with no `World` in scope.

use govscan_disclosure::{rescan, rescan_from_datasets, run_arc};
use govscan_scanner::StudyPipeline;
use govscan_store::Snapshot;
use govscan_worldgen::{World, WorldConfig};

#[test]
fn figure13_from_snapshot_files_matches_live_rescan() {
    // The live §7.2 arc, through the one function `repro`'s disclosure
    // experiment runs it through.
    let mut world = World::generate(&WorldConfig::small(0xE5CA));
    let out = StudyPipeline::new(&world).run();
    let arc = run_arc(&mut world, &out.scan);
    let live = rescan_from_datasets(&out.scan, &arc.followup, &arc.unreachable);

    // Archive both sides of the comparison.
    let dir = std::env::temp_dir().join(format!("govscan-rescan-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let before_path = dir.join("original.snap");
    let after_path = dir.join("followup.snap");
    Snapshot::write_file(&before_path, &out.scan).unwrap();
    Snapshot::write_file(&after_path, &arc.followup).unwrap();

    // Replay from the files alone. Drop the world to make "no live
    // World" a compile-checked property of this block, not a comment.
    drop(world);
    let replayed = rescan::rescan_from_snapshots(&before_path, &after_path).unwrap();

    assert_eq!(
        live.render(),
        replayed.render(),
        "snapshot-backed Figure 13 must render byte-identically"
    );
    assert_eq!(live.previously_invalid, replayed.previously_invalid);
    assert_eq!(live.now_valid, replayed.now_valid);
    assert_eq!(live.now_unreachable, replayed.now_unreachable);
    assert_eq!(live.still_invalid, replayed.still_invalid);
    assert_eq!(live.previously_unreachable, replayed.previously_unreachable);
    assert_eq!(live.per_country, replayed.per_country);

    std::fs::remove_dir_all(&dir).ok();
}
