//! The binaries' usage errors: an argument a binary does not take, an
//! extra operand and a flag left without its value exit with status 2
//! before any world is built, as `pipeline`'s do. A mistyped `monitor
//! --epoch 1`, a bare `--epochs` and a bare `--out-dir` once each ran
//! the default twelve epochs and exited 0; `snapshot scan --out x.snap
//! --bogus` once ran the whole study and wrote the archive, and
//! `snapshot info x.snap --whatever` and `repro table2_worldwide --bogus`
//! each exited 0.
//!
//! `monitor --json` prints the trend series through the daemon's JSON
//! encoder, as the points `/trends` serves.

use std::process::Command;

use govscan_serve::json::{self, Json};

#[test]
fn unknown_arguments_and_flags_without_values_are_usage_errors() {
    let monitor = env!("CARGO_BIN_EXE_monitor");
    let snapshot = env!("CARGO_BIN_EXE_snapshot");
    let repro = env!("CARGO_BIN_EXE_repro");
    let archive = std::env::temp_dir().join(format!("govscan-usage-{}.snap", std::process::id()));
    let snap = archive.to_str().expect("a UTF-8 temp path");
    let rows: [(&str, &[&str], &str); 10] = [
        (monitor, &["--epoch", "1"], "usage: monitor"),
        (monitor, &["--epochs"], "usage: monitor"),
        (monitor, &["--out-dir"], "usage: monitor"),
        (
            snapshot,
            &["scan", "--out", snap, "--bogus"],
            "usage: snapshot",
        ),
        (
            snapshot,
            &["scan", "--out", snap, "--out", snap],
            "usage: snapshot",
        ),
        (
            snapshot,
            &["rescan", "--out-before", snap],
            "usage: snapshot",
        ),
        (snapshot, &["info", snap, "--whatever"], "usage: snapshot"),
        (snapshot, &["diff", snap, snap, snap], "usage: snapshot"),
        (repro, &["table2_worldwide", "--bogus"], "usage: repro"),
        (repro, &["all", "table2_worldwide"], "usage: repro"),
    ];
    for (binary, args, usage) in rows {
        let out = Command::new(binary)
            .args(args)
            // Small, should a regression start a run after all.
            .env("GOVSCAN_SCALE", "0.01")
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{binary} {args:?}: {stderr}");
        assert!(stderr.starts_with(usage), "{binary} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{binary} {args:?} printed a report");
        assert!(!archive.exists(), "{binary} {args:?} wrote an archive");
    }
}

#[test]
fn monitor_json_prints_the_trends_points() {
    let out = Command::new(env!("CARGO_BIN_EXE_monitor"))
        .args(["--epochs", "1", "--json"])
        .env("GOVSCAN_SCALE", "0.01")
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "monitor --epochs 1 --json: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let series =
        json::parse(stdout.trim_end()).unwrap_or_else(|e| panic!("bad JSON ({e}): {stdout}"));
    let points = series.as_array().expect("a JSON array");
    let labels: Vec<_> = points
        .iter()
        .map(|p| p.get("label").and_then(Json::as_str))
        .collect();
    assert_eq!(labels, [Some("epoch 0"), Some("epoch 1")]);
    for point in points {
        let Json::Object(pairs) = point else {
            panic!("a point is an object: {point:?}");
        };
        let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "label",
                "scan_time",
                "hosts",
                "available",
                "attempting",
                "valid",
                "validity",
                "hsts",
                "errors",
                "by_country",
            ]
        );
    }
}
