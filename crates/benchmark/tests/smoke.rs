//! The benchmark checks itself: the committed `BENCHMARK.json` is the
//! rendering of the crate's metric table and keeps the manifest schema,
//! and a smoke run of the real command at the smallest sizes prints
//! exactly the declared metrics, with their units, and passes every
//! correctness check.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use govscan_serve::json::{self, Json};

#[path = "../src/spec.rs"]
#[allow(dead_code)]
mod spec;

const MANIFEST: &str = include_str!("../../../BENCHMARK.json");

fn keys(j: &Json) -> BTreeSet<&str> {
    match j {
        Json::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => BTreeSet::new(),
    }
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing or not a string in {}", j.encode()))
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn manifest_is_the_rendered_metric_table() {
    assert_eq!(
        MANIFEST,
        spec::manifest(),
        "BENCHMARK.json is stale: regenerate it with `govscan-benchmark manifest`"
    );
}

#[test]
fn manifest_keeps_the_schema() {
    let m = json::parse(MANIFEST).expect("BENCHMARK.json is JSON");
    assert_eq!(
        keys(&m),
        BTreeSet::from([
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ])
    );
    let list = |k: &str| m.get(k).and_then(Json::as_array).expect(k).to_vec();
    let (workloads, e2e, layers) = (list("workloads"), list("end_to_end"), list("per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let seconds = m
        .get("run_seconds")
        .and_then(Json::as_i64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));

    let mut names = BTreeSet::new();
    for w in &workloads {
        assert_eq!(keys(w), BTreeSet::from(["name", "why"]));
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        assert!(valid_name(str_of(w, "name")));
        assert!(names.insert(str_of(w, "name").to_owned()), "duplicate name");
    }
    for e in &e2e {
        assert_eq!(keys(e), BTreeSet::from(["better", "bound", "name", "unit"]));
        let bound = match e.get("bound") {
            Some(Json::Float(b)) => *b,
            other => panic!("bound {other:?}"),
        };
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    for l in &layers {
        assert_eq!(keys(l), BTreeSet::from(["better", "name", "unit"]));
    }
    for metric in e2e.iter().chain(&layers) {
        let name = str_of(metric, "name");
        assert!(valid_name(name), "name {name:?}");
        assert!(names.insert(name.to_owned()), "duplicate name {name}");
        assert!(valid_unit(str_of(metric, "unit")), "unit of {name}");
        assert!(matches!(str_of(metric, "better"), "lower" | "higher"));
    }
    let setup = e2e
        .iter()
        .find(|e| str_of(e, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(str_of(setup, "unit"), "s");
    assert_eq!(str_of(setup, "better"), "lower");
}

#[test]
fn every_layer_metric_moves_a_declared_metric_on_a_declared_workload() {
    for l in spec::LAYERS {
        assert!(!l.moves.is_empty(), "{} moves nothing", l.name);
        for &(metric, workload) in l.moves {
            assert!(
                spec::END_TO_END.iter().any(|e| e.name == metric),
                "{}: no end-to-end metric {metric}",
                l.name
            );
            assert!(
                spec::WORKLOADS.iter().any(|w| w.name == workload),
                "{}: no workload {workload}",
                l.name
            );
        }
    }
}

/// `(workload, metric) → unit` of every metric line a run printed, and
/// its final result object.
fn run_smoke(trace: &str) -> (BTreeMap<(String, String), String>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_govscan-benchmark"))
        .args(["run", "--workload", "all", "--smoke", "--seed", "7"])
        .args(["--trace", trace])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run (trace {trace}) failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut printed = BTreeMap::new();
    let mut last = None;
    for line in stdout.lines() {
        let j = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        if let Some(metric) = j.get("metric").and_then(Json::as_str) {
            let workload = str_of(&j, "workload").to_owned();
            printed.insert((workload, metric.to_owned()), str_of(&j, "unit").to_owned());
        }
        last = Some(j);
    }
    (printed, last.expect("a result line"))
}

#[test]
fn smoke_run_prints_every_declared_metric_and_passes_its_checks() {
    for trace in ["0", "1"] {
        let (printed, result) = run_smoke(trace);
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(true)),
            "trace {trace}"
        );
        assert!(result.get("attempted").and_then(Json::as_i64) >= Some(1));
        assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
        let declared: BTreeMap<&str, &str> = if trace == "0" {
            spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            spec::LAYERS.iter().map(|m| (m.name, m.unit)).collect()
        };
        for w in spec::WORKLOADS {
            let got: BTreeMap<&str, &str> = printed
                .iter()
                .filter(|((wl, _), _)| wl == w.name)
                .map(|((_, m), u)| (m.as_str(), u.as_str()))
                .collect();
            assert_eq!(got, declared, "{} with --trace {trace}", w.name);
        }
    }
}
