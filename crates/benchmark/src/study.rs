//! `study`: the paper report — `govscan_repro::Env::with`, then every
//! entry of `experiments::all()`, which is what `run_all` does.

use std::time::Instant;

use govscan_analysis::aggregate::AggregateIndex;
use govscan_repro::{experiments, Env};
use govscan_scanner::StudyPipeline;
use govscan_store::Snapshot;
use govscan_worldgen::{World, WorldConfig};

use crate::common::{log_ms, mean, median, report_rss, secs, sha256_hex, Outcome, Params};
use crate::references;
use crate::spec::LAYERS;
use crate::trace::{SpanId, Tracer};

pub const SCALE: f64 = 0.05;
const SMOKE_SCALE: f64 = 0.02;

fn scale(p: &Params) -> f64 {
    if p.smoke {
        SMOKE_SCALE
    } else {
        SCALE
    }
}

/// One experiment's output: its short name, the SHA-256 of its text
/// (see [`normalized`]) and the text's length.
#[derive(Debug, Clone, PartialEq)]
struct Output {
    name: &'static str,
    hash: String,
    bytes: usize,
}

/// The experiment's text as it is hashed. `phishing_twins` renders its
/// table rows in `SimNet::hostnames()` order, which is `HashMap` order
/// and differs between runs (and past 30 twins even picks different
/// rows), so its table is left out: only the summary line and the
/// paper-vs-measured rows are hashed.
fn normalized(name: &str, text: &str) -> String {
    if name != "phishing_twins" {
        return text.to_owned();
    }
    text.lines()
        .filter(|l| l.starts_with("lookalike domains:") || l.starts_with("  "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The span name of an experiment: its `analysis.exp.*` layer metric
/// without the `_s` suffix, or a catch-all that the metric-set check
/// reports when `experiments::all()` and the declared metrics drift.
fn span_name(name: &str) -> &'static str {
    LAYERS
        .iter()
        .map(|l| l.name)
        .find(|n| {
            n.strip_prefix("analysis.exp.")
                .and_then(|n| n.strip_suffix("_s"))
                == Some(name)
        })
        .map_or("analysis.exp.undeclared", |n| &n[..n.len() - 2])
}

/// Every experiment, in registry order, optionally each in a span.
fn report(env: &mut Env, trace: Option<(&Tracer, SpanId)>) -> Vec<Output> {
    experiments::all()
        .into_iter()
        .map(|(label, run)| {
            let name = label.split_whitespace().next().unwrap_or(label);
            let text = match trace {
                Some((t, parent)) => t.time(span_name(name), Some(parent), || run(env)),
                None => run(env),
            };
            Output {
                name,
                hash: sha256_hex(normalized(name, &text).as_bytes()),
                bytes: text.len(),
            }
        })
        .collect()
}

pub fn run(p: &Params, traced: bool) -> Outcome {
    if traced {
        return run_traced(p);
    }
    let mut o = Outcome::default();
    // Each repetition sets up its own `Env`: the disclosure experiment
    // mutates the world, so one cannot serve two reports.
    let reps = p.repeat(
        3,
        || (),
        |()| {
            let t = Instant::now();
            let mut env = Env::with(p.seed, scale(p));
            let setup = secs(t);
            (setup, env.study.scan.len(), report(&mut env, None))
        },
    );
    o.attempted = reps.len() as u64;
    report_rss(&mut o, &reps);
    let setups: Vec<f64> = reps.iter().map(|r| r.value.0).collect();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    log_ms("study repetitions", &walls);
    log_ms("study set-ups", &setups);
    o.metric("setup_s", median(&setups));
    o.metric("latency_ms", mean(&walls) * 1e3);
    o.metric("throughput", reps[0].value.1 as f64 / mean(&walls));
    let outputs: Vec<Vec<Output>> = reps.into_iter().map(|r| r.value.2).collect();
    o.agree("repetitions agree", &outputs);
    let first = &outputs[0];
    o.metric(
        "output_bytes",
        first.iter().map(|e| e.bytes).sum::<usize>() as f64,
    );
    check_references(p, &mut o, first);
    o
}

/// At the default seed, compare each experiment's hash with the recorded
/// one.
fn check_references(p: &Params, o: &mut Outcome, outputs: &[Output]) {
    if p.references_apply() {
        let refs = references::get();
        for e in outputs {
            let want = refs.experiment(e.name).unwrap_or("(none recorded)");
            o.equal(&format!("reference {}", e.name), e.hash.as_str(), want);
        }
    }
}

fn run_traced(p: &Params) -> Outcome {
    let mut o = Outcome {
        attempted: 2,
        ..Outcome::default()
    };
    let t = Instant::now();
    let mut env = Env::with(p.seed, scale(p));
    let untraced = report(&mut env, None);
    let untraced_s = secs(t);
    drop(env);
    check_references(p, &mut o, &untraced);

    let tracer = Tracer::new();
    let root = tracer.open("study.report", None);
    let mut env = tracer.time("repro.env", Some(root), || Env::with(p.seed, scale(p)));
    let traced = report(&mut env, Some((&tracer, root)));
    tracer.close(root);
    o.agree("traced outputs", &[untraced, traced.clone()]);

    // `Env::with` has no constructor from parts, so its layers are timed
    // by a second pass through the same public calls, which must rebuild
    // the same scan and index.
    let mirror = tracer.open("study.env_mirror", None);
    let m = Some(mirror);
    let mut config = WorldConfig::paper_scale(p.seed);
    config.scale = scale(p);
    let world = tracer.time("worldgen.generate", m, || World::generate(&config));
    let pipeline = StudyPipeline::new(&world);
    let discovery = tracer.time("scanner.discover", m, || pipeline.discover());
    let scan = tracer.time("scanner.scan", m, || {
        let mut scan = pipeline.scan_list(&discovery.final_list);
        pipeline.annotate_whitelist(&mut scan);
        scan
    });
    let index = tracer.time("analysis.index", m, || AggregateIndex::build(&scan));
    tracer.close(mirror);
    let digest = |s| {
        Snapshot::digest_of(s)
            .map(|d| d.to_hex())
            .unwrap_or_default()
    };
    o.equal(
        "mirrored scan",
        digest(&scan).as_str(),
        digest(&env.study.scan).as_str(),
    );
    o.check(
        "mirrored index",
        index == *env.index(),
        "AggregateIndex equality",
    );

    o.traced(&tracer, root, untraced_s);
    o.busy_s(&[
        "worldgen.generate",
        "scanner.discover",
        "scanner.scan",
        "analysis.index",
    ]);
    let experiments: Vec<&str> = traced.iter().map(|e| span_name(e.name)).collect();
    o.busy_s(&experiments);
    o
}
