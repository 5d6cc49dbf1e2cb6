//! `govscan-benchmark`: the repository's one benchmark.
//!
//! ```text
//! govscan-benchmark run --workload <stream|monitor|serve|study|all>
//!                       [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! govscan-benchmark manifest        print BENCHMARK.json
//! ```
//!
//! `run` measures each workload in a child process of its own, so the
//! peak RSS it reports belongs to that workload alone. It prints one
//! JSON line of machine facts, one JSON line per metric (name, value,
//! unit), and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, measured untraced through the program's real
//! entry points; with `--trace 1` they are the per-layer ones of a
//! traced run that mirrors each entry point from this crate's code, and
//! the spans go to `bench-out/spans-<workload>.json` next to the
//! executable. The exit code is non-zero when any correctness check
//! fails. See README.md.

mod common;
mod monitor;
mod probe;
mod references;
mod serve;
mod spec;
mod stream;
mod study;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use govscan_serve::json::{self, Json};

use common::{Outcome, Params};
use spec::{DEFAULT_SEED, END_TO_END, LAYERS, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: govscan-benchmark run --workload <stream|monitor|serve|study|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
                     govscan-benchmark manifest";

/// Parsed `run` / `child` flags.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Child only: the scratch directory.
    work: Option<PathBuf>,
}

/// Parse the flags of `run`, or of `child` (which also takes `--work`).
fn parse(args: &[String], child: bool) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        work: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !a.seconds.is_finite() || a.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--work" if child => a.work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(a)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |msg: &str| {
        eprintln!("govscan-benchmark: {msg}\n{USAGE}");
        ExitCode::from(2)
    };
    let result = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        Some(cmd @ ("run" | "child")) => match parse(&args[1..], cmd == "child") {
            Err(msg) => return usage(&msg),
            Ok(a) if cmd == "run" => run(&a),
            Ok(a) => child(&a),
        },
        _ => return usage("expected a subcommand"),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("govscan-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Where the executable lives: scratch and spans go under it, inside
/// the build directory of the checkout.
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.parent().map_or_else(PathBuf::new, Path::to_path_buf))
}

fn spans_path(workload: &str) -> Result<PathBuf, String> {
    Ok(exe_dir()?
        .join("bench-out")
        .join(format!("spans-{workload}.json")))
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => read(r).map(|s| s.trim().to_owned()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        }),
        None => Some(head.to_owned()),
    };
    match hash {
        Some(h) if h.len() >= 12 => h[..12].to_owned(),
        _ => "unknown".to_owned(),
    }
}

/// A child's report: checks, counts and measured metrics.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run(a: &Args) -> Result<bool, String> {
    let workloads: Vec<&str> = if a.workload == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        match WORKLOADS.iter().find(|w| w.name == a.workload) {
            Some(w) => vec![w.name],
            None => return Err(format!("unknown workload {:?}", a.workload)),
        }
    };
    let threads = cores();
    println!(
        "{}",
        Json::object([(
            "machine",
            Json::object([
                ("cores", Json::from(threads)),
                ("commit", Json::from(commit())),
                ("seed", Json::from(a.seed)),
                ("threads", Json::from(threads)),
                ("smoke", Json::from(a.smoke)),
                ("trace", Json::from(a.trace)),
                ("seconds", Json::from(a.seconds)),
            ])
        )])
        .encode()
    );

    let mut total = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    for &w in &workloads {
        let r = measure(a, w)?;
        for (name, value) in &r.metrics {
            let unit = spec::unit_of(name).unwrap_or("");
            println!(
                "{}",
                Json::object([
                    ("workload", Json::from(w)),
                    ("metric", Json::from(name.as_str())),
                    ("value", Json::from(*value)),
                    ("unit", Json::from(unit)),
                ])
                .encode()
            );
            let key = if workloads.len() == 1 {
                name.clone()
            } else {
                format!("{w}/{name}")
            };
            total.metrics.insert(key, *value);
        }
        total.correct &= r.correct;
        total.attempted += r.attempted;
        total.failed += r.failed;
    }

    let metrics = total
        .metrics
        .iter()
        .map(|(k, v)| {
            let name = k.rsplit('/').next().unwrap_or(k);
            let unit = spec::unit_of(name).unwrap_or("");
            (
                k.clone(),
                Json::object([("value", Json::from(*v)), ("unit", Json::from(unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        Json::object([
            ("correct", Json::from(total.correct)),
            ("attempted", Json::from(total.attempted.max(1))),
            ("failed", Json::from(total.failed)),
            ("metrics", Json::Object(metrics)),
        ])
        .encode()
    );
    Ok(total.correct)
}

/// Run one workload in child processes and check the metrics it
/// reports against the declared set.
fn measure(a: &Args, workload: &str) -> Result<Report, String> {
    let work = exe_dir()?
        .join("bench-work")
        .join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let spawn = |as_workload: &str| -> Result<Report, String> {
        let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
        cmd.arg("child")
            .args(["--workload", as_workload])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--work")
            .arg(&work)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if a.smoke {
            cmd.arg("--smoke");
        }
        // Every program-side pool runs at the core count, and no other
        // setting of the program's reaches the child.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("GOVSCAN_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("GOVSCAN_THREADS", cores().to_string());
        let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let parsed = json::parse(last).map_err(|e| {
            format!(
                "{as_workload}: child exited with {} and no result ({e})",
                out.status
            )
        })?;
        Ok(read_report(&parsed))
    };
    // `serve` reads the chain the monitor writes: write it first, in a
    // process of its own.
    let result = match workload {
        "serve" => spawn("serve-chain").and_then(|chain| {
            if chain.correct {
                spawn(workload)
            } else {
                Ok(chain)
            }
        }),
        _ => spawn(workload),
    };
    std::fs::remove_dir_all(&work).ok();
    let mut r = result?;

    // The workload must measure exactly the metrics declared for it:
    // every end-to-end one, or the layer metrics whose `moves` name it.
    let expected: Vec<&str> = if a.trace {
        LAYERS
            .iter()
            .filter(|l| l.measured_on(workload))
            .map(|l| l.name)
            .collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let missing: Vec<&str> = expected
        .iter()
        .copied()
        .filter(|n| !r.metrics.contains_key(*n))
        .collect();
    let extra: Vec<&String> = r
        .metrics
        .keys()
        .filter(|k| !expected.contains(&k.as_str()))
        .collect();
    if !missing.is_empty() || !extra.is_empty() {
        eprintln!("FAIL {workload}: metrics missing {missing:?}, not declared for it {extra:?}");
        r.correct = false;
    }
    if a.trace {
        // Every other layer: the workload never enters it.
        for l in LAYERS {
            r.metrics.entry(l.name.to_owned()).or_insert(0.0);
        }
    }
    Ok(r)
}

fn read_report(j: &Json) -> Report {
    let num = |v: &Json| match v {
        Json::Int(i) => *i as f64,
        Json::Float(f) => *f,
        _ => f64::NAN,
    };
    let metrics = match j.get("metrics") {
        Some(Json::Object(pairs)) => pairs.iter().map(|(k, v)| (k.clone(), num(v))).collect(),
        _ => BTreeMap::new(),
    };
    Report {
        correct: matches!(j.get("correct"), Some(Json::Bool(true))),
        attempted: j.get("attempted").and_then(Json::as_i64).unwrap_or(0) as u64,
        failed: j.get("failed").and_then(Json::as_i64).unwrap_or(0) as u64,
        metrics,
    }
}

/// One workload in this process; prints its report as one JSON line.
fn child(a: &Args) -> Result<bool, String> {
    let work = a.work.clone().ok_or("child needs --work")?;
    let p = Params {
        seed: a.seed,
        seconds: a.seconds,
        smoke: a.smoke,
        threads: cores(),
        work,
    };
    let o: Outcome = match a.workload.as_str() {
        "stream" => stream::run(&p, a.trace),
        "monitor" => monitor::run(&p, a.trace),
        "serve-chain" => serve::prepare(&p),
        "serve" => serve::run(&p, a.trace),
        "study" => study::run(&p, a.trace),
        w => return Err(format!("unknown workload {w:?}")),
    };
    for c in &o.checks {
        let mark = if c.ok { "ok  " } else { "FAIL" };
        eprintln!("{mark} {} {}: {}", a.workload, c.name, c.detail);
    }
    if !o.spans.is_empty() {
        let path = spans_path(&a.workload)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, trace::to_json(&a.workload, &o.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans: {}", path.display());
        eprintln!(
            "{:<32} {:>8} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, (total, self_ns, count)) in trace::by_name(&o.spans) {
            eprintln!(
                "{name:<32} {count:>8} {:>12.6} {:>12.6}",
                total as f64 / 1e9,
                self_ns as f64 / 1e9
            );
        }
    }
    let correct = o.checks.iter().all(|c| c.ok) && o.failed == 0;
    let metrics = o
        .metrics
        .iter()
        .map(|(k, v)| (k.clone(), Json::from(*v)))
        .collect();
    println!(
        "{}",
        Json::object([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(o.attempted)),
            ("failed", Json::from(o.failed)),
            ("metrics", Json::Object(metrics)),
        ])
        .encode()
    );
    Ok(correct)
}
