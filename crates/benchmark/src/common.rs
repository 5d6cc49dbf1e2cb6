//! What every workload shares: run parameters, the outcome it reports,
//! and small statistics helpers.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use govscan_crypto::{Digest, Sha256};

use crate::spec;
use crate::trace::{self, Span, Tracer};

/// One workload run's parameters, as the orchestrator passes them.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// How long the untraced measurement repeats its operation.
    pub seconds: f64,
    /// Smallest sizes, one repetition: exercises every path quickly.
    pub smoke: bool,
    /// Program-side thread count (the machine's cores).
    pub threads: usize,
    /// Scratch directory for archives and chains; removed afterwards.
    pub work: PathBuf,
}

impl Params {
    /// Whether the default-seed reference values apply to this run.
    pub fn references_apply(&self) -> bool {
        self.seed == crate::spec::DEFAULT_SEED && !self.smoke
    }

    /// Repetitions of the measured operation: at least `min` (one in
    /// smoke mode), then more while the next one is expected to finish
    /// inside `seconds`. Before each, `prepare` runs untimed (it counts
    /// against `seconds`); its result is handed to the repetition. Each
    /// repetition is timed, and its own peak RSS measured.
    pub fn repeat<S, T>(
        &self,
        min: usize,
        mut prepare: impl FnMut() -> S,
        mut rep: impl FnMut(S) -> T,
    ) -> Vec<Rep<T>> {
        let min = if self.smoke { 1 } else { min };
        let start = Instant::now();
        let mut out = Vec::new();
        let mut last = Duration::ZERO;
        while out.len() < min
            || (!self.smoke && (start.elapsed() + last).as_secs_f64() <= self.seconds)
        {
            let input = prepare();
            reset_peak_rss();
            let t = Instant::now();
            let value = rep(input);
            last = t.elapsed();
            out.push(Rep {
                value,
                wall: last.as_secs_f64(),
                rss_mb: peak_rss_mb(),
            });
        }
        out
    }
}

/// Shortest batch of set-ups: a set-up shorter than this repeats until
/// its batch has taken this long.
const SET_UP_BATCH_S: f64 = 0.1;

/// Set-up wall times gathered over a run, for the median `setup_s`.
///
/// On the 2-core VM this was sized on, memory-heavy timings alternate
/// between a fast and a slow phase (about 1.6x apart) lasting a second
/// or so, so set-ups timed back to back within one second all land in
/// one phase. Workloads that repeat their operation take one batch
/// before each repetition instead, which spreads the set-ups over the
/// whole run like the repetitions.
#[derive(Default)]
pub struct SetUps {
    times: Vec<f64>,
}

impl SetUps {
    /// Set up at least `min` times (once in smoke mode) and until the
    /// batch has taken [`SET_UP_BATCH_S`], timing each; returns the last
    /// set-up. Each earlier one is dropped before the next starts,
    /// outside the timing.
    pub fn batch<T>(&mut self, p: &Params, min: usize, mut set_up: impl FnMut() -> T) -> T {
        let start = Instant::now();
        let mut last = None;
        let mut n = 0;
        while n == 0 || (!p.smoke && (n < min || secs(start) < SET_UP_BATCH_S)) {
            drop(last.take());
            let t = Instant::now();
            last = Some(set_up());
            self.times.push(secs(t));
            n += 1;
        }
        last.expect("set up at least once")
    }

    /// Report the median as `setup_s`.
    pub fn report(&self, o: &mut Outcome) {
        log_ms("set-ups", &self.times);
        o.metric("setup_s", median(&self.times));
    }
}

/// The largest share of a traced run's wall time its layer spans may
/// leave uncovered.
const MAX_CLOSURE_GAP: f64 = 0.10;

/// One repetition: what it returned, its wall time in seconds and its
/// peak resident memory.
pub struct Rep<T> {
    pub value: T,
    pub wall: f64,
    pub rss_mb: Option<f64>,
}

/// A named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run reports back to the orchestrator.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Spans of the traced run, written to the spans file.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Check that every item equals the first ("the repetitions agree").
    pub fn agree<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, items: &[T]) {
        let ok = items.windows(2).all(|w| w[0] == w[1]);
        let detail = if ok {
            format!("{} repetitions", items.len())
        } else {
            format!("{items:?}")
        };
        self.check(name, ok, detail);
    }

    /// Check `got == want` with both in the detail.
    pub fn equal<T: PartialEq + std::fmt::Display>(&mut self, name: &str, got: T, want: T) {
        let detail = format!("got {got}, want {want}");
        self.check(name, got == want, detail);
    }

    /// Record the traced run: its spans, the tracing overhead against the
    /// untraced wall time, and how well the root's spans close. Returns
    /// the closure gap.
    pub fn traced(&mut self, tracer: &Tracer, root: usize, untraced_s: f64) -> f64 {
        let spans = tracer.spans();
        let traced_s = spans[root].duration_ns() as f64 / 1e9;
        let gap = trace::closure_gap(&spans, root, spec::is_layer_span);
        self.metric("trace.overhead_frac", traced_s / untraced_s.max(1e-9) - 1.0);
        self.metric("trace.closure_gap", gap);
        self.spans = spans;
        gap
    }

    /// The check the stream and monitor mirrors must pass: spans of
    /// declared layers cover all but 10% of the traced wall time.
    pub fn check_closure(&mut self, gap: f64) {
        self.check(
            "spans close",
            gap <= MAX_CLOSURE_GAP,
            format!("{:.2}% of the traced wall time is in no layer", gap * 100.0),
        );
    }

    /// For each span name, the metric `<name>_s`: the summed duration of
    /// every span so called, in seconds.
    pub fn busy_s(&mut self, spans: &[&str]) {
        for &span in spans {
            let v = self.span_s(span);
            self.metric(format!("{span}_s"), v);
        }
    }

    /// Summed duration in seconds of every span called `name`.
    pub fn span_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SHA-256 of `data`, hex.
pub fn sha256_hex(data: &[u8]) -> String {
    govscan_crypto::hex::encode(&Sha256::digest(data))
}

/// Mean of `xs`; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// This process's peak resident set in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    govscan_repro::pipeline::peak_rss_kb().map(|kb| kb as f64 / 1024.0)
}

/// Reset the peak resident set to the current one (Linux
/// `/proc/self/clear_refs`), so the next reading is the peak of what
/// runs in between. Where that is unsupported the reading stays the
/// process-lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Print wall times (given in seconds) to stderr in milliseconds, for
/// reading the spread inside one run.
pub fn log_ms(what: &str, secs: &[f64]) {
    let ms: Vec<String> = secs.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    eprintln!("{what} (ms): [{}]", ms.join(", "));
}

/// Report the first repetition's peak as `peak_rss_mb`, failing a check
/// if the platform does not expose it. Later repetitions run on a heap
/// that earlier ones fragmented, so their peaks creep up by chance; the
/// first is what one run of the operation costs.
pub fn report_rss<T>(out: &mut Outcome, reps: &[Rep<T>]) {
    let peaks: Vec<String> = reps
        .iter()
        .filter_map(|r| r.rss_mb.map(|mb| format!("{mb:.1}")))
        .collect();
    eprintln!("repetition peaks (MB): [{}]", peaks.join(", "));
    report_peak(out, reps.first().and_then(|r| r.rss_mb));
}

/// Report `peak` as `peak_rss_mb`, or fail a check without one.
pub fn report_peak(out: &mut Outcome, peak: Option<f64>) {
    match peak {
        Some(mb) => out.metric("peak_rss_mb", mb),
        None => out.check("peak_rss", false, "VmHWM unavailable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
