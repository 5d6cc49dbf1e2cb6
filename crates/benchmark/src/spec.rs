//! What the benchmark declares: its workloads, the end-to-end metrics
//! every workload reports, and the per-layer metrics of the traced runs.
//!
//! This table is the single source of `BENCHMARK.json` at the repository
//! root: `govscan-benchmark manifest` renders it, and the schema test
//! requires the committed file to equal that rendering byte for byte.
//! The `moves` column, which says which end-to-end metric on which
//! workload a layer metric should move, has no place in the manifest's
//! fixed schema, so it lives only here.

use govscan_serve::json::Json;

/// Seconds one run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 20;

/// The workload seed used when none is given, and the seed the
/// default-seed reference values in `references.json` were recorded at.
pub const DEFAULT_SEED: u64 = 0x6076_5CA9;

/// Direction of improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a name and why it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "stream",
        why: "Streamed generate-scan-archive at scale 3 (549k hosts): worldgen realize, the probe, pki validation and store append do the work; serve and analysis do none.",
    },
    Workload {
        name: "monitor",
        why: "12 weekly monitor epochs at scale 0.1: world evolution, incremental rescan selection and snapshot plus delta encode every epoch; write-heavy.",
    },
    Workload {
        name: "serve",
        why: "Open- and closed-loop HTTP load over the monitor's 13-epoch chain: lazy decode, delta apply, index and report builds, routing; the only archive reader.",
    },
    Workload {
        name: "study",
        why: "The paper report at scale 0.05, as run_all does it: World::generate, discovery, the scan and all 23 experiments; store and serve do nothing.",
    },
];

/// An end-to-end metric. Every workload reports every one of these.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput",
        unit: "items/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "output_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// A per-layer metric of the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `(end-to-end metric, workload)` pairs this metric should move.
    /// The workloads named here are exactly the ones that measure it;
    /// every other workload reports 0 because it never enters the layer.
    pub moves: &'static [(&'static str, &'static str)],
}

impl Layer {
    /// Whether `workload` measures this metric.
    pub fn measured_on(&self, workload: &str) -> bool {
        self.moves.iter().any(|&(_, w)| w == workload)
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

// The end-to-end targets, by workload.
const STREAM_TPUT: (&str, &str) = ("throughput", "stream");
const MONITOR_LAT: (&str, &str) = ("latency_ms", "monitor");
const SERVE_LAT: (&str, &str) = ("latency_ms", "serve");
const SERVE_TPUT: (&str, &str) = ("throughput", "serve");
const STUDY_LAT: (&str, &str) = ("latency_ms", "study");

pub const LAYERS: &[Layer] = &[
    // worldgen
    layer("worldgen.plan_s", "s", Lower, &[STREAM_TPUT]),
    layer("worldgen.realize_s", "s", Lower, &[STREAM_TPUT]),
    layer("worldgen.shard_max_s", "s", Lower, &[STREAM_TPUT]),
    layer(
        "worldgen.monitor_plan_s",
        "s",
        Lower,
        &[("setup_s", "monitor")],
    ),
    layer("worldgen.evolve_s", "s", Lower, &[MONITOR_LAT]),
    layer("worldgen.evolve_growth", "ratio", Lower, &[MONITOR_LAT]),
    layer("worldgen.realize_subset_s", "s", Lower, &[MONITOR_LAT]),
    layer("worldgen.generate_s", "s", Lower, &[STUDY_LAT]),
    // net: the probe-step mirror over the sample shards
    layer("net.dns_s", "s", Lower, &[STREAM_TPUT, MONITOR_LAT]),
    layer("net.http_s", "s", Lower, &[STREAM_TPUT, MONITOR_LAT]),
    layer("net.tcp_s", "s", Lower, &[STREAM_TPUT, MONITOR_LAT]),
    layer("net.tls_s", "s", Lower, &[STREAM_TPUT, MONITOR_LAT]),
    layer("net.caa_s", "s", Lower, &[STREAM_TPUT, MONITOR_LAT]),
    layer("net.dns_attempts", "count", Lower, &[STREAM_TPUT]),
    layer("net.unavailable_frac", "fraction", Lower, &[STREAM_TPUT]),
    layer(
        "net.unresponsive_time_frac",
        "fraction",
        Lower,
        &[STREAM_TPUT],
    ),
    // pki
    layer("pki.validate_s", "s", Lower, &[STREAM_TPUT, MONITOR_LAT]),
    layer(
        "pki.verdict_hits",
        "count",
        Higher,
        &[STREAM_TPUT, MONITOR_LAT],
    ),
    layer(
        "pki.verdict_misses",
        "count",
        Lower,
        &[STREAM_TPUT, MONITOR_LAT],
    ),
    layer(
        "pki.verdict_hit_ratio",
        "ratio",
        Higher,
        &[STREAM_TPUT, MONITOR_LAT],
    ),
    // scanner
    layer(
        "scanner.scan_s",
        "s",
        Lower,
        &[STREAM_TPUT, MONITOR_LAT, STUDY_LAT],
    ),
    layer("scanner.us_per_host", "us", Lower, &[STREAM_TPUT]),
    layer("scanner.classify_s", "s", Lower, &[STREAM_TPUT]),
    layer("scanner.plan_rescan_s", "s", Lower, &[MONITOR_LAT]),
    layer("scanner.splice_s", "s", Lower, &[MONITOR_LAT]),
    layer("scanner.merge_s", "s", Lower, &[MONITOR_LAT]),
    layer(
        "scanner.probe_frac.window",
        "fraction",
        Lower,
        &[MONITOR_LAT],
    ),
    layer(
        "scanner.probe_frac.steady",
        "fraction",
        Lower,
        &[MONITOR_LAT],
    ),
    layer("scanner.probed", "count", Lower, &[MONITOR_LAT]),
    layer("scanner.spliced", "count", Higher, &[MONITOR_LAT]),
    layer("scanner.reason.new", "count", Lower, &[MONITOR_LAT]),
    layer(
        "scanner.reason.prior_broken",
        "count",
        Lower,
        &[MONITOR_LAT],
    ),
    layer("scanner.reason.expiring", "count", Lower, &[MONITOR_LAT]),
    layer("scanner.reason.disclosed", "count", Lower, &[MONITOR_LAT]),
    layer(
        "scanner.reason.ancestor_changed",
        "count",
        Lower,
        &[MONITOR_LAT],
    ),
    layer("scanner.discover_s", "s", Lower, &[STUDY_LAT]),
    // store
    layer("store.append_s", "s", Lower, &[STREAM_TPUT]),
    layer("store.finish_s", "s", Lower, &[STREAM_TPUT]),
    layer("store.open_digest_s", "s", Lower, &[STREAM_TPUT]),
    layer(
        "store.pooled_bytes_peak",
        "bytes",
        Lower,
        &[("peak_rss_mb", "stream")],
    ),
    layer("store.encode_s", "s", Lower, &[MONITOR_LAT]),
    layer("store.delta_encode_s", "s", Lower, &[MONITOR_LAT]),
    layer("store.from_bytes_s", "s", Lower, &[MONITOR_LAT]),
    layer("store.digest_s", "s", Lower, &[MONITOR_LAT]),
    layer("store.open_chain_s", "s", Lower, &[MONITOR_LAT]),
    layer(
        "store.delta_bytes_mean",
        "bytes",
        Lower,
        &[("output_bytes", "monitor")],
    ),
    layer("store.chain_load_s", "s", Lower, &[("setup_s", "serve")]),
    layer("store.delta_apply_s", "s", Lower, &[("setup_s", "serve")]),
    layer(
        "store.decoded_sections",
        "count",
        Lower,
        &[("setup_s", "serve")],
    ),
    layer(
        "store.datasets_built",
        "count",
        Lower,
        &[("setup_s", "serve")],
    ),
    // exec: the stream mirror drives govscan_exec::pipeline::run itself
    layer("exec.consumer_wait_s", "s", Lower, &[STREAM_TPUT]),
    layer(
        "exec.producer_busy_frac",
        "fraction",
        Higher,
        &[STREAM_TPUT],
    ),
    layer("exec.shard_skew", "ratio", Lower, &[STREAM_TPUT]),
    // analysis
    layer(
        "analysis.index_s",
        "s",
        Lower,
        &[STUDY_LAT, ("setup_s", "serve")],
    ),
    layer("analysis.trend_point_s", "s", Lower, &[MONITOR_LAT]),
    layer("analysis.exp.table1_overlap_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.table2_worldwide_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.fig1_choropleth_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.fig2_issuers_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.fig3_durations_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.fig4_keys_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.fig5_hosting_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.fig6_fig7_compare_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.usa_case_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.rok_case_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.case_contrast_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.china_slice_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.reuse_keys_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.caa_records_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.crawler_growth_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.interlink_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.ev_issuers_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.phishing_twins_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.ct_coverage_s", "s", Lower, &[STUDY_LAT]),
    layer("analysis.exp.hsts_adoption_s", "s", Lower, &[STUDY_LAT]),
    layer(
        "analysis.exp.ablation_trust_stores_s",
        "s",
        Lower,
        &[STUDY_LAT],
    ),
    layer(
        "analysis.exp.ablation_probe_config_s",
        "s",
        Lower,
        &[STUDY_LAT],
    ),
    layer("analysis.exp.disclosure_s", "s", Lower, &[STUDY_LAT]),
    // serve: in-process on the warm state over the workload's own mix
    layer("serve.parse_us", "us", Lower, &[SERVE_LAT, SERVE_TPUT]),
    layer(
        "serve.respond_us.hosts",
        "us",
        Lower,
        &[SERVE_LAT, SERVE_TPUT],
    ),
    layer(
        "serve.respond_us.countries",
        "us",
        Lower,
        &[SERVE_LAT, SERVE_TPUT],
    ),
    layer(
        "serve.respond_us.table2",
        "us",
        Lower,
        &[SERVE_LAT, SERVE_TPUT],
    ),
    layer(
        "serve.respond_us.trends",
        "us",
        Lower,
        &[SERVE_LAT, SERVE_TPUT],
    ),
    layer(
        "serve.respond_us.diff",
        "us",
        Lower,
        &[SERVE_LAT, SERVE_TPUT],
    ),
    layer("serve.write_us", "us", Lower, &[SERVE_LAT, SERVE_TPUT]),
    layer("serve.transport_us", "us", Lower, &[SERVE_LAT]),
    layer("serve.cache_hits", "count", Higher, &[SERVE_TPUT]),
    layer("serve.cache_misses", "count", Lower, &[SERVE_TPUT]),
    layer("serve.cache_hit_ratio", "ratio", Higher, &[SERVE_TPUT]),
    layer("serve.warm_s", "s", Lower, &[("setup_s", "serve")]),
    // serve ladder diagnostics: open loop at fixed rates, ungated
    layer("serve.sustained_rps", "req/s", Higher, &[SERVE_TPUT]),
    layer("serve.p50_ms.r1000", "ms", Lower, &[SERVE_LAT]),
    layer("serve.p50_ms.r2000", "ms", Lower, &[SERVE_LAT]),
    layer("serve.p50_ms.r4000", "ms", Lower, &[SERVE_LAT]),
    layer("serve.p50_ms.r8000", "ms", Lower, &[SERVE_LAT]),
    layer("serve.p50_ms.r16000", "ms", Lower, &[SERVE_LAT]),
    layer("serve.p99_ms.r1000", "ms", Lower, &[SERVE_LAT]),
    layer("serve.p99_ms.r2000", "ms", Lower, &[SERVE_LAT]),
    layer("serve.p99_ms.r4000", "ms", Lower, &[SERVE_LAT]),
    layer("serve.p99_ms.r8000", "ms", Lower, &[SERVE_LAT]),
    layer("serve.p99_ms.r16000", "ms", Lower, &[SERVE_LAT]),
    layer("serve.late_frac.r1000", "fraction", Lower, &[SERVE_LAT]),
    layer("serve.late_frac.r2000", "fraction", Lower, &[SERVE_LAT]),
    layer("serve.late_frac.r4000", "fraction", Lower, &[SERVE_LAT]),
    layer("serve.late_frac.r8000", "fraction", Lower, &[SERVE_LAT]),
    layer("serve.late_frac.r16000", "fraction", Lower, &[SERVE_LAT]),
    // trace: what the traced run itself cost and how well its spans close
    layer("trace.overhead_frac", "fraction", Lower, ALL_LATENCY),
    layer("trace.closure_gap", "fraction", Lower, ALL_LATENCY),
];

const ALL_LATENCY: &[(&str, &str)] = &[
    ("latency_ms", "stream"),
    ("latency_ms", "monitor"),
    ("latency_ms", "serve"),
    ("latency_ms", "study"),
];

/// Whether spans called `name` time a declared layer: `<name>_s` is a
/// layer metric. Only these count towards a traced run's closure.
pub fn is_layer_span(name: &str) -> bool {
    LAYERS
        .iter()
        .any(|l| l.name.strip_suffix("_s") == Some(name))
}

/// Look up a declared metric's unit (end-to-end or layer).
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| LAYERS.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"-q\", \
         \"-p\", \"govscan-benchmark\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<Json>| -> String {
        items
            .iter()
            .map(|j| format!("    {}", pretty_object(j)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::object([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            Json::object([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.as_str())),
                ("bound", Json::from(m.bound)),
            ])
        })
        .collect();
    let layers = LAYERS
        .iter()
        .map(|m| {
            Json::object([
                ("name", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("better", Json::from(m.better.as_str())),
            ])
        })
        .collect();
    out.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", rows(workloads)));
    out.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", rows(e2e)));
    out.push_str(&format!("  \"per_layer\": [\n{}\n  ]\n", rows(layers)));
    out.push_str("}\n");
    out
}

/// A flat object on one line with a space after each separator, so the
/// committed manifest stays readable.
fn pretty_object(j: &Json) -> String {
    match j {
        Json::Object(pairs) => {
            let inner: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", Json::from(k.as_str()).encode(), v.encode()))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        other => other.encode(),
    }
}
