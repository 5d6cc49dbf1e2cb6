//! `serve`: the query daemon (`govscan_serve::Server`) over the 13-epoch
//! chain the `monitor` workload writes, driven over loopback TCP.
//!
//! The load generator is open-loop for latency: request `i` is due at
//! `i / rate` seconds, each is timed from when it was due (so a stall
//! charges every request queued behind it), and the generator reports
//! how late it sent. It is closed-loop for throughput: each client sends
//! its next request when the previous answer arrives, and throughput is
//! clients ÷ median round trip. Both use one connection per request,
//! because the server closes each, and no more client threads than the
//! machine has cores. The untraced run alternates the two loops in
//! short slices, so a slow phase of a shared machine is spread over both
//! and its medians rather than taking one of them whole.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use govscan_monitor::{Monitor, MonitorConfig};
use govscan_scanner::ScanRecord;
use govscan_serve::http::{self, Request, Response};
use govscan_serve::{Archive, ChainSpec, ServeState, Server};
use govscan_store::{Delta, Snapshot, StoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    mean, median, peak_rss_mb, quantile, ratio, report_peak, reset_peak_rss, secs, Outcome, Params,
    SetUps,
};
use crate::monitor;
use crate::trace::{SpanId, Tracer};

/// Open-loop rate of the latency measurement.
const RATE: f64 = 4000.0;
const SMOKE_RATE: f64 = 500.0;
/// The rate ladder of the traced run.
const LADDER: [u32; 5] = [1000, 2000, 4000, 8000, 16000];
/// `sustained_rps` limits: p99 and how far past its scheduled end a
/// step's last answer may land.
const P99_LIMIT_MS: f64 = 10.0;
const BACKLOG_LIMIT_MS: f64 = 10.0;
/// A request sent this long after it was due counts as late.
const LATE_MS: f64 = 1.0;
/// Slices the untraced run alternates between the open and the closed
/// loop, so a slow phase of the shared machine falls on both.
const SLICES: usize = 10;
/// Distinct hosts sampled from each queried epoch.
const HOST_SAMPLE: usize = 512;

fn chain_config(p: &Params) -> MonitorConfig {
    monitor::config(p, &p.work.join("chain"))
}

/// Write the chain this workload serves: one untimed monitor run, in its
/// own process so its memory is not charged to the server.
pub fn prepare(p: &Params) -> Outcome {
    let mut o = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    if let Err(e) = Monitor::new(chain_config(p)).run() {
        o.failed = 1;
        o.check("chain written", false, e.to_string());
    }
    o
}

fn spec(p: &Params) -> ChainSpec {
    let cfg = chain_config(p);
    let dir = cfg
        .out_dir
        .as_deref()
        .expect("the monitor config writes its chain");
    let (base, deltas) = monitor::chain_paths(dir, cfg.epochs);
    ChainSpec { base, deltas }
}

fn body_hash(body: &str) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

fn request(path: &str) -> Request {
    Request::parse_request_line(&format!("GET {path} HTTP/1.1")).expect("generated paths parse")
}

fn last_epoch(state: &ServeState) -> &Archive {
    state.archives().last().expect("a loaded chain has a base")
}

/// The report endpoints, every country drill-down and one host lookup
/// per queried epoch: after these, every report the mix asks for is
/// cached and every queried epoch's pools and name index are decoded.
fn warm_paths(state: &ServeState) -> Vec<String> {
    let (first, last) = (&state.archives()[0], last_epoch(state));
    let mut paths = vec![
        "/table2".to_owned(),
        "/trends".to_owned(),
        format!("/diff?from={}&to={}", first.label(), last.label()),
    ];
    if let Ok(index) = first.index() {
        paths.extend(index.by_country.keys().map(|cc| format!("/countries/{cc}")));
    }
    for a in [first, last] {
        if let Ok(Some(r)) = a.snapshot().host(0) {
            paths.push(format!("/hosts/{}?snapshot={}", r.hostname, a.label()));
        }
    }
    paths
}

/// Load the chain and warm it; returns the state and the warm-up
/// answers' `(status, hash)`.
fn set_up(spec: &ChainSpec) -> Result<(ServeState, Vec<(u16, u64)>), String> {
    let state = ServeState::load_chains(std::slice::from_ref(spec)).map_err(|e| e.to_string())?;
    let answers = warm_paths(&state)
        .iter()
        .map(|path| {
            let r = state.respond(&request(path));
            (r.status, body_hash(&r.body))
        })
        .collect();
    Ok((state, answers))
}

/// The request mix, seeded: 85% `/hosts/{name}` against the first or
/// last epoch, 5% `/countries/{cc}` weighted by hosts, 4% `/table2`, 3%
/// `/trends`, 3% `/diff` first→last.
struct Mix {
    /// `(epoch label, sampled hostnames)` of the first and last epoch.
    hosts: [(String, Vec<String>); 2],
    /// Countries of the first epoch's sample, so drawn by host count.
    countries: Vec<&'static str>,
}

impl Mix {
    fn new(state: &ServeState, seed: u64) -> Mix {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7E);
        let (first, last) = (&state.archives()[0], last_epoch(state));
        let mut sample = |a: &Archive| -> Vec<ScanRecord> {
            let snap = a.snapshot();
            (0..HOST_SAMPLE)
                .filter_map(|_| {
                    snap.host(rng.gen_range(0..snap.host_count()))
                        .ok()
                        .flatten()
                })
                .collect()
        };
        let (early, late) = (sample(first), sample(last));
        let countries = early.iter().filter_map(|r| r.country).collect();
        let names = |rs: Vec<ScanRecord>| rs.into_iter().map(|r| r.hostname).collect();
        Mix {
            hosts: [
                (first.label().to_owned(), names(early)),
                (last.label().to_owned(), names(late)),
            ],
            countries,
        }
    }

    /// `n` requests. The shares are exact in every block of 100 (only
    /// the order within a block is drawn), so the traffic a run sends
    /// does not vary with the seed; every 20th host lookup names an
    /// unknown host.
    fn paths(&self, n: usize, seed: u64) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut block: Vec<u32> = (0..100).collect();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
            for &slot in block.iter().take(n - out.len()) {
                let i = out.len();
                out.push(match slot {
                    0..=84 => {
                        let (label, names) = &self.hosts[rng.gen_range(0..2usize)];
                        if slot % 20 == 19 {
                            format!("/hosts/unknown-{i}.gov.invalid?snapshot={label}")
                        } else {
                            let name = &names[rng.gen_range(0..names.len())];
                            format!("/hosts/{name}?snapshot={label}")
                        }
                    }
                    85..=89 => {
                        let cc = &self.countries[rng.gen_range(0..self.countries.len())];
                        format!("/countries/{cc}")
                    }
                    90..=93 => "/table2".to_owned(),
                    94..=96 => "/trends".to_owned(),
                    _ => format!("/diff?from={}&to={}", self.hosts[0].0, self.hosts[1].0),
                });
            }
        }
        out
    }
}

/// The route a path exercises, for the per-route respond times.
fn route(path: &str) -> &'static str {
    let p = path.split('?').next().unwrap_or(path);
    if p.starts_with("/hosts/") {
        "hosts"
    } else if p.starts_with("/countries/") {
        "countries"
    } else if p == "/table2" {
        "table2"
    } else if p == "/trends" {
        "trends"
    } else {
        "diff"
    }
}

/// One request as the generator saw it. Times are seconds since the
/// generator started.
struct Sample {
    path: usize,
    due: f64,
    sent: f64,
    done: f64,
    answer: Option<(u16, u64, usize)>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

fn get(addr: SocketAddr, path: &str) -> Option<(u16, u64, usize)> {
    http::get(addr, path)
        .ok()
        .map(|(status, body)| (status, body_hash(&body), body.len()))
}

/// Open loop: request `i` is due at `start + i / rate`; client thread
/// `k` sends requests `k, k + threads, …` in order.
fn open_loop(addr: SocketAddr, paths: &[String], rate: f64, threads: usize) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(5);
    let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..threads)
            .map(|k| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in (k..paths.len()).step_by(threads) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let answer = get(addr, &paths[i]);
                        out.push(Sample {
                            path: i,
                            due: at(due),
                            sent: at(sent),
                            done: at(Instant::now()),
                            answer,
                        });
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    samples.sort_by_key(|s| s.path);
    samples
}

/// Closed loop for `seconds`: `threads` clients, each sending its next
/// request when the previous answer arrives. Returns the samples and
/// the wall time.
fn closed_loop(
    addr: SocketAddr,
    paths: &[String],
    seconds: f64,
    threads: usize,
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let at = |t: Instant| t.duration_since(start).as_secs_f64();
    let samples = std::thread::scope(|s| {
        let clients: Vec<_> = (0..threads)
            .map(|k| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = k;
                    while secs(start) < seconds {
                        let sent = Instant::now();
                        let answer = get(addr, &paths[i % paths.len()]);
                        out.push(Sample {
                            path: i % paths.len(),
                            due: at(sent),
                            sent: at(sent),
                            done: at(Instant::now()),
                            answer,
                        });
                        i += threads;
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    (samples, secs(start))
}

/// Run `load` against a server over `state`, then shut it down.
fn with_server<R>(
    state: &Arc<ServeState>,
    threads: usize,
    o: &mut Outcome,
    load: impl FnOnce(SocketAddr) -> R,
) -> Option<R> {
    let server = match Server::bind(("127.0.0.1", 0), Arc::clone(state), threads) {
        Ok(s) => s,
        Err(e) => {
            o.check("bind", false, e.to_string());
            return None;
        }
    };
    let addr = server.local_addr().expect("bound socket has an address");
    let handle = std::thread::spawn(move || server.run());
    let r = load(addr);
    let stopped = http::get(addr, "/shutdown").is_ok();
    let joined = matches!(handle.join(), Ok(Ok(())));
    o.check("server shut down", stopped && joined, "GET /shutdown");
    Some(r)
}

/// Compare every answer with what `respond` gives in process; count
/// the transport errors and mismatches as failed.
fn verify(o: &mut Outcome, state: &ServeState, paths: &[String], samples: &[Sample]) {
    let mut expected: HashMap<&str, (u16, u64)> = HashMap::new();
    let mut bad = 0u64;
    for s in samples {
        let path = paths[s.path].as_str();
        let want = *expected.entry(path).or_insert_with(|| {
            let r = state.respond(&request(path));
            (r.status, body_hash(&r.body))
        });
        if s.answer.map(|(status, hash, _)| (status, hash)) != Some(want) {
            bad += 1;
        }
    }
    o.attempted += samples.len() as u64;
    o.failed += bad;
    let unknown_404 = expected
        .iter()
        .all(|(p, (status, _))| *status == if p.contains(".gov.invalid") { 404 } else { 200 });
    o.check(
        "answers match",
        bad == 0 && unknown_404,
        format!("{bad} of {} wrong or failed", samples.len()),
    );
}

/// `Snapshot::open` on the base, then `Delta::open` and `Delta::apply`
/// per epoch; returns every epoch's digest.
fn mirror_chain(t: &Tracer, parent: SpanId, spec: &ChainSpec) -> Result<Vec<String>, StoreError> {
    let p = Some(parent);
    let mut snap = t.time("store.open", p, || Snapshot::open(&spec.base))?;
    let mut digests = vec![snap.digest().to_hex()];
    for path in &spec.deltas {
        let delta = t.time("store.delta_open", p, || Delta::open(path))?;
        snap = t.time("store.delta_apply", p, || delta.apply(&snap))?;
        digests.push(snap.digest().to_hex());
    }
    Ok(digests)
}

pub fn run(p: &Params, traced: bool) -> Outcome {
    if traced {
        return run_traced(p);
    }
    let mut o = Outcome::default();
    let spec = spec(p);

    let mut setups = SetUps::default();
    let (state, warm) = match setups.batch(p, 3, || set_up(&spec)) {
        Ok(s) => s,
        Err(e) => {
            o.check("load chain", false, e);
            return o;
        }
    };
    o.check(
        "warm-up answers 200",
        warm.iter().all(|&(status, _)| status == 200),
        format!("{} warm-up requests", warm.len()),
    );
    setups.report(&mut o);

    let state = Arc::new(state);
    let mix = Mix::new(&state, p.seed);
    let (rate, open_s, closed_s) = if p.smoke {
        (SMOKE_RATE, 1.0, 0.5)
    } else {
        (RATE, p.seconds / 2.0, p.seconds / 2.0)
    };
    let slices = if p.smoke { 1 } else { SLICES };
    let per_slice = ((rate * open_s) as usize / slices).max(1);
    let open_paths = mix.paths(per_slice * slices, p.seed);
    let closed_paths = mix.paths(4096, p.seed ^ 1);
    // The peak while serving, with the warm chain resident.
    reset_peak_rss();
    let loads = with_server(&state, p.threads, &mut o, |addr| {
        let (mut open, mut closed, mut closed_wall) = (Vec::new(), Vec::new(), 0.0);
        for (k, chunk) in open_paths.chunks(per_slice).enumerate() {
            open.extend(
                open_loop(addr, chunk, rate, p.threads)
                    .into_iter()
                    .map(|s| Sample {
                        path: s.path + k * per_slice,
                        ..s
                    }),
            );
            let (samples, wall) =
                closed_loop(addr, &closed_paths, closed_s / slices as f64, p.threads);
            closed.extend(samples);
            closed_wall += wall;
        }
        (open, closed, closed_wall)
    });
    let Some((open, closed, closed_wall)) = loads else {
        return o;
    };
    report_peak(&mut o, peak_rss_mb());
    verify(&mut o, &state, &open_paths, &open);
    verify(&mut o, &state, &closed_paths, &closed);

    let ok = |s: &&Sample| s.answer.is_some();
    let latencies: Vec<f64> = open.iter().filter(ok).map(Sample::latency_ms).collect();
    o.metric("latency_ms", median(&latencies));
    // Little's law, with the median round trip in place of the mean.
    let round_trip_ms = median(&closed.iter().map(Sample::latency_ms).collect::<Vec<_>>());
    o.metric("throughput", p.threads as f64 * 1e3 / round_trip_ms);
    eprintln!(
        "serve closed loop: {} answers in {closed_wall:.2} s ({:.0}/s), median round trip {round_trip_ms:.4} ms",
        closed.len(),
        closed.len() as f64 / closed_wall
    );
    let bytes: Vec<f64> = open
        .iter()
        .filter_map(|s| s.answer.map(|(_, _, n)| n as f64))
        .collect();
    o.metric("output_bytes", mean(&bytes));
    o
}

fn run_traced(p: &Params) -> Outcome {
    let mut o = Outcome::default();
    let spec = spec(p);

    let t = Instant::now();
    let untraced = set_up(&spec).map(|(_, warm)| warm);
    let untraced_s = secs(t);

    // Set-up traced: the load, then the warm-up with the index build it
    // triggers timed on its own.
    let tracer = Tracer::new();
    let root = tracer.open("serve.setup", None);
    let loaded = tracer.time("store.chain_load", Some(root), || {
        ServeState::load_chains(std::slice::from_ref(&spec))
    });
    let (state, warm) = match (untraced, loaded) {
        (Ok(warm_u), Ok(state)) => {
            let warm = tracer.time_in("serve.warm", Some(root), |w| {
                tracer.time("analysis.index", Some(w), || {
                    state.archives()[0].index().is_ok()
                });
                warm_paths(&state)
                    .iter()
                    .map(|path| {
                        let r =
                            tracer.time("serve.respond", Some(w), || state.respond(&request(path)));
                        (r.status, body_hash(&r.body))
                    })
                    .collect::<Vec<_>>()
            });
            tracer.close(root);
            o.agree("traced warm-up answers", &[warm_u, warm.clone()]);
            (state, warm)
        }
        (u, l) => {
            let errors = [u.err(), l.err().map(|e| e.to_string())];
            o.check("load chain", false, format!("{errors:?}"));
            return o;
        }
    };
    o.check(
        "warm-up answers 200",
        warm.iter().all(|&(status, _)| status == 200),
        format!("{} warm-up requests", warm.len()),
    );
    let archives = state.archives();
    let decoded: usize = archives
        .iter()
        .map(|a| a.snapshot().decoded_sections().len())
        .sum();
    let built: u64 = archives.iter().map(|a| a.snapshot().datasets_built()).sum();
    o.metric("store.decoded_sections", decoded as f64);
    o.metric("store.datasets_built", built as f64);

    // The chain again, link by link, as `load_chains` resolves it.
    let mirror = tracer.open("serve.chain_mirror", None);
    match mirror_chain(&tracer, mirror, &spec) {
        Ok(digests) => {
            let loaded: Vec<String> = archives.iter().map(|a| a.digest_hex().to_owned()).collect();
            o.agree("chain mirror digests", &[loaded, digests]);
        }
        Err(e) => o.check("chain mirror", false, e.to_string()),
    }
    tracer.close(mirror);

    o.traced(&tracer, root, untraced_s);
    o.busy_s(&[
        "store.chain_load",
        "store.delta_apply",
        "serve.warm",
        "analysis.index",
    ]);

    // Parse, respond and write in process, over the workload's own mix.
    let mix = Mix::new(&state, p.seed);
    let paths = mix.paths(if p.smoke { 200 } else { 2000 }, p.seed ^ 2);
    let (mut parse, mut write) = (Vec::new(), Vec::new());
    let mut respond: HashMap<&str, Vec<f64>> = HashMap::new();
    for path in &paths {
        let line = format!("GET {path} HTTP/1.1");
        let t = Instant::now();
        let req = Request::parse_request_line(&line).expect("generated paths parse");
        parse.push(secs(t) * 1e6);
        let t = Instant::now();
        let resp: Response = state.respond(&req);
        respond.entry(route(path)).or_default().push(secs(t) * 1e6);
        let mut sink = Vec::new();
        let t = Instant::now();
        resp.write_to(&mut sink)
            .expect("writing to a Vec cannot fail");
        write.push(secs(t) * 1e6);
    }
    o.metric("serve.parse_us", mean(&parse));
    for r in ["hosts", "countries", "table2", "trends", "diff"] {
        let v = mean(respond.get(r).map_or(&[][..], Vec::as_slice));
        o.metric(format!("serve.respond_us.{r}"), v);
    }
    o.metric("serve.write_us", mean(&write));
    let all_respond: Vec<f64> = respond.values().flatten().copied().collect();
    let server_us = mean(&parse) + mean(&all_respond) + mean(&write);

    // The rate ladder.
    let state = Arc::new(state);
    let step_s = if p.smoke {
        0.2
    } else {
        p.seconds / LADDER.len() as f64
    };
    let ladder = with_server(&state, p.threads, &mut o, |addr| {
        LADDER
            .iter()
            .map(|&rate| {
                let n = (f64::from(rate) * step_s) as usize;
                let paths = mix.paths(n, p.seed ^ u64::from(rate));
                let samples = open_loop(addr, &paths, f64::from(rate), p.threads);
                (rate, paths, samples)
            })
            .collect::<Vec<_>>()
    });
    let mut sustained = 0.0;
    for (rate, paths, samples) in ladder.iter().flatten() {
        verify(&mut o, &state, paths, samples);
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let late = samples
            .iter()
            .filter(|s| (s.sent - s.due) * 1e3 > LATE_MS)
            .count();
        let p50 = quantile(&lat, 0.5);
        let p99 = quantile(&lat, 0.99);
        let end = paths.len() as f64 / f64::from(*rate);
        let last_done = samples.iter().map(|s| s.done).fold(0.0, f64::max);
        let clean = samples.iter().all(|s| s.answer.is_some());
        if clean && p99 <= P99_LIMIT_MS && (last_done - end) * 1e3 <= BACKLOG_LIMIT_MS {
            sustained = f64::from(*rate);
        }
        o.metric(format!("serve.p50_ms.r{rate}"), p50);
        o.metric(format!("serve.p99_ms.r{rate}"), p99);
        o.metric(
            format!("serve.late_frac.r{rate}"),
            ratio(late as f64, samples.len() as f64),
        );
        if *rate == LADDER[0] {
            o.metric("serve.transport_us", p50 * 1e3 - server_us);
        }
    }
    o.metric("serve.sustained_rps", sustained);
    let (hits, misses) = state.cache_stats();
    o.metric("serve.cache_hits", hits as f64);
    o.metric("serve.cache_misses", misses as f64);
    o.metric(
        "serve.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    o
}
