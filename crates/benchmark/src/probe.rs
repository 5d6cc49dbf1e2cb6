//! The probe-step mirror: `ListScanner::scan_list_with` → `scan_hosts`
//! → `scan_host`, re-stated call for call from public functions so each
//! `SimNet` step, the chain validation and the classification can be
//! timed on its own.
//!
//! The mirrored records go into the traced run's archive in place of the
//! real scan's, so "traced digest = untraced digest" proves every
//! mirrored record equals the one `scan_host` produces.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use govscan_net::{DnsOutcome, HttpOutcome, TcpOutcome};
use govscan_pki::caa::CaaRecord;
use govscan_pki::Time;
use govscan_scanner::dataset::HostingKind;
use govscan_scanner::{
    CertMeta, ErrorCategory, GovFilter, HttpsStatus, ScanContext, ScanDataset, ScanRecord,
};
use govscan_worldgen::RankingList;

use crate::trace::{SpanId, Tracer};

/// `scan_host`'s retry count.
const RETRIES: usize = 3;
/// `scan_hosts`'s inline threshold.
const PARALLEL_THRESHOLD: usize = 64;

/// The annotation half of `ListScanner`: country by the government
/// filter, rank by the tranco list.
pub struct Annotator {
    filter: GovFilter,
    ranks: HashMap<String, u32>,
}

impl Annotator {
    pub fn new(tranco: &RankingList) -> Annotator {
        let mut ranks = HashMap::with_capacity(tranco.entries.len());
        for e in &tranco.entries {
            ranks.entry(e.hostname.clone()).or_insert(e.rank);
        }
        Annotator {
            filter: GovFilter::standard(),
            ranks,
        }
    }
}

/// Probe counters of one mirrored scan.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeStats {
    pub hosts: u64,
    pub dns_attempts: u64,
    pub unavailable: u64,
    /// Probe time over all hosts, and over the hosts that end
    /// unavailable or whose port 443 timed out or refused.
    pub probe_ns: u64,
    pub unresponsive_ns: u64,
}

impl ProbeStats {
    pub fn add(&mut self, o: ProbeStats) {
        self.hosts += o.hosts;
        self.dns_attempts += o.dns_attempts;
        self.unavailable += o.unavailable;
        self.probe_ns += o.probe_ns;
        self.unresponsive_ns += o.unresponsive_ns;
    }
}

/// Mirror of `ListScanner::scan_list_with`.
pub fn scan_list(
    tracer: &Tracer,
    parent: SpanId,
    ctx: &ScanContext<'_>,
    annot: &Annotator,
    scan_time: Time,
    hostnames: &[String],
) -> (ScanDataset, ProbeStats) {
    let workers = govscan_exec::resolve_threads("GOVSCAN_SCAN_THREADS");
    let probe = |h: &String| scan_host(tracer, parent, ctx, h);
    let results: Vec<(ScanRecord, ProbeStats)> =
        if workers <= 1 || hostnames.len() < PARALLEL_THRESHOLD {
            hostnames.iter().map(probe).collect()
        } else {
            govscan_exec::par_map_indexed(workers, hostnames.len(), |i| probe(&hostnames[i]))
        };
    let mut stats = ProbeStats::default();
    let mut records = Vec::with_capacity(results.len());
    for (mut r, s) in results {
        r.country = annot.filter.classify(&r.hostname);
        r.tranco_rank = annot.ranks.get(&r.hostname).copied();
        records.push(r);
        stats.add(s);
    }
    (ScanDataset::new(records, scan_time), stats)
}

/// Mirror of `scan_host`, one span per step.
fn scan_host(
    t: &Tracer,
    parent: SpanId,
    ctx: &ScanContext<'_>,
    hostname: &str,
) -> (ScanRecord, ProbeStats) {
    let start = t.now();
    let p = Some(parent);
    let hostname = hostname.to_ascii_lowercase();
    let mut stats = ProbeStats {
        hosts: 1,
        ..ProbeStats::default()
    };

    let mut resolved: Option<Vec<Ipv4Addr>> = None;
    for _ in 0..RETRIES {
        stats.dns_attempts += 1;
        match t.time("net.dns", p, || ctx.net.resolve(&hostname)) {
            DnsOutcome::Ok(addrs) => {
                resolved = Some(addrs);
                break;
            }
            DnsOutcome::NxDomain | DnsOutcome::Timeout => continue,
        }
    }
    let Some(ip) = resolved.as_ref().and_then(|a| a.first().copied()) else {
        stats.unavailable = 1;
        stats.probe_ns = t.now() - start;
        stats.unresponsive_ns = stats.probe_ns;
        return (ScanRecord::unavailable(hostname), stats);
    };

    let (http_200, http_redirects_https) = match t.time("net.http", p, || {
        ctx.net.fetch(&hostname, false, &ctx.client)
    }) {
        HttpOutcome::Response(r) if r.is_ok() => (true, false),
        HttpOutcome::Response(r) if r.is_redirect() => {
            let to_https = r
                .location
                .as_deref()
                .is_some_and(|l| l.starts_with("https://"));
            (false, to_https)
        }
        _ => (false, false),
    };

    let mut https_200 = false;
    let mut hsts = false;
    let mut negotiated = None;
    let tcp = t.time("net.tcp", p, || ctx.net.tcp_connect(&hostname, 443));
    let unresponsive = matches!(tcp, TcpOutcome::Refused | TcpOutcome::TimedOut);
    let https = match tcp {
        TcpOutcome::Refused => HttpsStatus::None,
        TcpOutcome::TimedOut => HttpsStatus::Invalid(ErrorCategory::TimedOut, None),
        TcpOutcome::ResetByPeer => HttpsStatus::Invalid(ErrorCategory::ConnectionReset, None),
        TcpOutcome::Accepted => {
            match t.time("net.tls", p, || ctx.net.tls_connect(&hostname, &ctx.client)) {
                Err(e) => HttpsStatus::Invalid(ErrorCategory::from_tls_error(e), None),
                Ok(session) => {
                    negotiated = Some(session.version);
                    if let HttpOutcome::Response(r) = t.time("net.http", p, || {
                        ctx.net.fetch(&hostname, true, &ctx.client)
                    }) {
                        https_200 = r.is_ok();
                        hsts = r.hsts.is_some();
                    }
                    let meta = t.time("scanner.classify", p, || {
                        CertMeta::from_chain(&session.peer_chain, ctx.ev)
                    });
                    match t.time("pki.validate", p, || {
                        ctx.verdicts.validate(&session.peer_chain, &hostname)
                    }) {
                        Ok(_) => HttpsStatus::Valid(meta.expect("valid chain has a leaf")),
                        Err(e) => HttpsStatus::Invalid(ErrorCategory::from_cert_error(e), meta),
                    }
                }
            }
        }
    };

    let available = http_200 || https_200;
    let caa: Vec<CaaRecord> = t.time("net.caa", p, || ctx.net.caa_lookup(&hostname).to_vec());
    let hosting = t.time("scanner.classify", p, || match ctx.providers.lookup(ip) {
        Some((name, true)) => HostingKind::Cdn(name),
        Some((name, false)) => HostingKind::Cloud(name),
        None => HostingKind::Private,
    });

    stats.probe_ns = t.now() - start;
    if !available {
        stats.unavailable = 1;
    }
    if !available || unresponsive {
        stats.unresponsive_ns = stats.probe_ns;
    }
    let record = ScanRecord {
        hostname,
        available,
        ip: Some(ip),
        http_200,
        http_redirects_https,
        https_200,
        hsts,
        https,
        negotiated,
        caa,
        hosting,
        country: None,
        tranco_rank: None,
    };
    (record, stats)
}

/// `count` evenly spaced shard indices out of `n` (all of them when
/// `n <= count`): the fixed sample the probe-step mirror runs on.
pub fn sample_shards(n: usize, count: usize) -> Vec<usize> {
    if n <= count {
        return (0..n).collect();
    }
    (0..count).map(|k| k * n / count).collect()
}
