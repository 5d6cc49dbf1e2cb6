//! The per-host scan probe (§4.2.3's measurement step) and the parallel
//! scan engine.
//!
//! For each hostname the probe performs, in order: DNS resolution (3
//! retries, as the paper did), a plain-http GET, a TCP connect to 443, a
//! full TLS handshake retrieving the peer certificate chain, OpenSSL-
//! equivalent chain validation against the configured trust store,
//! hostname verification, a CAA lookup, and hosting attribution of the
//! first A record against the provider CIDR table.

use std::net::Ipv4Addr;
use std::sync::Arc;

use govscan_net::{CidrTable, DnsOutcome, HttpOutcome, SimNet, TcpOutcome, TlsClientConfig};
use govscan_pki::caa::CaaRecord;
use govscan_pki::ev::EvRegistry;
use govscan_pki::trust::TrustStore;
use govscan_pki::{ChainVerdictCache, Time};

use crate::classify::{CertMeta, ErrorCategory, HttpsStatus};
use crate::dataset::{HostingKind, ScanRecord};

/// Everything a probe needs besides the hostname.
pub struct ScanContext<'a> {
    /// The network to dial.
    pub net: &'a SimNet,
    /// Trust anchors for chain validation (the paper used the Apple
    /// store as the most restrictive).
    pub trust: &'a TrustStore,
    /// EV policy registry.
    pub ev: &'a EvRegistry,
    /// Hosting-provider CIDR table.
    pub providers: &'a CidrTable<(&'static str, bool)>,
    /// Scan timestamp for validity checks.
    pub now: Time,
    /// TLS probe configuration.
    pub client: TlsClientConfig,
    /// Shared memo of structural chain verdicts. Must be bound to the
    /// same trust store and scan time as `trust`/`now`; build contexts
    /// with [`ScanContext::new`] to keep them consistent.
    pub verdicts: Arc<ChainVerdictCache>,
}

impl<'a> ScanContext<'a> {
    /// Build a context whose verdict cache is bound to exactly the given
    /// trust store and scan time.
    pub fn new(
        net: &'a SimNet,
        trust: &'a TrustStore,
        ev: &'a EvRegistry,
        providers: &'a CidrTable<(&'static str, bool)>,
        now: Time,
        client: TlsClientConfig,
    ) -> ScanContext<'a> {
        ScanContext {
            net,
            trust,
            ev,
            providers,
            now,
            client,
            verdicts: Arc::new(ChainVerdictCache::new(trust.clone(), now)),
        }
    }
}

/// Number of DNS/connect retries before declaring a host unavailable.
const RETRIES: usize = 3;

/// Scan a single hostname.
pub fn scan_host(ctx: &ScanContext<'_>, hostname: &str) -> ScanRecord {
    let hostname = hostname.to_ascii_lowercase();

    // --- DNS (with retries, §4.2.3). ---
    let mut resolved: Option<Vec<Ipv4Addr>> = None;
    for _ in 0..RETRIES {
        match ctx.net.resolve(&hostname) {
            DnsOutcome::Ok(addrs) => {
                resolved = Some(addrs);
                break;
            }
            DnsOutcome::NxDomain | DnsOutcome::Timeout => continue,
        }
    }
    let Some(ip) = resolved.as_ref().and_then(|a| a.first().copied()) else {
        // NXDOMAIN/timeouts on every retry, or an empty A record set.
        return ScanRecord::unavailable(hostname);
    };

    // --- Plain http. ---
    let (http_200, http_redirects_https) = match ctx.net.fetch(&hostname, false, &ctx.client) {
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

    // --- https: TCP 443 → TLS → GET. ---
    let mut https_200 = false;
    let mut hsts = false;
    let mut negotiated = None;
    let https = match ctx.net.tcp_connect(&hostname, 443) {
        TcpOutcome::Refused => HttpsStatus::None,
        // TCP-level failures on 443 with no TLS service behind them.
        TcpOutcome::TimedOut => HttpsStatus::Invalid(ErrorCategory::TimedOut, None),
        TcpOutcome::ResetByPeer => HttpsStatus::Invalid(ErrorCategory::ConnectionReset, None),
        TcpOutcome::Accepted => match ctx.net.tls_connect(&hostname, &ctx.client) {
            Err(e) => HttpsStatus::Invalid(ErrorCategory::from_tls_error(e), None),
            Ok(session) => {
                negotiated = Some(session.version);
                // Fetch the page inside the tunnel for availability/HSTS.
                if let HttpOutcome::Response(r) = ctx.net.fetch(&hostname, true, &ctx.client) {
                    https_200 = r.is_ok();
                    hsts = r.hsts.is_some();
                }
                let meta = CertMeta::from_chain(&session.peer_chain, ctx.ev);
                // Memoized: the structural verdict for this chain is
                // computed once per scan and replayed for every other
                // host presenting the same certificates.
                match ctx.verdicts.validate(&session.peer_chain, &hostname) {
                    Ok(_) => HttpsStatus::Valid(meta.expect("valid chain has a leaf")),
                    Err(e) => HttpsStatus::Invalid(ErrorCategory::from_cert_error(e), meta),
                }
            }
        },
    };

    // A host is available if some endpoint returned a 200 (§4.1).
    let available = http_200 || https_200;

    // --- CAA. ---
    let caa: Vec<CaaRecord> = ctx.net.caa_lookup(&hostname).to_vec();

    // --- Hosting attribution (§5.4): first A record vs CIDR lists. ---
    let hosting = match ctx.providers.lookup(ip) {
        Some((name, true)) => HostingKind::Cdn(name),
        Some((name, false)) => HostingKind::Cloud(name),
        None => HostingKind::Private,
    };

    ScanRecord {
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
    }
}

/// Below this host count a scan runs inline: worker threads cannot pay
/// for themselves on a handful of simulated dials.
const PARALLEL_THRESHOLD: usize = 64;

/// Scan many hostnames on the shared executor ([`govscan_exec`]), with
/// the worker count from `GOVSCAN_THREADS` (≥ 1), otherwise the
/// machine's parallelism capped at 8. Results are returned in input
/// order.
///
/// Each worker claims the next hostname from one shared counter and
/// writes its record straight into the pre-sized output slot, so there
/// is no per-host send/receive traffic and no queue holding the whole
/// world. A host with a slow probe (retry-heavy DNS, a timed-out
/// handshake) holds up only its own worker: the others keep claiming.
pub fn scan_hosts(ctx: &ScanContext<'_>, hostnames: &[String]) -> Vec<ScanRecord> {
    let workers = govscan_exec::resolve_threads("GOVSCAN_THREADS");
    if workers <= 1 || hostnames.len() < PARALLEL_THRESHOLD {
        return hostnames.iter().map(|h| scan_host(ctx, h)).collect();
    }
    govscan_exec::par_map_indexed(workers, hostnames.len(), |i| scan_host(ctx, &hostnames[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use govscan_worldgen::{World, WorldConfig};

    fn ctx(world: &World) -> ScanContext<'_> {
        ScanContext::new(
            &world.net,
            world
                .cadb
                .trust_store(govscan_pki::trust::TrustStoreProfile::Apple),
            world.cadb.ev_registry(),
            &world.provider_table,
            world.scan_time(),
            TlsClientConfig::default(),
        )
    }

    #[test]
    fn scan_agrees_with_ground_truth() {
        let world = World::generate(&WorldConfig::small(77));
        let ctx = ctx(&world);
        let mut agree = 0usize;
        let mut total = 0usize;
        for host in world.gov_hosts.iter().take(800) {
            let rec = scan_host(&ctx, host);
            let truth = &world.records[host];
            use govscan_worldgen::Posture;
            total += 1;
            let ok = match &truth.posture {
                Posture::Unreachable => !rec.available,
                Posture::HttpOnly => rec.available && !rec.https.attempts(),
                Posture::ValidHttps { .. } => rec.https.is_valid(),
                Posture::InvalidHttps { .. } => rec.https.attempts() && !rec.https.is_valid(),
            };
            if ok {
                agree += 1;
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.97, "ground-truth agreement {rate}");
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let world = World::generate(&WorldConfig::small(78));
        let ctx = ctx(&world);
        let hosts: Vec<String> = world.gov_hosts.iter().take(200).cloned().collect();
        let serial: Vec<ScanRecord> = hosts.iter().map(|h| scan_host(&ctx, h)).collect();
        // Pin the pool so it engages even on a single-core runner. (The
        // env var is process-global; a concurrent test scanning hosts
        // merely changes its pool size, never its output — which is
        // exactly the property under test.)
        std::env::set_var("GOVSCAN_THREADS", "3");
        let parallel = scan_hosts(&ctx, &hosts);
        std::env::remove_var("GOVSCAN_THREADS");
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.hostname, b.hostname);
            assert_eq!(a.available, b.available);
            assert_eq!(a.https, b.https);
        }
        // Both passes shared one verdict cache: the serial scan seeded
        // it (lazy insertion memoizes each chain on its second
        // sighting), so the parallel pass answered repeating chains
        // from the memo.
        assert!(ctx.verdicts.hits() > 0, "shared cache saw hits");
        // After two sightings every chain is memoized, so a third pass
        // is all hits — the steady state of a long scan.
        let misses_after_two_passes = ctx.verdicts.misses();
        for h in &hosts {
            scan_host(&ctx, h);
        }
        assert_eq!(
            ctx.verdicts.misses(),
            misses_after_two_passes,
            "fully warm: {:?}",
            ctx.verdicts
        );
    }

    #[test]
    fn hosting_attribution_consistent_with_ground_truth() {
        let world = World::generate(&WorldConfig::small(79));
        let ctx = ctx(&world);
        let mut cloud_truth_hits = 0;
        let mut cloud_truth = 0;
        for host in world.gov_hosts.iter().take(2000) {
            let truth = &world.records[host];
            if matches!(truth.posture, govscan_worldgen::Posture::Unreachable) {
                continue;
            }
            let rec = scan_host(&ctx, host);
            use govscan_worldgen::HostingClass;
            match &truth.hosting {
                HostingClass::Cloud(p) => {
                    cloud_truth += 1;
                    if rec.hosting == HostingKind::Cloud(p) {
                        cloud_truth_hits += 1;
                    }
                }
                HostingClass::Cdn(p) => {
                    cloud_truth += 1;
                    if rec.hosting == HostingKind::Cdn(p) {
                        cloud_truth_hits += 1;
                    }
                }
                HostingClass::Private => {}
            }
        }
        assert!(cloud_truth > 10, "some cloud hosts in sample");
        assert_eq!(cloud_truth_hits, cloud_truth, "CIDR attribution is exact");
    }
}
