//! The remediation model: what webmasters did in the two months after
//! notification (§7.2.2), applied as mutations to the simulated
//! Internet.

use govscan_crypto::KeyPair;
use govscan_net::http::HttpResponse;
use govscan_net::tls::TlsServerConfig;
use govscan_net::HostConfig;
use govscan_pki::ca::LeafProfile;
use govscan_scanner::ScanDataset;
use govscan_worldgen::cadb::LETS_ENCRYPT;
use govscan_worldgen::World;
use rand::Rng;

use crate::campaign::Campaign;

/// What happened to each previously-problematic host.
#[derive(Debug, Clone, Default)]
pub struct RemediationPlan {
    /// Hosts whose certificates were fixed.
    pub fixed: Vec<String>,
    /// Hosts taken down entirely.
    pub removed: Vec<String>,
    /// Previously unreachable hosts that came back with valid https.
    pub revived_valid: Vec<String>,
    /// Previously unreachable hosts that came back with invalid https.
    pub revived_invalid: Vec<String>,
    /// Previously http-only hosts that deployed valid https.
    pub upgraded: Vec<String>,
}

/// Base probability an invalid host is fixed within two months (the
/// paper's strict improvement estimate was 8.3%).
const BASE_FIX_RATE: f64 = 0.065;
/// Extra fix probability when the country's registrar engaged.
const RESPONSE_BOOST: f64 = 0.08;
/// Probability an invalid host is instead taken down (1,572 of 15,179).
const REMOVAL_RATE: f64 = 0.10;
/// Countries the paper singles out with >40% improvement.
const FAST_FIXERS: &[&str] = &["bh", "bf", "cu", "hn", "pt", "ly", "vn"];

/// Decide and apply remediation. `scan` is the original worldwide scan;
/// `unreachable` is the list of hostnames that never answered. Returns
/// the plan that was applied.
pub fn apply(
    world: &mut World,
    scan: &ScanDataset,
    unreachable: &[String],
    campaign: &Campaign,
    rng: &mut impl Rng,
) -> RemediationPlan {
    let mut plan = RemediationPlan::default();
    let rescan_issue_time = world.scan_time().plus_days(30);

    // --- Previously invalid hosts: fix, remove, or leave. ---
    let invalid_hosts: Vec<(String, Option<&'static str>)> = scan
        .invalid()
        .map(|r| (r.hostname.clone(), r.country))
        .collect();
    for (host, country) in invalid_hosts {
        let mut p_fix = BASE_FIX_RATE;
        if let Some(cc) = country {
            if campaign.responded(cc) {
                p_fix += RESPONSE_BOOST;
            }
            if FAST_FIXERS.contains(&cc) {
                p_fix = 0.45;
            }
        }
        let roll = rng.gen::<f64>();
        if roll < p_fix {
            fix_host(world, &host, rescan_issue_time);
            plan.fixed.push(host);
        } else if roll < p_fix + REMOVAL_RATE {
            world.net.remove_host(&host);
            plan.removed.push(host);
        }
    }

    // --- Previously http-only hosts: a trickle deploys https (§7.2.2:
    // 950 valid + 1,523 invalid of ~82k). ---
    let http_only: Vec<String> = scan
        .available()
        .filter(|r| !r.https.attempts())
        .map(|r| r.hostname.clone())
        .collect();
    for host in http_only {
        let roll = rng.gen::<f64>();
        if roll < 0.0115 {
            fix_host(world, &host, rescan_issue_time);
            plan.upgraded.push(host);
        } else if roll < 0.0115 + 0.0185 {
            break_host_https(world, &host, rescan_issue_time);
        }
    }

    // --- The unreachable pool: most stay gone; 13.76% come back valid,
    // 6% invalid. ---
    for host in unreachable {
        let roll = rng.gen::<f64>();
        if roll < 0.1376 {
            revive_host(world, host, rescan_issue_time, true, rng);
            plan.revived_valid.push(host.clone());
        } else if roll < 0.1376 + 0.06 {
            revive_host(world, host, rescan_issue_time, false, rng);
            plan.revived_invalid.push(host.clone());
        }
    }
    plan
}

/// Deploy a fresh, valid Let's Encrypt-style certificate on `host`.
fn fix_host(world: &mut World, host: &str, now: govscan_asn1::Time) {
    let key = KeyPair::from_seed(
        govscan_crypto::KeyAlgorithm::Rsa(2048),
        format!("fixed-{host}").as_bytes(),
    );
    let profile = LeafProfile::dv(host.to_string(), key.public(), now);
    let chain = world.cadb.issue_chain(LETS_ENCRYPT, &profile);
    if let Some(cfg) = world.net.host_mut(host) {
        cfg.ports.set(443, govscan_net::TcpOutcome::Accepted);
        cfg.tls = Some(TlsServerConfig::modern(chain));
        let page = cfg
            .http
            .clone()
            .filter(|r| r.is_ok())
            .unwrap_or_else(|| HttpResponse::page(host, &[]));
        cfg.https = Some(page);
        cfg.http = Some(HttpResponse::redirect(format!("https://{host}/")));
    }
}

/// Deploy a *broken* https endpoint (self-signed) on `host`.
fn break_host_https(world: &mut World, host: &str, now: govscan_asn1::Time) {
    let key = KeyPair::from_seed(
        govscan_crypto::KeyAlgorithm::Rsa(2048),
        format!("broken-{host}").as_bytes(),
    );
    let cert = govscan_pki::ca::self_signed(
        host,
        vec![host.to_string()],
        &key,
        govscan_crypto::SignatureAlgorithm::Sha256WithRsa,
        govscan_pki::cert::Validity {
            not_before: now,
            not_after: now.plus_days(3650),
        },
    );
    if let Some(cfg) = world.net.host_mut(host) {
        cfg.ports.set(443, govscan_net::TcpOutcome::Accepted);
        cfg.tls = Some(TlsServerConfig::modern(vec![cert]));
        cfg.https = Some(HttpResponse::page(host, &[]));
    }
}

/// Bring a previously-unreachable host online.
fn revive_host(
    world: &mut World,
    host: &str,
    now: govscan_asn1::Time,
    valid: bool,
    rng: &mut impl Rng,
) {
    let ip = std::net::Ipv4Addr::new(185, 10, (rng.gen::<u8>() % 250) + 1, rng.gen::<u8>());
    let page = HttpResponse::page(host, &[]);
    if valid {
        let key = KeyPair::from_seed(
            govscan_crypto::KeyAlgorithm::Rsa(2048),
            format!("revived-{host}").as_bytes(),
        );
        let profile = LeafProfile::dv(host.to_string(), key.public(), now);
        let chain = world.cadb.issue_chain(LETS_ENCRYPT, &profile);
        world.net.add_host(HostConfig::dual(
            host,
            ip,
            TlsServerConfig::modern(chain),
            HttpResponse::redirect(format!("https://{host}/")),
            page,
        ));
    } else {
        let key = KeyPair::from_seed(
            govscan_crypto::KeyAlgorithm::Rsa(1024),
            format!("revived-{host}").as_bytes(),
        );
        let cert = govscan_pki::ca::self_signed(
            "localhost",
            vec![],
            &key,
            govscan_crypto::SignatureAlgorithm::Sha1WithRsa,
            govscan_pki::cert::Validity {
                not_before: now.plus_days(-3650),
                not_after: now.plus_days(3650),
            },
        );
        world.net.add_host(HostConfig::dual(
            host,
            ip,
            TlsServerConfig::modern(vec![cert]),
            page.clone(),
            page,
        ));
    }
    // The host resolves again.
    world
        .net
        .set_dns_behavior(host, govscan_net::dns::DnsBehavior::Answer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use govscan_scanner::StudyPipeline;
    use govscan_worldgen::WorldConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (World, ScanDataset, Vec<String>, Campaign) {
        let world = World::generate(&WorldConfig::small(0xF1F1));
        let out = StudyPipeline::new(&world).run();
        let unreachable = crate::unreachable_pool(&out.scan);
        let mut rng = StdRng::seed_from_u64(3);
        let campaign = crate::campaign::run(&out.scan, &mut rng, world.config.seed);
        (world, out.scan, unreachable, campaign)
    }

    #[test]
    fn plan_touches_a_small_fraction() {
        let (mut world, scan, unreachable, campaign) = setup();
        let invalid_before = scan.invalid().count();
        let mut rng = StdRng::seed_from_u64(4);
        let plan = apply(&mut world, &scan, &unreachable, &campaign, &mut rng);
        assert!(!plan.fixed.is_empty(), "some hosts get fixed");
        assert!(!plan.removed.is_empty(), "some hosts get removed");
        let touched = plan.fixed.len() + plan.removed.len();
        assert!(
            (touched as f64) < invalid_before as f64 * 0.45,
            "most hosts stay broken: {touched}/{invalid_before}"
        );
    }

    #[test]
    fn fixed_hosts_scan_valid_afterwards() {
        let (mut world, scan, unreachable, campaign) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let plan = apply(&mut world, &scan, &unreachable, &campaign, &mut rng);
        let pipeline = StudyPipeline::new(&world).with_scan_time(world.scan_time().plus_days(60));
        let rescan = pipeline.scan_list(&plan.fixed);
        for r in rescan.records() {
            assert!(r.https.is_valid(), "{} still invalid after fix", r.hostname);
        }
    }

    #[test]
    fn removed_hosts_become_unreachable() {
        let (mut world, scan, unreachable, campaign) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let plan = apply(&mut world, &scan, &unreachable, &campaign, &mut rng);
        let pipeline = StudyPipeline::new(&world);
        let rescan = pipeline.scan_list(&plan.removed);
        for r in rescan.records() {
            assert!(!r.available, "{} still reachable after removal", r.hostname);
        }
    }

    #[test]
    fn revived_hosts_answer() {
        let (mut world, scan, unreachable, campaign) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let plan = apply(&mut world, &scan, &unreachable, &campaign, &mut rng);
        assert!(!plan.revived_valid.is_empty());
        let pipeline = StudyPipeline::new(&world).with_scan_time(world.scan_time().plus_days(60));
        let rescan = pipeline.scan_list(&plan.revived_valid);
        for r in rescan.records() {
            assert!(r.available, "{}", r.hostname);
            assert!(r.https.is_valid(), "{}", r.hostname);
        }
        let rescan = pipeline.scan_list(&plan.revived_invalid);
        for r in rescan.records() {
            assert!(r.available && !r.https.is_valid(), "{}", r.hostname);
        }
    }
}
