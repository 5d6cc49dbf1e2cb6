//! The 7-level breadth-first crawler (§4.2.2, Figure A.4).
//!
//! Starting from the seed list, the crawler fetches each hostname's root
//! page (following one http→https redirect), extracts every anchor from
//! the real HTML, keeps links whose hostname carries a valid country-code
//! TLD, and enqueues unseen hostnames up to 7 levels deep. Growth per
//! level is recorded for the Figure A.4 reproduction.

use std::collections::{HashSet, VecDeque};

use govscan_net::html;
use govscan_net::{HttpOutcome, SimNet, TlsClientConfig};

use crate::filter::GovFilter;

/// Maximum crawl depth (the paper terminated at 7).
pub const MAX_DEPTH: u8 = 7;

/// Per-level crawl statistics.
#[derive(Debug, Clone, Default)]
pub struct LevelStats {
    /// Hostnames first seen at this level.
    pub discovered: usize,
    /// Of those, hostnames passing the government filter.
    pub government: usize,
    /// Pages successfully fetched at this level.
    pub fetched: usize,
}

/// The crawl result.
#[derive(Debug, Clone, Default)]
pub struct CrawlReport {
    /// Every unique hostname seen (seed + discovered).
    pub hostnames: Vec<String>,
    /// Hostnames passing the government filter.
    pub government_hostnames: Vec<String>,
    /// Stats per level 0..=7 (level 0 = the seed list itself).
    pub levels: Vec<LevelStats>,
    /// Total links extracted (including rejected ones).
    pub links_seen: usize,
}

impl CrawlReport {
    /// Growth of the government dataset relative to the seed (Fig A.4's
    /// red line): the percentage increase each level ≥ 1 contributes,
    /// i.e. `100 · (government hosts first seen at level N) / (seed
    /// government hosts)`. A level that discovers nothing new reads as
    /// 0% growth.
    pub fn growth_percent_per_level(&self) -> Vec<f64> {
        let Some(seed) = self.levels.first() else {
            return Vec::new();
        };
        // An all-non-government seed still yields finite percentages.
        let seed_gov = seed.government.max(1) as f64;
        self.levels
            .iter()
            .skip(1)
            .map(|l| 100.0 * l.government as f64 / seed_gov)
            .collect()
    }
}

/// Fetch a page body for crawling: try http, follow a single redirect to
/// https, fall back to https directly.
fn fetch_page(net: &SimNet, client: &TlsClientConfig, host: &str) -> Option<String> {
    match net.fetch(host, false, client) {
        HttpOutcome::Response(r) if r.is_ok() => return Some(r.body().into_owned()),
        HttpOutcome::Response(r) if r.is_redirect() => {
            // Follow to https (the common http→https upgrade).
            if let HttpOutcome::Response(r2) = net.fetch(host, true, client) {
                if r2.is_ok() {
                    return Some(r2.body().into_owned());
                }
            }
        }
        _ => {}
    }
    match net.fetch(host, true, client) {
        HttpOutcome::Response(r) if r.is_ok() => Some(r.body().into_owned()),
        _ => None,
    }
}

/// Run the crawl.
pub fn crawl(net: &SimNet, filter: &GovFilter, seeds: &[String]) -> CrawlReport {
    let client = TlsClientConfig::default();
    let mut report = CrawlReport::default();
    let mut seen: HashSet<String> = HashSet::new();
    let mut queue: VecDeque<(String, u8)> = VecDeque::new();

    let mut level0 = LevelStats::default();
    for host in seeds {
        let host = host.to_ascii_lowercase();
        if seen.insert(host.clone()) {
            level0.discovered += 1;
            if filter.is_gov(&host) {
                level0.government += 1;
            }
            queue.push_back((host, 0));
        }
    }
    report.levels.push(level0);
    report
        .levels
        .resize(MAX_DEPTH as usize + 1, LevelStats::default());

    while let Some((host, depth)) = queue.pop_front() {
        if depth >= MAX_DEPTH {
            continue;
        }
        let Some(body) = fetch_page(net, &client, &host) else {
            continue;
        };
        report.levels[depth as usize].fetched += 1;
        for link in html::extract_links(&body) {
            report.links_seen += 1;
            let Some(target) = html::link_hostname(&link) else {
                continue;
            };
            // §4.2.2: only links with a valid country-code extension are
            // followed (plus the US bare TLDs).
            if !filter.crawlable(&target) {
                continue;
            }
            if seen.insert(target.clone()) {
                let level = &mut report.levels[depth as usize + 1];
                level.discovered += 1;
                if filter.is_gov(&target) {
                    level.government += 1;
                }
                queue.push_back((target, depth + 1));
            }
        }
    }

    let mut hostnames: Vec<String> = seen.into_iter().collect();
    hostnames.sort();
    report.government_hostnames = hostnames
        .iter()
        .filter(|h| filter.is_gov(h))
        .cloned()
        .collect();
    report.hostnames = hostnames;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use govscan_net::http::HttpResponse;
    use govscan_net::HostConfig;
    use std::net::Ipv4Addr;

    fn ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, n)
    }

    fn page_host(net: &mut SimNet, name: &str, n: u8, links: &[&str]) {
        let links: Vec<String> = links.iter().map(|s| s.to_string()).collect();
        net.add_host(HostConfig::http_only(
            name,
            ip(n),
            HttpResponse::page(name, &links),
        ));
    }

    #[test]
    fn follows_links_to_depth() {
        let mut net = SimNet::new();
        page_host(&mut net, "a.gov.bd", 1, &["http://b.gov.bd/"]);
        page_host(&mut net, "b.gov.bd", 2, &["http://c.gov.bd/page"]);
        page_host(&mut net, "c.gov.bd", 3, &[]);
        let f = GovFilter::standard();
        let report = crawl(&net, &f, &["a.gov.bd".to_string()]);
        assert_eq!(report.government_hostnames.len(), 3);
        assert_eq!(report.levels[0].discovered, 1);
        assert_eq!(report.levels[1].discovered, 1);
        assert_eq!(report.levels[2].discovered, 1);
    }

    #[test]
    fn does_not_follow_gtld_links() {
        let mut net = SimNet::new();
        page_host(
            &mut net,
            "a.gov.bd",
            1,
            &["http://ads.example.com/", "http://b.gov.bd/"],
        );
        page_host(&mut net, "b.gov.bd", 2, &[]);
        page_host(&mut net, "ads.example.com", 3, &["http://secret.gov.bd/"]);
        page_host(&mut net, "secret.gov.bd", 4, &[]);
        let f = GovFilter::standard();
        let report = crawl(&net, &f, &["a.gov.bd".to_string()]);
        // example.com is never crawled, so secret.gov.bd stays unseen.
        assert!(!report.hostnames.contains(&"ads.example.com".to_string()));
        assert!(!report.hostnames.contains(&"secret.gov.bd".to_string()));
        assert!(report.links_seen >= 2);
    }

    #[test]
    fn depth_limit_enforced() {
        let mut net = SimNet::new();
        // A chain of 10 hosts: only 8 levels (0..=7) are reachable.
        for i in 0..10u8 {
            let next = format!("h{}.gov.bd", i + 1);
            page_host(
                &mut net,
                &format!("h{i}.gov.bd"),
                i + 1,
                &[&format!("http://{next}/")],
            );
        }
        let f = GovFilter::standard();
        let report = crawl(&net, &f, &["h0.gov.bd".to_string()]);
        // Seed + levels 1..=7 discovered = 8 hostnames total.
        assert_eq!(report.hostnames.len(), 8, "{:?}", report.hostnames);
    }

    #[test]
    fn cycles_terminate() {
        let mut net = SimNet::new();
        page_host(&mut net, "x.gov.bd", 1, &["http://y.gov.bd/"]);
        page_host(&mut net, "y.gov.bd", 2, &["http://x.gov.bd/"]);
        let f = GovFilter::standard();
        let report = crawl(&net, &f, &["x.gov.bd".to_string()]);
        assert_eq!(report.hostnames.len(), 2);
    }

    #[test]
    fn follows_https_redirect_for_page_body() {
        let mut net = SimNet::new();
        net.add_host(HostConfig::dual(
            "r.gov.bd",
            ip(9),
            govscan_net::TlsServerConfig::modern(vec![]),
            HttpResponse::redirect("https://r.gov.bd/"),
            HttpResponse::page("r", &["http://t.gov.bd/".to_string()]),
        ));
        page_host(&mut net, "t.gov.bd", 10, &[]);
        let f = GovFilter::standard();
        let report = crawl(&net, &f, &["r.gov.bd".to_string()]);
        assert!(report.hostnames.contains(&"t.gov.bd".to_string()));
    }

    #[test]
    fn growth_percent_is_per_level_increase_over_seed() {
        // Hand-built report: 50-host government seed, then levels adding
        // 25 / 0 / 5 new government hosts.
        let gov = |n: usize| LevelStats {
            discovered: n,
            government: n,
            fetched: 0,
        };
        let report = CrawlReport {
            levels: vec![gov(50), gov(25), gov(0), gov(5)],
            ..CrawlReport::default()
        };
        let growth = report.growth_percent_per_level();
        assert_eq!(growth, vec![50.0, 0.0, 10.0], "{growth:?}");
    }

    #[test]
    fn growth_percent_degenerate_reports() {
        // No levels at all: nothing to report, no panic.
        assert!(CrawlReport::default().growth_percent_per_level().is_empty());
        // Zero-government seed: percentages stay finite (denominator 1).
        let report = CrawlReport {
            levels: vec![
                LevelStats {
                    discovered: 10,
                    government: 0,
                    fetched: 0,
                },
                LevelStats {
                    discovered: 3,
                    government: 3,
                    fetched: 0,
                },
            ],
            ..CrawlReport::default()
        };
        assert_eq!(report.growth_percent_per_level(), vec![300.0]);
    }

    #[test]
    fn unreachable_seeds_are_kept_in_hostnames() {
        // Unavailable hosts still count as "seen" (they are excluded
        // later by the availability check, not by the crawler).
        let net = SimNet::new();
        let f = GovFilter::standard();
        let report = crawl(&net, &f, &["ghost.gov.bd".to_string()]);
        assert_eq!(report.hostnames, vec!["ghost.gov.bd".to_string()]);
        assert_eq!(report.levels[0].fetched, 0);
    }
}
