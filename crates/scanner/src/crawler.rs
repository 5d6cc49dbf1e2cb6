//! The 7-level breadth-first crawler (§4.2.2, Figure A.4).
//!
//! Starting from the seed list, the crawler fetches each hostname's root
//! page (following one http→https redirect), extracts every anchor from
//! the real HTML, keeps links whose hostname carries a valid country-code
//! TLD, and enqueues unseen hostnames up to 7 levels deep. Growth per
//! level is recorded for the Figure A.4 reproduction.
//!
//! The crawl is level-synchronous. Each level's frontier is fetched and
//! parsed on the shared executor (`govscan_exec::par_map_indexed`), one
//! job per host, and a job returns only its link count and its
//! crawlable targets, never the page body. The targets then merge
//! serially, in frontier order, into the seen set, the level's stats
//! and the next frontier. That is the order a FIFO queue visits hosts
//! in, so the report is the serial breadth-first crawl's at any thread
//! count, with one merge per fetched level (depth-7 hosts are recorded
//! but never fetched).

use std::borrow::Cow;
use std::collections::HashSet;

use govscan_net::html;
use govscan_net::{HttpOutcome, SimNet, TlsClientConfig};

use crate::filter::GovFilter;

/// Maximum crawl depth (the paper terminated at 7).
pub const MAX_DEPTH: u8 = 7;

/// Per-level crawl statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Hostnames first seen at this level.
    pub discovered: usize,
    /// Of those, hostnames passing the government filter.
    pub government: usize,
    /// Pages successfully fetched at this level.
    pub fetched: usize,
}

/// The crawl result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
fn fetch_page(net: &SimNet, client: &TlsClientConfig, host: &str) -> Option<Cow<'static, str>> {
    match net.fetch(host, false, client) {
        HttpOutcome::Response(r) if r.is_ok() => return Some(r.body()),
        HttpOutcome::Response(r) if r.is_redirect() => {
            // Follow to https (the common http→https upgrade).
            if let HttpOutcome::Response(r2) = net.fetch(host, true, client) {
                if r2.is_ok() {
                    return Some(r2.body());
                }
            }
        }
        _ => {}
    }
    match net.fetch(host, true, client) {
        HttpOutcome::Response(r) if r.is_ok() => Some(r.body()),
        _ => None,
    }
}

/// What one fetched page contributes to the crawl.
struct Page {
    /// Every link extracted, including rejected ones.
    links: usize,
    /// The crawlable link targets, in page order, duplicates kept.
    targets: Vec<String>,
}

/// Fetch and parse `host`'s page; `None` if no page could be fetched.
fn visit(net: &SimNet, client: &TlsClientConfig, filter: &GovFilter, host: &str) -> Option<Page> {
    let body = fetch_page(net, client, host)?;
    let links = html::extract_links(&body);
    let targets = links
        .iter()
        .filter_map(|link| html::link_hostname(link))
        // §4.2.2: only links with a valid country-code extension are
        // followed (plus the US bare TLDs).
        .filter(|target| filter.crawlable(target))
        .collect();
    Some(Page {
        links: links.len(),
        targets,
    })
}

/// Run the crawl on `GOVSCAN_THREADS` workers.
pub fn crawl(net: &SimNet, filter: &GovFilter, seeds: &[String]) -> CrawlReport {
    crawl_on(
        govscan_exec::resolve_threads("GOVSCAN_THREADS"),
        net,
        filter,
        seeds,
    )
}

/// [`crawl`] on `threads` workers; the report does not depend on it.
pub(crate) fn crawl_on(
    threads: usize,
    net: &SimNet,
    filter: &GovFilter,
    seeds: &[String],
) -> CrawlReport {
    let client = TlsClientConfig::default();
    let mut report = CrawlReport {
        levels: vec![LevelStats::default(); MAX_DEPTH as usize + 1],
        ..CrawlReport::default()
    };
    let mut seen: HashSet<String> = HashSet::new();
    let mut frontier: Vec<String> = Vec::new();
    let mut discover = |host: String, level: &mut LevelStats, next: &mut Vec<String>| {
        if seen.insert(host.clone()) {
            level.discovered += 1;
            if filter.is_gov(&host) {
                level.government += 1;
            }
            next.push(host);
        }
    };
    for host in seeds {
        discover(
            host.to_ascii_lowercase(),
            &mut report.levels[0],
            &mut frontier,
        );
    }
    for depth in 0..MAX_DEPTH as usize {
        let pages = govscan_exec::par_map_indexed(threads, frontier.len(), |i| {
            visit(net, &client, filter, &frontier[i])
        });
        let mut next = Vec::new();
        for page in pages.into_iter().flatten() {
            report.levels[depth].fetched += 1;
            report.links_seen += page.links;
            for target in page.targets {
                discover(target, &mut report.levels[depth + 1], &mut next);
            }
        }
        frontier = next;
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
    use crate::StudyPipeline;
    use govscan_net::http::HttpResponse;
    use govscan_net::HostConfig;
    use govscan_worldgen::{World, WorldConfig};
    use std::collections::VecDeque;
    use std::net::Ipv4Addr;

    /// The crawl as it ran before it was level-synchronous: one FIFO
    /// queue, each page fetched and merged in turn. Kept as the
    /// reference [`crawl_on`] must equal at any thread count.
    fn reference_crawl(net: &SimNet, filter: &GovFilter, seeds: &[String]) -> CrawlReport {
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

    #[test]
    fn level_synchronous_crawl_equals_the_serial_crawl() {
        let filter = GovFilter::standard();
        for seed in [321, 0xA11A] {
            let world = World::generate(&WorldConfig::small(seed));
            let discovery = StudyPipeline::new(&world).discover();
            let mut seeds = discovery.seed_list;
            seeds.extend(discovery.mturk.new_hostnames);
            let reference = reference_crawl(&world.net, &filter, &seeds);
            assert!(reference.levels[3].fetched > 0, "the crawl reaches level 3");
            for threads in [1, 4] {
                let report = crawl_on(threads, &world.net, &filter, &seeds);
                assert_eq!(
                    report.levels, reference.levels,
                    "{threads} threads, seed {seed}"
                );
                assert_eq!(report.links_seen, reference.links_seen);
                assert!(
                    report == reference,
                    "hostnames differ at {threads} threads, seed {seed}"
                );
            }
        }
    }

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
