//! Figure A.5 / §7.3.3: cross-government links between countries — and
//! the MITM risk of https pages linking to http-only foreign sites.

use std::collections::{BTreeMap, HashSet};

use govscan_net::{html, HttpOutcome, SimNet, TlsClientConfig};
use govscan_scanner::{GovFilter, ScanDataset, ScanRecord};

use crate::table::TextTable;

/// The interlink report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterlinkReport {
    /// For each country: the set of *other* countries its pages link to.
    pub out_degree: BTreeMap<&'static str, usize>,
    /// For each country: how many countries link *to* it.
    pub in_degree: BTreeMap<&'static str, usize>,
    /// https pages that link to plain-http government sites of another
    /// country (the §7.3 MITM-risk pattern).
    pub https_to_http_links: u64,
}

/// Crawl the scanned hosts' pages and measure cross-country links, one
/// host per job on `GOVSCAN_THREADS` workers.
pub fn build(net: &SimNet, filter: &GovFilter, scan: &ScanDataset) -> InterlinkReport {
    build_on(
        govscan_exec::resolve_threads("GOVSCAN_THREADS"),
        net,
        filter,
        scan,
    )
}

/// [`build`] on `threads` workers. Each available host's page is fetched
/// and parsed on the executor, and its links fold serially in scan
/// order; the report holds only sets and a count, so it does not depend
/// on `threads`.
pub(crate) fn build_on(
    threads: usize,
    net: &SimNet,
    filter: &GovFilter,
    scan: &ScanDataset,
) -> InterlinkReport {
    let client = TlsClientConfig::default();
    let hosts: Vec<(&ScanRecord, &'static str)> = scan
        .available()
        .filter_map(|r| Some((r, r.country?)))
        .collect();
    let pages = govscan_exec::par_map_indexed(threads, hosts.len(), |i| {
        let (r, src) = hosts[i];
        cross_links(net, &client, filter, scan, r, src)
    });
    let mut out_sets: BTreeMap<&'static str, HashSet<&'static str>> = BTreeMap::new();
    let mut in_sets: BTreeMap<&'static str, HashSet<&'static str>> = BTreeMap::new();
    let mut risky = 0u64;
    for (&(_, src), links) in hosts.iter().zip(pages) {
        for (dst, mitm) in links {
            out_sets.entry(src).or_default().insert(dst);
            in_sets.entry(dst).or_default().insert(src);
            risky += u64::from(mitm);
        }
    }
    InterlinkReport {
        out_degree: out_sets.into_iter().map(|(k, v)| (k, v.len())).collect(),
        in_degree: in_sets.into_iter().map(|(k, v)| (k, v.len())).collect(),
        https_to_http_links: risky,
    }
}

/// The links on `r`'s page to another country's government (`r` is in
/// `src`), each with whether it is the §7.3 MITM-risk pattern: an https
/// page linking over plain http to an available foreign site that does
/// not attempt https.
fn cross_links(
    net: &SimNet,
    client: &TlsClientConfig,
    filter: &GovFilter,
    scan: &ScanDataset,
    r: &ScanRecord,
    src: &'static str,
) -> Vec<(&'static str, bool)> {
    let page = match net.fetch(&r.hostname, r.https.is_valid(), client) {
        HttpOutcome::Response(resp) if resp.is_ok() => resp.body(),
        _ => return Vec::new(),
    };
    html::extract_links(&page)
        .into_iter()
        .filter_map(|link| {
            let target = html::link_hostname(&link)?;
            let dst = filter.classify(&target).filter(|&dst| dst != src)?;
            let mitm = r.https.is_valid()
                && link.starts_with("http://")
                && scan
                    .get(&target)
                    .is_some_and(|t| t.available && !t.https.attempts());
            Some((dst, mitm))
        })
        .collect()
}

impl InterlinkReport {
    /// Share of countries linking to at least `k` other governments
    /// (paper: 75% of countries link to ≥7).
    pub fn share_linking_at_least(&self, k: usize) -> f64 {
        if self.out_degree.is_empty() {
            return 0.0;
        }
        let n = self.out_degree.values().filter(|&&d| d >= k).count();
        n as f64 / self.out_degree.len() as f64
    }

    /// The country with the highest out-degree (paper: Austria, 70).
    pub fn top_linker(&self) -> Option<(&'static str, usize)> {
        self.out_degree
            .iter()
            .map(|(k, v)| (*k, *v))
            .max_by_key(|(_, v)| *v)
    }

    /// Render the top rows.
    pub fn render(&self) -> String {
        let mut rows: Vec<(&'static str, usize)> =
            self.out_degree.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mut t = TextTable::new(vec!["Country", "Links to N other governments"]);
        for (cc, d) in rows.into_iter().take(20) {
            t.row(vec![cc.to_string(), d.to_string()]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "https→http cross-government links (MITM risk): {}\n",
            self.https_to_http_links
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::study;
    use govscan_scanner::StudyPipeline;
    use govscan_worldgen::{World, WorldConfig};
    use std::sync::OnceLock;

    static REPORT: OnceLock<InterlinkReport> = OnceLock::new();

    fn report() -> &'static InterlinkReport {
        REPORT.get_or_init(|| {
            let (world, out) = study();
            build(&world.net, &GovFilter::standard(), &out.scan)
        })
    }

    /// The report as it was built before it ran on the executor: one
    /// serial loop fetching, parsing and folding each host in turn. Kept
    /// as the reference [`build_on`] must equal at any thread count.
    fn reference_build(net: &SimNet, filter: &GovFilter, scan: &ScanDataset) -> InterlinkReport {
        let client = TlsClientConfig::default();
        let mut out_sets: BTreeMap<&'static str, HashSet<&'static str>> = BTreeMap::new();
        let mut in_sets: BTreeMap<&'static str, HashSet<&'static str>> = BTreeMap::new();
        let mut risky = 0u64;
        for r in scan.available() {
            let Some(src) = r.country else { continue };
            let page = match net.fetch(&r.hostname, r.https.is_valid(), &client) {
                HttpOutcome::Response(resp) if resp.is_ok() => resp.body(),
                _ => continue,
            };
            for link in html::extract_links(&page) {
                let Some(target) = html::link_hostname(&link) else {
                    continue;
                };
                let Some(dst) = filter.classify(&target) else {
                    continue;
                };
                if dst == src {
                    continue;
                }
                out_sets.entry(src).or_default().insert(dst);
                in_sets.entry(dst).or_default().insert(src);
                if r.https.is_valid() && link.starts_with("http://") {
                    if let Some(t) = scan.get(&target) {
                        if t.available && !t.https.attempts() {
                            risky += 1;
                        }
                    }
                }
            }
        }
        InterlinkReport {
            out_degree: out_sets.into_iter().map(|(k, v)| (k, v.len())).collect(),
            in_degree: in_sets.into_iter().map(|(k, v)| (k, v.len())).collect(),
            https_to_http_links: risky,
        }
    }

    #[test]
    fn parallel_build_equals_the_serial_loop() {
        let filter = GovFilter::standard();
        let (world, out) = study();
        let other = World::generate(&WorldConfig::small(321));
        let other_scan = StudyPipeline::new(&other).run().scan;
        for (world, scan) in [(world, &out.scan), (&other, &other_scan)] {
            let reference = reference_build(&world.net, &filter, scan);
            assert!(
                reference.https_to_http_links > 0,
                "the MITM count is exercised"
            );
            for threads in [1, 4] {
                assert_eq!(
                    build_on(threads, &world.net, &filter, scan),
                    reference,
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn cross_links_exist_broadly() {
        let r = report();
        assert!(
            r.out_degree.len() > 30,
            "countries with out-links: {}",
            r.out_degree.len()
        );
        assert!(r.share_linking_at_least(2) > 0.4);
    }

    #[test]
    fn austria_is_a_hub() {
        // The generator wires Austria as the paper's biggest hub.
        let r = report();
        let at = r.out_degree.get("at").copied().unwrap_or(0);
        let median = {
            let mut ds: Vec<usize> = r.out_degree.values().copied().collect();
            ds.sort_unstable();
            ds[ds.len() / 2]
        };
        assert!(at > median, "austria {at} vs median {median}");
    }

    #[test]
    fn in_degree_is_populated() {
        let r = report();
        assert!(!r.in_degree.is_empty());
        let max_in = r.in_degree.values().max().copied().unwrap_or(0);
        assert!(max_in >= 2, "some country is linked by ≥2 others");
    }

    #[test]
    fn renders() {
        let s = report().render();
        assert!(s.contains("MITM risk"));
    }
}
