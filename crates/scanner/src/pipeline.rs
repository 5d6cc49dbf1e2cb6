//! The end-to-end study pipeline (§4): seeds → MTurk → crawl →
//! whitelist → scan.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use govscan_net::{CidrTable, SimNet, TlsClientConfig};
use govscan_pki::trust::TrustStoreProfile;
use govscan_pki::Time;
use govscan_worldgen::hosting::provider_table;
use govscan_worldgen::{Posture, RankingList, StreamPlan, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::crawler::{self, CrawlReport};
use crate::dataset::{ScanDataset, ScanRecord};
use crate::filter::GovFilter;
use crate::mturk::{self, MturkReport};
use crate::probe::{scan_hosts, ScanContext};
use crate::seeds;

/// The output of a full study run.
pub struct StudyOutput {
    /// The §4.1 seed list (filtered merge of the ranking datasets).
    pub seed_list: Vec<String>,
    /// The MTurk expansion report (§4.2.1).
    pub mturk: MturkReport,
    /// The crawl report (§4.2.2, Figure A.4).
    pub crawl: CrawlReport,
    /// The final measured hostname list (crawl ∪ MTurk ∪ whitelist,
    /// government-filtered — the paper's 135,408).
    pub final_list: Vec<String>,
    /// The worldwide scan results.
    pub scan: ScanDataset,
}

/// The discovery half of the methodology (§4.1–§4.2): everything up to
/// — but not including — the measurement scan, which
/// [`StudyPipeline::run`] then makes over [`Discovery::final_list`].
/// Discovery needs the materialized [`World`]; the streamed, monitored
/// and distributed scans skip it and cover the planned population
/// through [`ShardScanner`] instead.
pub struct Discovery {
    /// The §4.1 seed list.
    pub seed_list: Vec<String>,
    /// The MTurk expansion report (§4.2.1).
    pub mturk: MturkReport,
    /// The crawl report (§4.2.2).
    pub crawl: CrawlReport,
    /// The final hostname list: sorted, deduplicated, lowercase.
    pub final_list: Vec<String>,
}

/// Scans explicit hostname lists and annotates the records — the
/// measurement half of the pipeline, detached from any materialized
/// [`World`].
///
/// Holds the three annotation inputs a scan needs beyond its
/// [`ScanContext`]: the government filter, a hostname → rank index over
/// the authoritative ranking list (a hash lookup, replacing the linear
/// `RankingList::rank_of` scan that made per-record annotation O(list)
/// at paper scale), and the scan time. [`ShardScanner`] builds one from
/// [`StreamPlan::tranco`] and scans shard after shard through it;
/// [`StudyPipeline::scan_list_with`] delegates here.
pub struct ListScanner {
    filter: GovFilter,
    ranks: HashMap<String, u32>,
    scan_time: Time,
}

impl ListScanner {
    /// A scanner annotating from `tranco` at `scan_time`.
    pub fn new(tranco: &RankingList, scan_time: Time) -> ListScanner {
        let mut ranks = HashMap::with_capacity(tranco.entries.len());
        for e in &tranco.entries {
            // Entries are rank-sorted; keeping the first occurrence
            // matches `rank_of` (lowest rank wins) if a name repeats.
            ranks.entry(e.hostname.clone()).or_insert(e.rank);
        }
        ListScanner {
            filter: GovFilter::standard(),
            ranks,
            scan_time,
        }
    }

    /// Scan `hostnames` through `ctx` and annotate country + rank. The
    /// annotations depend only on the hostname, which is what makes a
    /// sharded scan merge byte-identical to a whole-list one.
    pub fn scan_list_with(&self, ctx: &ScanContext<'_>, hostnames: &[String]) -> ScanDataset {
        ScanDataset::new(self.scan_records(ctx, hostnames), self.scan_time)
    }

    /// [`Self::scan_list_with`]'s annotated records, in input order,
    /// without the dataset's hostname index.
    pub(crate) fn scan_records(
        &self,
        ctx: &ScanContext<'_>,
        hostnames: &[String],
    ) -> Vec<ScanRecord> {
        let mut records = scan_hosts(ctx, hostnames);
        for r in &mut records {
            r.country = self.filter.classify(&r.hostname);
            r.tranco_rank = self.ranks.get(&r.hostname).copied();
        }
        records
    }
}

/// Scans the realized shards of a planned world: the one scan step of
/// the streamed pipeline's producer, of both monitor epoch arms and of
/// every distributed worker.
///
/// Holds the setup those share: the plan's Apple trust store and EV
/// registry, the hosting-provider table, and a [`ListScanner`] over the
/// plan's Tranco list for annotation. Each [`Self::scan`] builds a fresh
/// [`ScanContext`] with the default TLS client, so a shard's verdict
/// cache lives and dies with the shard; the cache is observationally
/// transparent, so per-shard caches scan identically to one warm global
/// cache.
pub struct ShardScanner<'p> {
    plan: &'p StreamPlan,
    annotate: ListScanner,
    providers: CidrTable<(&'static str, bool)>,
    scan_time: Time,
}

impl<'p> ShardScanner<'p> {
    /// A scanner over `plan`'s shards at `scan_time`: the plan's own
    /// [`StreamPlan::scan_time`] for the base world, an epoch's time for
    /// the monitor.
    pub fn new(plan: &'p StreamPlan, scan_time: Time) -> ShardScanner<'p> {
        ShardScanner {
            plan,
            annotate: ListScanner::new(plan.tranco(), scan_time),
            providers: provider_table(),
            scan_time,
        }
    }

    /// Scan `hostnames` against `net`, a realized shard or a realized
    /// subset of one.
    pub fn scan(&self, net: &SimNet, hostnames: &[String]) -> ScanDataset {
        ScanDataset::new(self.scan_records(net, hostnames), self.scan_time)
    }

    /// Realize shard `i` of the plan's base world and scan it: the
    /// streamed pipeline's producer, which a distributed worker also runs
    /// on every shard it is leased. Both only read the records, in shard
    /// order, so they get them without a dataset's hostname index.
    pub fn scan_shard(&self, i: usize) -> Vec<ScanRecord> {
        let shard = self.plan.realize_shard(i);
        self.scan_records(&shard.net, &shard.hostnames)
    }

    /// [`Self::scan`]'s records, in input order.
    fn scan_records(&self, net: &SimNet, hostnames: &[String]) -> Vec<ScanRecord> {
        let cadb = self.plan.cadb();
        let ctx = ScanContext::new(
            net,
            cadb.trust_store(TrustStoreProfile::Apple),
            cadb.ev_registry(),
            &self.providers,
            self.scan_time,
            TlsClientConfig::default(),
        );
        self.annotate.scan_records(&ctx, hostnames)
    }
}

/// The crowd directory (§4.2.1), built in one pass over `world.gov_hosts`:
/// each country's reachable government hosts in generation order, the
/// first [`mturk::DIRECTORY_CAP`] of each.
fn crowd_directory(world: &World) -> HashMap<&'static str, Vec<String>> {
    let mut directory: HashMap<&'static str, Vec<String>> = HashMap::new();
    for h in &world.gov_hosts {
        let r = &world.records[h];
        if matches!(r.posture, Posture::Unreachable) {
            continue;
        }
        let known = directory.entry(r.country).or_default();
        if known.len() < mturk::DIRECTORY_CAP {
            known.push(h.clone());
        }
    }
    directory
}

/// Drives the full §4 methodology against a generated world.
pub struct StudyPipeline<'w> {
    world: &'w World,
    filter: GovFilter,
    trust_profile: TrustStoreProfile,
    scan_time: Time,
    scanner: OnceLock<ListScanner>,
}

impl<'w> StudyPipeline<'w> {
    /// New pipeline over `world` with the paper's configuration (Apple
    /// trust store).
    pub fn new(world: &'w World) -> Self {
        StudyPipeline {
            world,
            filter: GovFilter::standard(),
            trust_profile: TrustStoreProfile::Apple,
            scan_time: world.scan_time(),
            scanner: OnceLock::new(),
        }
    }

    /// Scan at a different date (the §7.2.2 follow-up ran two months
    /// after the original snapshot).
    pub fn with_scan_time(mut self, at: Time) -> Self {
        self.scan_time = at;
        self.scanner = OnceLock::new();
        self
    }

    /// Use a different trust store (§4.3 discusses the choice).
    pub fn with_trust_profile(mut self, profile: TrustStoreProfile) -> Self {
        self.trust_profile = profile;
        self
    }

    /// The scan context for this pipeline. Each context carries a fresh
    /// verdict cache bound to the pipeline's current trust profile and
    /// scan time, so reconfiguring via [`Self::with_scan_time`] or
    /// [`Self::with_trust_profile`] can never replay stale verdicts.
    pub fn context(&self) -> ScanContext<'w> {
        ScanContext::new(
            &self.world.net,
            self.world.cadb.trust_store(self.trust_profile),
            self.world.cadb.ev_registry(),
            &self.world.provider_table,
            self.scan_time,
            TlsClientConfig::default(),
        )
    }

    /// Scan an explicit hostname list (used by the case studies and the
    /// disclosure re-scan), annotating countries via the filter.
    pub fn scan_list(&self, hostnames: &[String]) -> ScanDataset {
        self.scan_list_with(&self.context(), hostnames)
    }

    /// [`Self::scan_list`] against a caller-held context, so several
    /// lists scanned through one context share its chain-verdict cache.
    /// Delegates to a lazily built (and then reused) [`ListScanner`]
    /// over the world's tranco list.
    pub fn scan_list_with(&self, ctx: &ScanContext<'w>, hostnames: &[String]) -> ScanDataset {
        self.scanner
            .get_or_init(|| ListScanner::new(&self.world.tranco, self.scan_time))
            .scan_list_with(ctx, hostnames)
    }

    /// Run the discovery half of §4: seeds → MTurk → crawl → whitelist
    /// merge. Pure list-building; no scanning.
    pub fn discover(&self) -> Discovery {
        // §4.1: seed list from the ranking datasets.
        let seed_list = seeds::build_seed_list(
            &self.filter,
            &[&self.world.tranco, &self.world.majestic, &self.world.cisco],
        );

        // §4.2.1: MTurk expansion for countries with < 11 seed hosts.
        let seed_counts = seeds::seeds_per_country(&self.filter, &seed_list);
        let seed_set: HashSet<String> = seed_list.iter().cloned().collect();
        let countries: Vec<&'static str> = govscan_worldgen::countries::active_countries()
            .map(|c| c.code)
            .collect();
        let mut rng = StdRng::seed_from_u64(self.world.config.seed ^ 0x4d74_726b);
        let directory = crowd_directory(self.world);
        let mturk = mturk::expand(&mut rng, &countries, &seed_counts, &seed_set, |cc| {
            directory.get(cc).cloned().unwrap_or_default()
        });

        // §4.2.2: crawl from seed ∪ MTurk.
        let mut crawl_seeds = seed_list.clone();
        crawl_seeds.extend(mturk.new_hostnames.iter().cloned());
        let crawl = crawler::crawl(&self.world.net, &self.filter, &crawl_seeds);

        // §4.2.3: add the hand-curated whitelist (not crawled).
        let mut final_set: HashSet<String> = crawl.government_hostnames.iter().cloned().collect();
        for h in &self.world.whitelist {
            final_set.insert(h.to_ascii_lowercase());
        }
        let mut final_list: Vec<String> = final_set.into_iter().collect();
        final_list.sort();

        Discovery {
            seed_list,
            mturk,
            crawl,
            final_list,
        }
    }

    /// Whitelisted hostnames don't match the conservative filter; the
    /// hand-curation that added them also recorded their country
    /// (§4.2.3), which this carries over onto the scanned records.
    pub fn annotate_whitelist(&self, scan: &mut ScanDataset) {
        for h in &self.world.whitelist {
            let Some(truth) = self.world.record(h) else {
                continue;
            };
            if let Some(r) = scan.get_mut(&h.to_ascii_lowercase()) {
                if r.country.is_none() {
                    r.country = Some(truth.country);
                }
            }
        }
    }

    /// Run the complete §4 methodology: [`Self::discover`], then the
    /// §4.2.3 measurement scan, then [`Self::annotate_whitelist`].
    pub fn run(&self) -> StudyOutput {
        let discovery = self.discover();
        let mut scan = self.scan_list(&discovery.final_list);
        self.annotate_whitelist(&mut scan);
        StudyOutput {
            seed_list: discovery.seed_list,
            mturk: discovery.mturk,
            crawl: discovery.crawl,
            final_list: discovery.final_list,
            scan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govscan_worldgen::WorldConfig;

    fn output() -> (World, StudyOutput) {
        let world = World::generate(&WorldConfig::small(321));
        let out = StudyPipeline::new(&world).run();
        (world, out)
    }

    #[test]
    fn pipeline_grows_the_dataset_like_the_paper() {
        let (_world, out) = output();
        // §4.2: the crawl + whitelist grows the seed list several-fold
        // (27,532 → 135,408 ≈ 4.9× in the paper).
        assert!(out.seed_list.len() > 50);
        let growth = out.final_list.len() as f64 / out.seed_list.len() as f64;
        assert!(
            (2.5..11.0).contains(&growth),
            "growth {growth} ({} → {})",
            out.seed_list.len(),
            out.final_list.len()
        );
    }

    #[test]
    fn final_list_is_mostly_outside_the_seed() {
        let (_world, out) = output();
        let seed: HashSet<&String> = out.seed_list.iter().collect();
        let outside = out.final_list.iter().filter(|h| !seed.contains(h)).count();
        let share = outside as f64 / out.final_list.len() as f64;
        // The paper: >90% of the final dataset is outside the top millions.
        assert!(share > 0.6, "long-tail share {share}");
    }

    #[test]
    fn scan_covers_final_list() {
        let (_world, out) = output();
        assert_eq!(out.scan.len(), out.final_list.len());
        assert!(out.scan.available().count() > out.scan.len() / 2);
    }

    #[test]
    fn countries_are_annotated() {
        let (_world, out) = output();
        let with_country = out
            .scan
            .records()
            .iter()
            .filter(|r| r.country.is_some())
            .count();
        assert_eq!(
            with_country,
            out.scan.len(),
            "every gov host gets a country"
        );
    }

    #[test]
    fn whitelist_only_countries_present_via_whitelist() {
        let (world, out) = output();
        let de_hosts: Vec<&String> = out
            .final_list
            .iter()
            .filter(|h| world.records.get(*h).map(|r| r.country) == Some("de"))
            .collect();
        assert!(!de_hosts.is_empty(), "German hosts enter via whitelist");
    }

    #[test]
    fn crawl_growth_declines_in_later_levels() {
        let (_world, out) = output();
        let g = &out.crawl.levels;
        assert!(g[1].discovered > 0);
        let early: usize = g[1..4].iter().map(|l| l.discovered).sum();
        let late: usize = g[5..8].iter().map(|l| l.discovered).sum();
        assert!(early > late, "early {early} vs late {late}");
    }

    /// The crowd directory as it was built before [`crowd_directory`]:
    /// every government host filtered once per country. Kept as the
    /// reference the one-pass grouping must equal.
    fn reference_directory(world: &World, cc: &str) -> Vec<String> {
        world
            .gov_hosts
            .iter()
            .filter(|h| {
                let r = &world.records[*h];
                r.country == cc && !matches!(r.posture, Posture::Unreachable)
            })
            .take(40)
            .cloned()
            .collect()
    }

    #[test]
    fn crowd_directory_equals_the_per_country_filter() {
        for seed in [321, 0xA11A] {
            let world = World::generate(&WorldConfig::small(seed));
            let directory = crowd_directory(&world);
            for cc in govscan_worldgen::countries::active_countries().map(|c| c.code) {
                assert_eq!(
                    directory.get(cc).cloned().unwrap_or_default(),
                    reference_directory(&world, cc),
                    "{cc} at seed {seed}"
                );
            }
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let world = World::generate(&WorldConfig::small(99));
        let a = StudyPipeline::new(&world).run();
        let b = StudyPipeline::new(&world).run();
        assert_eq!(a.final_list, b.final_list);
        assert_eq!(a.scan.valid().count(), b.scan.valid().count());
    }
}
