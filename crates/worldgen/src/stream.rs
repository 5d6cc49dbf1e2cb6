//! Deterministic per-shard RNG streams, and the world plan that every
//! generator entry point runs on.
//!
//! The generator never threads one `StdRng` through its phases. Instead
//! each (phase, shard) pair — e.g. `("realize", "br")` — hashes to an
//! independent stream seed, so every shard's draws are fixed by the world
//! seed alone and the output is bit-identical regardless of how many
//! worker threads run or how the scheduler interleaves them. See
//! DESIGN.md §9.
//!
//! That property is what makes [`StreamPlan`] possible: because every
//! shard's content is a pure function of `(config, seeder, shard)`, a
//! country's hosts can be generated, handed to a consumer, and *dropped*
//! — then regenerated bit-identically on demand. [`stream_shards`] runs
//! the cheap cross-shard planning walk once (rankings, §5.3.3 clusters)
//! and then yields one [`ShardWorld`] per country in deterministic shard
//! order, never holding more than the in-flight shards in memory. The
//! streamed generate→scan→archive pipeline in `govscan-repro` is built
//! on it, and [`World::generate`] folds the same country shards into the
//! materialized world, so a streamed shard is its slice of that world by
//! construction (DESIGN.md §14).
//!
//! Shards run on the shared executor, [`govscan_exec::par_map`], with
//! the worker count from `GOVSCAN_THREADS`.
//!
//! [`World::generate`]: crate::World::generate

use std::collections::HashMap;

use govscan_asn1::Time;
use govscan_net::SimNet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cadb::CaDb;
use crate::config::WorldConfig;
use crate::countries::{self, Country};
use crate::host::{HostRecord, Posture};
use crate::rankings::RankingList;
use crate::webgraph::WebGraph;
use crate::world::{
    build_tranco, cluster_candidate_cap, cluster_candidate_countries, country_host_count,
    plan_reuse_clusters, worldwide_country_records, RealizeBatch, SharedCluster,
};

/// Derives independent RNG streams from the world seed.
#[derive(Debug, Clone, Copy)]
pub struct StreamSeeder {
    world_seed: u64,
}

impl StreamSeeder {
    /// A seeder for the given world seed.
    pub fn new(world_seed: u64) -> StreamSeeder {
        StreamSeeder { world_seed }
    }

    /// Stable 64-bit stream id for `(world_seed, phase, shard)`.
    ///
    /// FNV-1a over the tag bytes (with a `0xff` separator, which cannot
    /// occur in ASCII tags, so `("ab","c")` ≠ `("a","bc")`), finished
    /// with a SplitMix64 mix so nearby tags land far apart.
    pub fn stream_id(&self, phase: &str, shard: &str) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        for b in self
            .world_seed
            .to_le_bytes()
            .iter()
            .chain([0xffu8].iter())
            .chain(phase.as_bytes())
            .chain([0xffu8].iter())
            .chain(shard.as_bytes())
        {
            h ^= *b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        // SplitMix64 finalizer.
        h = h.wrapping_add(0x9e3779b97f4a7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
        h ^ (h >> 31)
    }

    /// An independent `StdRng` for `(phase, shard)`.
    pub fn rng(&self, phase: &str, shard: &str) -> StdRng {
        StdRng::seed_from_u64(self.stream_id(phase, shard))
    }
}

/// Plan a streamed world: run the cross-shard phases once, cheaply, and
/// return a [`StreamPlan`] that realizes one country shard at a time.
///
/// The worldwide government population of [`World::generate`] — same
/// seed, same hosts, same wire behaviour — but the plan holds only the
/// cross-shard state (ranking list, §5.3.3 cluster chains, CA roster),
/// never the realized hosts. Peak memory is set by how many
/// [`ShardWorld`]s the caller keeps in flight, not by
/// [`WorldConfig::scale`].
///
/// [`World::generate`]: crate::World::generate
pub fn stream_shards(config: &WorldConfig) -> StreamPlan {
    StreamPlan::new(config)
}

/// The cross-shard state of a world — everything whose construction
/// must see more than one country — and the one generator of its
/// worldwide population.
///
/// Built by one planning walk:
///
/// 1. **Transient population pass** — ranked-pool membership is drawn
///    first, serially in global host order, from each country's host
///    count alone. Then each country's records are generated from its own
///    `("worldwide", cc)` stream on the shared executor and immediately
///    reduced to what the plan needs: the hostnames those draws accepted,
///    and a capped per-country candidate prefix for the cluster walk.
/// 2. **§5.3.3 cluster plan** — `plan_reuse_clusters`, RNG-free.
/// 3. **Tranco** — the `("rankings", "")` stream, stopping where the
///    other two ranking lists (which only feed discovery, not the
///    scanned population) would start.
///
/// [`Self::realize_shard`] then regenerates a country's records from the
/// same streams and applies the plan. [`World::generate`] folds the same
/// per-country kernel into the materialized world, so every shard is
/// bit-identical to its slice of that world at any thread count.
///
/// [`World::generate`]: crate::World::generate
pub struct StreamPlan {
    config: WorldConfig,
    seeder: StreamSeeder,
    cadb: CaDb,
    countries: Vec<&'static Country>,
    total_weight: f64,
    clusters: Vec<SharedCluster>,
    shared_chain_of: HashMap<String, usize>,
    tranco: RankingList,
    host_count: u64,
}

impl StreamPlan {
    /// Run the planning walk for `config`.
    pub fn new(config: &WorldConfig) -> StreamPlan {
        StreamPlan::for_world(config).0
    }

    /// [`Self::new`], also handing back what the materialized world's
    /// other two ranking lists continue from: the `("rankings", "")`
    /// stream where Tranco left it, and the ranked pool Tranco drew.
    pub(crate) fn for_world(config: &WorldConfig) -> (StreamPlan, StdRng, Vec<String>) {
        let config = config.clone();
        let seeder = StreamSeeder::new(config.seed);
        let mut cadb = CaDb::build(config.seed);
        let countries: Vec<&'static Country> = countries::active_countries().collect();
        let total_weight = countries::total_weight();
        let needed = cluster_candidate_countries(&config);

        // Ranked-pool membership: one draw per host from the single
        // `("rankings", "")` stream, in global host order. A draw needs only
        // its country's host count and rate, both known before any record
        // exists, so every draw is made here, serially, and each country
        // keeps the indices of its accepted hosts.
        let mut rankings_rng = seeder.rng("rankings", "");
        let mut host_count = 0u64;
        let accepted: Vec<Vec<usize>> = countries
            .iter()
            .map(|country| {
                let n = country_host_count(&config, country, total_weight);
                host_count += n;
                // Higher-tech countries are far more likely to be ranked.
                let rate = 0.18 + 0.6 * country.tech;
                (0..n as usize)
                    .filter(|_| rankings_rng.gen::<f64>() < rate)
                    .collect()
            })
            .collect();

        // Transient: each country's records are generated on the shared
        // executor, reduced to its pool members and (for the countries the
        // cluster walk can consult) its capped candidate prefix, and
        // dropped.
        let jobs: Vec<_> = countries.iter().copied().zip(accepted).collect();
        let threads = govscan_exec::resolve_threads("GOVSCAN_THREADS");
        let reduced = govscan_exec::par_map(threads, jobs, |_, (country, accepted)| {
            let mut records = worldwide_country_records(&config, seeder, country, total_weight);
            // Candidacy is judged on original postures; the flips the
            // plan will imply keep `attempts_https`.
            let cand: Option<Vec<String>> = needed.contains(country.code).then(|| {
                records
                    .iter()
                    .filter(|rec| rec.posture.attempts_https())
                    .take(cluster_candidate_cap(&config, country.code))
                    .map(|rec| rec.hostname.clone())
                    .collect()
            });
            let members: Vec<String> = accepted
                .into_iter()
                .map(|i| std::mem::take(&mut records[i].hostname))
                .collect();
            (members, cand)
        });
        let mut pool: Vec<String> = Vec::new();
        let mut candidates: HashMap<&'static str, Vec<String>> = HashMap::new();
        for (country, (members, cand)) in countries.iter().zip(reduced) {
            pool.extend(members);
            if let Some(cand) = cand {
                candidates.insert(country.code, cand);
            }
        }
        let cluster_plan = plan_reuse_clusters(&config, &mut cadb, &candidates);
        let (ranked_pool, tranco) = build_tranco(&config, &mut rankings_rng, pool);

        let plan = StreamPlan {
            config,
            seeder,
            cadb,
            countries,
            total_weight,
            clusters: cluster_plan.clusters,
            shared_chain_of: cluster_plan.shared_chain_of,
            tranco,
            host_count,
        };
        (plan, rankings_rng, ranked_pool)
    }

    /// The parts a materialized world keeps once every batch is
    /// realized: the config, the CA roster (its CT log already holding
    /// the §5.3.3 cluster leaves) and the Tranco list.
    pub(crate) fn into_world_parts(self) -> (WorldConfig, CaDb, RankingList) {
        (self.config, self.cadb, self.tranco)
    }

    /// Number of shards (one per active country), fixed by the config.
    pub fn shard_count(&self) -> usize {
        self.countries.len()
    }

    /// Total hosts across all shards (known after planning, before any
    /// shard is realized).
    pub fn host_count(&self) -> u64 {
        self.host_count
    }

    /// The authoritative ranking list — the rank annotation source for
    /// scanning the streamed shards.
    pub fn tranco(&self) -> &RankingList {
        &self.tranco
    }

    /// The CA roster (trust stores, EV registry) the shards issue from.
    pub fn cadb(&self) -> &CaDb {
        &self.cadb
    }

    /// The plan's configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The configured scan snapshot time.
    pub fn scan_time(&self) -> Time {
        self.config.scan_time
    }

    /// The stream seeder every phase derives its RNG streams from.
    pub(crate) fn seeder(&self) -> StreamSeeder {
        self.seeder
    }

    /// The §5.3.3 cluster table.
    pub(crate) fn clusters(&self) -> &[SharedCluster] {
        &self.clusters
    }

    /// hostname → index into [`Self::clusters`].
    pub(crate) fn shared_chain_of(&self) -> &HashMap<String, usize> {
        &self.shared_chain_of
    }

    /// The active countries, in shard order.
    pub(crate) fn countries(&self) -> &[&'static Country] {
        &self.countries
    }

    /// Country `idx`'s government records in generation order, with the
    /// §5.3.3 cluster postures applied: the population that shards, the
    /// materialized world and the evolution model all start from.
    pub(crate) fn country_records(&self, idx: usize) -> Vec<HostRecord> {
        let country = self.countries[idx];
        let mut records =
            worldwide_country_records(&self.config, self.seeder, country, self.total_weight);
        for rec in &mut records {
            if let Some(&ci) = self.shared_chain_of.get(&rec.hostname) {
                rec.posture = Posture::InvalidHttps {
                    error: self.clusters[ci].error,
                };
            }
        }
        records
    }

    /// The per-country realize kernel: realize country `idx`'s
    /// `records` (as [`Self::country_records`] returns them) on the
    /// country's `("realize", cc)` stream.
    ///
    /// `graph` supplies each host's outbound links; without one, pages
    /// carry none. Links only shape page *bodies*, which scanning never
    /// reads, and link assignment draws from its own `("webgraph", "")`
    /// stream, so leaving them out cannot shift any draw the realizer
    /// makes.
    pub(crate) fn realize_country(
        &self,
        idx: usize,
        records: Vec<HostRecord>,
        graph: Option<&WebGraph>,
    ) -> RealizeBatch {
        let cc = self.countries[idx].code;
        let mut r = self.realizer("realize", cc);
        r.plan_shared_chains(cc, &records);
        for rec in records {
            let links = graph.map_or(&[][..], |g| g.links_for(&rec.hostname));
            r.realize(rec, links);
        }
        r.into_batch()
    }

    /// Realize shard `idx` (a country) into a self-contained
    /// [`ShardWorld`]: regenerate its records, issue chains, and populate
    /// a per-shard [`SimNet`].
    ///
    /// Pure in `&self`: shards can be realized in any order, in
    /// parallel, or repeatedly — the result is always bit-identical to
    /// the materialized world's slice for that country.
    pub fn realize_shard(&self, idx: usize) -> ShardWorld {
        let batch = self.realize_country(idx, self.country_records(idx), None);
        let mut net = SimNet::new();
        // CT appends are dropped: the scanner never consults the log and
        // the snapshot stores no CT data.
        let (records, _ct) = batch.install(&mut net);
        ShardWorld {
            country: self.countries[idx].code,
            hostnames: records.into_iter().map(|r| r.hostname).collect(),
            net,
        }
    }

    /// All shards, realized lazily in deterministic shard order.
    pub fn shards(&self) -> impl Iterator<Item = ShardWorld> + '_ {
        (0..self.shard_count()).map(|i| self.realize_shard(i))
    }
}

/// One realized shard of a streamed world: a country's government hosts
/// (in generation order) and a [`SimNet`] serving exactly their wire
/// behaviour. Scan it, archive the records, drop it.
pub struct ShardWorld {
    /// ISO country code of the shard.
    pub country: &'static str,
    /// The shard's hostnames, in generation order.
    pub hostnames: Vec<String>,
    /// A network serving only this shard's hosts.
    pub net: SimNet,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_independent() {
        let s = StreamSeeder::new(42);
        let mut a = s.rng("realize", "br");
        let mut b = s.rng("realize", "br");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        // Different shard, phase, or world seed → different stream.
        assert_ne!(s.stream_id("realize", "br"), s.stream_id("realize", "bd"));
        assert_ne!(s.stream_id("realize", "br"), s.stream_id("worldwide", "br"));
        assert_ne!(
            s.stream_id("realize", "br"),
            StreamSeeder::new(43).stream_id("realize", "br")
        );
    }

    #[test]
    fn tag_concatenation_does_not_collide() {
        let s = StreamSeeder::new(7);
        assert_ne!(s.stream_id("ab", "c"), s.stream_id("a", "bc"));
        assert_ne!(s.stream_id("", "abc"), s.stream_id("abc", ""));
    }

    #[test]
    fn shard_nets_serve_the_materialized_wire_behaviour() {
        use govscan_net::{TcpOutcome, TlsClientConfig};

        let config = WorldConfig::small(0x57E5);
        let world = crate::World::generate(&config);
        let plan = stream_shards(&config);
        // The planning walk's count agrees with the regenerated shards.
        assert_eq!(plan.host_count(), world.gov_hosts.len() as u64);
        let client = TlsClientConfig::default();

        let mut chains = 0usize;
        for idx in 0..plan.shard_count() {
            let shard = plan.realize_shard(idx);
            for h in &shard.hostnames {
                // DNS, TCP, CAA, and the served chain must agree between
                // the per-shard net and the full world's.
                assert_eq!(
                    format!("{:?}", shard.net.resolve(h)),
                    format!("{:?}", world.net.resolve(h)),
                    "dns for {h}"
                );
                let tcp = shard.net.tcp_connect(h, 443);
                assert_eq!(
                    format!("{tcp:?}"),
                    format!("{:?}", world.net.tcp_connect(h, 443)),
                    "tcp for {h}"
                );
                assert_eq!(
                    shard.net.caa_lookup(h),
                    world.net.caa_lookup(h),
                    "caa for {h}"
                );
                if !matches!(tcp, TcpOutcome::Accepted) {
                    continue;
                }
                let a = shard.net.tls_connect(h, &client);
                let b = world.net.tls_connect(h, &client);
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        let fp = |c: &std::sync::Arc<[govscan_pki::Certificate]>| -> Vec<_> {
                            c.iter().map(|x| x.fingerprint()).collect()
                        };
                        assert_eq!(fp(&a.peer_chain), fp(&b.peer_chain), "chain for {h}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "tls error for {h}"),
                    (a, b) => panic!("tls diverged for {h}: {:?} vs {:?}", a.is_ok(), b.is_ok()),
                }
            }
            chains += shard.hostnames.len();
        }
        assert_eq!(chains, world.gov_hosts.len());
    }
}
