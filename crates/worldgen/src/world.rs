//! The materialized world: [`World::generate`] folds the [`StreamPlan`]'s
//! country shards, the cross-country phases (rankings, whitelist, web
//! graph) and the case-study, non-government and phishing populations
//! into one [`SimNet`] with its ground truth.
//!
//! Generation is parallel but deterministic: every hot phase shards its
//! population (by country, dataset or fixed-size chunk), each shard draws
//! from its own [`StreamSeeder`] RNG stream, and shard outputs are merged
//! in a fixed order. The same seed therefore produces the same Internet
//! byte for byte at any worker count — see DESIGN.md §9.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;

use govscan_asn1::Time;
use govscan_crypto::{KeyAlgorithm, KeyPair, SignatureAlgorithm};
use govscan_net::dns::DnsBehavior;
use govscan_net::http::HttpResponse;
use govscan_net::tls::{TlsQuirk, TlsServerConfig};
use govscan_net::{CidrTable, HostConfig, SimNet};
use govscan_pki::ca::{self, LeafProfile};
use govscan_pki::caa::CaaRecord;
use govscan_pki::cert::{Certificate, Validity};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::cadb::CaDb;
use crate::config::WorldConfig;
use crate::countries::{self, Country};
use crate::host::{HostRecord, HostingClass, InjectedError, Posture};
use crate::hostgen::{self, HostnameGen};
use crate::hosting::{provider_table, HostingAssigner};
use crate::posture::{self, PostureRates};
use crate::rankings::{self, RankingEntry, RankingList};
use crate::rok::{ROK, ROK_DEPARTMENTS};
use crate::stream::{StreamPlan, StreamSeeder};
use crate::usa::USA_DATASETS;
use crate::webgraph::{self, GraphHost, WebGraph};

/// Worldwide candidate population at paper scale: the 135,408 reachable
/// hosts plus the 47,458-host unreachable pool (§7.2.2).
const WORLD_CANDIDATES: u64 = 183_000;
/// Unique government hostnames in the merged top-million seed (§4.1).
// The ranked-host pool the three lists draw from; sized so that the
// deduplicated union of their government rows lands on the paper's
// 27,532-host seed list.
const SEED_POOL: u64 = 44_000;
/// Hand-curated whitelist size (§4.2.3).
const WHITELIST_EXTRA: u64 = 596;
/// Shard size for populations without a natural country split (the ROK
/// case study and the materialized non-government ranking hosts). Fixed —
/// never derived from the thread count — so shard boundaries, and with
/// them every RNG stream, are identical at any parallelism.
const CHUNK: usize = 4096;

/// The generated world.
pub struct World {
    /// The generation configuration.
    pub config: WorldConfig,
    /// The simulated Internet.
    pub net: SimNet,
    /// The CA roster, trust stores and EV registry.
    pub cadb: CaDb,
    /// Ground truth per hostname.
    pub records: HashMap<String, HostRecord>,
    /// Worldwide government hostnames in generation order.
    pub gov_hosts: Vec<String>,
    /// The §4.1 seed list (government hostnames found in ranking data).
    pub seed_list: Vec<String>,
    /// The §4.2.3 hand-curated whitelist.
    pub whitelist: Vec<String>,
    /// Tranco-like ranking (the §4.2.4 authoritative ranking).
    pub tranco: RankingList,
    /// Majestic-like ranking.
    pub majestic: RankingList,
    /// Cisco-like ranking.
    pub cisco: RankingList,
    /// The hyperlink structure (crawler input; Figure A.4/A.5 ground truth).
    pub webgraph: WebGraph,
    /// USA GSA case-study hostnames (§6.1).
    pub gsa_hosts: Vec<String>,
    /// South Korea Government24 hostnames (§6.2).
    pub rok_hosts: Vec<String>,
    /// Hosting-provider CIDR table (§5.4 attribution input).
    pub provider_table: CidrTable<(&'static str, bool)>,
}

impl World {
    /// Generate a world: run the [`StreamPlan`] once, then fold into one
    /// world its country shards, the rankings, whitelist and web graph,
    /// and the GSA, ROK, non-government and phishing populations. Realize
    /// batches fold in that order, which fixes the CT log's leaf order.
    pub fn generate(config: &WorldConfig) -> World {
        let threads = govscan_exec::resolve_threads("GOVSCAN_THREADS");
        let (plan, mut rankings_rng, ranked_pool) = StreamPlan::for_world(config);
        let shards: Vec<usize> = (0..plan.shard_count()).collect();
        let blocks = govscan_exec::par_map(threads, shards, |_, i| plan.country_records(i));
        let gov: Vec<&HostRecord> = blocks.iter().flatten().collect();
        let gov_hosts: Vec<String> = gov.iter().map(|r| r.hostname.clone()).collect();
        let [majestic, cisco] = build_discovery_lists(&plan, &mut rankings_rng, ranked_pool);
        // §4.1: the seed list is the deduplicated union of the lists'
        // government rows (27,532 at paper scale).
        let seed_list: Vec<String> = [plan.tranco(), &majestic, &cisco]
            .into_iter()
            .flat_map(RankingList::gov_entries)
            .map(|e| e.hostname.clone())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let whitelist = build_whitelist(&plan, &gov, &seed_list);
        let webgraph = build_webgraph(&plan, &gov, &seed_list);

        let mut fold = Fold::default();
        let jobs: Vec<(usize, Vec<HostRecord>)> = blocks.into_iter().enumerate().collect();
        for batch in govscan_exec::par_map(threads, jobs, |_, (i, records)| {
            plan.realize_country(i, records, Some(&webgraph))
        }) {
            fold.apply(batch);
        }
        for e in plan.tranco().gov_entries() {
            if let Some(rec) = fold.records.get_mut(&e.hostname) {
                rec.tranco_rank = Some(e.rank);
            }
        }
        for h in &seed_list {
            if let Some(rec) = fold.records.get_mut(h) {
                rec.in_seed = true;
            }
        }
        let gsa_hosts = fold.apply_new(gsa_batches(&plan, threads));
        let rok_hosts = fold.apply_new(rok_batches(&plan, threads));
        fold.apply_new(nongov_batches(&plan, threads));
        fold.apply_new(vec![phishing_batch(&plan)]);

        let (config, mut cadb, tranco) = plan.into_world_parts();
        for cert in &fold.ct {
            cadb.ct_append(cert);
        }
        World {
            config,
            net: fold.net,
            cadb,
            records: fold.records,
            gov_hosts,
            seed_list,
            whitelist,
            tranco,
            majestic,
            cisco,
            webgraph,
            gsa_hosts,
            rok_hosts,
            provider_table: provider_table(),
        }
    }

    /// Ground-truth record for a hostname.
    pub fn record(&self, hostname: &str) -> Option<&HostRecord> {
        // Generated hostnames are always lowercase; only fold (and
        // allocate) when the query actually contains uppercase.
        if hostname.bytes().any(|b| b.is_ascii_uppercase()) {
            self.records.get(&hostname.to_ascii_lowercase())
        } else {
            self.records.get(hostname)
        }
    }

    /// The scan snapshot time.
    pub fn scan_time(&self) -> Time {
        self.config.scan_time
    }

    /// Country ground truth of a hostname.
    pub fn country_of(&self, hostname: &str) -> Option<&'static str> {
        self.record(hostname).map(|r| r.country)
    }
}

/// A shared-certificate cluster (§5.3.3 key/cert reuse).
pub(crate) struct SharedCluster {
    pub(crate) chain: Vec<Certificate>,
    /// The posture error every member is flipped to.
    pub(crate) error: InjectedError,
}

/// The materialized world under construction. Realize batches fold in
/// call order, and this is the only place worker output touches shared
/// state, so the world depends on shard order alone — never on
/// scheduling.
#[derive(Default)]
struct Fold {
    net: SimNet,
    records: HashMap<String, HostRecord>,
    /// CT-log leaves in issuance order, appended once the plan hands
    /// over its CA roster.
    ct: Vec<Certificate>,
}

impl Fold {
    fn apply(&mut self, batch: RealizeBatch) {
        let (records, ct) = batch.install(&mut self.net);
        self.ct.extend(ct);
        for rec in records {
            self.records.insert(rec.hostname.clone(), rec);
        }
    }

    /// [`Self::apply`] for phases that add *new* populations (GSA, ROK,
    /// non-gov rankings, phishing twins); returns their hostnames in
    /// emission order. Asserts no hostname shadows an already-realized
    /// host: `SimNet::add_host` is last-insert-wins, so a collision would
    /// silently rewrite a scanned host's wire behaviour — and
    /// desynchronize the streamed pipeline, whose per-shard nets never
    /// see later phases. The worldwide namer keeps this disjoint by
    /// construction (hyphenated collision labels).
    fn apply_new(&mut self, batches: Vec<RealizeBatch>) -> Vec<String> {
        let mut names = Vec::new();
        for batch in batches {
            debug_assert!(
                batch
                    .records
                    .iter()
                    .all(|rec| !self.records.contains_key(&rec.hostname)),
                "case-study phase would shadow an existing host"
            );
            names.extend(batch.records.iter().map(|rec| rec.hostname.clone()));
            self.apply(batch);
        }
        names
    }
}

/// The majestic and cisco lists (Table 1), continuing the plan's
/// `("rankings", "")` stream where Tranco left it. They only need their
/// government overlap counts, so they materialize no non-government
/// rows.
fn build_discovery_lists(
    plan: &StreamPlan,
    rng: &mut StdRng,
    mut draw: Vec<String>,
) -> [RankingList; 2] {
    let (size, scale) = (plan.tranco().size, plan.config().discovery_scale());
    // `build_list` draws zero non-gov rows at rate 0, so this namer is
    // never consulted.
    let mut no_namer =
        |_: &mut dyn rand::RngCore| -> String { unreachable!("materialize rate is 0") };
    [
        ("majestic", rankings::MAJESTIC_OVERLAP),
        ("cisco", rankings::CISCO_OVERLAP),
    ]
    .map(|(name, overlap)| {
        draw.shuffle(rng);
        rankings::build_list(rng, name, size, overlap, scale, &draw, 0.0, &mut no_namer)
    })
}

/// The §4.2.3 whitelist: every host of a whitelist-only country, plus
/// hand-curated extras from long-tail hosts not in the seed list.
fn build_whitelist(plan: &StreamPlan, gov: &[&HostRecord], seed: &[String]) -> Vec<String> {
    let mut rng = plan.seeder().rng("whitelist", "");
    // Whitelist-only countries (Germany, Denmark, NL, Greenland,
    // Gabon, …) enter exclusively through the whitelist.
    let mut whitelist: Vec<String> = gov
        .iter()
        .filter(|r| {
            Country::by_code(r.country)
                .expect("known country")
                .whitelist_only()
        })
        .map(|r| r.hostname.clone())
        .collect();
    // Hand-curation does not grow with the world: saturates at the
    // paper's 596 entries (discovery scale).
    let extra = plan.config().discovery_scaled(WHITELIST_EXTRA) as usize;
    let listed: HashSet<&str> = seed.iter().chain(&whitelist).map(String::as_str).collect();
    let mut candidates: Vec<String> = gov
        .iter()
        .filter(|r| !listed.contains(r.hostname.as_str()))
        .map(|r| r.hostname.clone())
        .collect();
    candidates.shuffle(&mut rng);
    whitelist.extend(candidates.into_iter().take(extra));
    whitelist
}

/// The web graph over the worldwide government hosts.
fn build_webgraph(plan: &StreamPlan, gov: &[&HostRecord], seed: &[String]) -> WebGraph {
    let mut rng = plan.seeder().rng("webgraph", "");
    let seed_set: HashSet<&String> = seed.iter().collect();
    let hosts: Vec<GraphHost> = gov
        .iter()
        .map(|r| GraphHost {
            hostname: r.hostname.clone(),
            country: r.country,
            is_seed: seed_set.contains(&r.hostname),
            alive: !matches!(r.posture, Posture::Unreachable),
        })
        .collect();
    let mut counter = 0u64;
    let mut graph = webgraph::assign_links(&mut rng, &hosts, 0.0, move |_| {
        counter += 1;
        format!("cdn{counter}.example-ads.com")
    });
    // Cross-government links (§7.3.3 / Figure A.5): each country's
    // portal links to a fixed palette of foreign governments, sized
    // 2–15 (75% of countries link ≥7 others in the paper), with
    // Austria as the 70-country hub. Palettes keep the per-country
    // out-degree scale-independent.
    let mut portals: BTreeMap<&'static str, &String> = BTreeMap::new();
    let mut alive_by_country: BTreeMap<&'static str, Vec<&String>> = BTreeMap::new();
    for rec in gov {
        if matches!(rec.posture, Posture::Unreachable) {
            continue;
        }
        portals.entry(rec.country).or_insert(&rec.hostname);
        alive_by_country
            .entry(rec.country)
            .or_default()
            .push(&rec.hostname);
    }
    let countries: Vec<&'static str> = alive_by_country.keys().copied().collect();
    for (cc, portal) in &portals {
        let hash = cc.bytes().fold(plan.config().seed, |a, b| {
            a.wrapping_mul(131).wrapping_add(b as u64)
        });
        let palette_size = if *cc == "at" {
            70
        } else {
            (2 + hash % 14) as usize
        };
        let start = (hash % countries.len() as u64) as usize;
        let mut added = 0usize;
        for step in 0..countries.len() {
            if added >= palette_size {
                break;
            }
            // Stride 1: any fixed stride k would collapse the palette to
            // len/gcd(k, len) distinct countries whenever k divides the
            // alive-country count.
            let target_cc = countries[(start + step + 1) % countries.len()];
            if target_cc == *cc {
                continue;
            }
            let candidates = &alive_by_country[target_cc];
            let target = candidates[(hash as usize + step) % candidates.len()];
            graph
                .links
                .entry((*portal).clone())
                .or_default()
                .push(format!("http://{target}/"));
            added += 1;
        }
    }
    graph
}

/// USA GSA case-study populations (§6.1, Tables A.1/A.2): one shard per
/// dataset.
fn gsa_batches(plan: &StreamPlan, threads: usize) -> Vec<RealizeBatch> {
    govscan_exec::par_map(threads, USA_DATASETS.to_vec(), |_, spec| {
        let mut r = plan.realizer("gsa", spec.tag());
        let n = plan.config().scaled(spec.total as u64);
        let rates = spec.rates();
        for i in 0..n {
            let hostname = format!("{}{}-usgsa.{}", spec.tag(), i, spec.suffix());
            let posture = rates.sample(&mut r.rng);
            let hosting = r.assigner.sample_class(&mut r.rng, 0.13);
            let posture =
                posture::apply_cloud_boost(&mut r.rng, posture, hosting != HostingClass::Private);
            let record = HostRecord {
                hostname,
                country: "us",
                is_gov: true,
                posture,
                issuer: None,
                hosting,
                tranco_rank: None,
                in_seed: false,
                gsa_datasets: vec![spec.dataset],
                in_rok_list: false,
                has_caa: r.rng.gen::<f64>() < 0.03,
                is_ev: false,
            };
            r.realize(record, &[]);
        }
        r.into_batch()
    })
}

/// South Korea Government24 population (§6.2, Tables A.3/A.4):
/// fixed-size chunks of the global index space.
fn rok_batches(plan: &StreamPlan, threads: usize) -> Vec<RealizeBatch> {
    let n = plan.config().scaled(ROK.total as u64);
    let starts: Vec<u64> = (0..n).step_by(CHUNK).collect();
    govscan_exec::par_map(threads, starts, |ci, start| {
        let mut r = plan.realizer("rok", &ci.to_string());
        let rates = ROK.rates();
        for i in start..(start + CHUNK as u64).min(n) {
            let dept = ROK_DEPARTMENTS[(i as usize) % ROK_DEPARTMENTS.len()];
            let hostname = match i % 4 {
                0 => format!("www{}.{dept}.go.kr", i / ROK_DEPARTMENTS.len() as u64),
                1 => format!("minwon{}.{dept}.go.kr", i / ROK_DEPARTMENTS.len() as u64),
                2 => format!("{dept}{}.go.kr", i / ROK_DEPARTMENTS.len() as u64),
                _ => format!("e{}.{dept}.go.kr", i / ROK_DEPARTMENTS.len() as u64),
            };
            let posture = rates.sample(&mut r.rng);
            let hosting = r.assigner.sample_class(&mut r.rng, 0.0021);
            let record = HostRecord {
                hostname,
                country: "kr",
                is_gov: true,
                posture,
                issuer: None,
                hosting,
                tranco_rank: None,
                in_seed: false,
                gsa_datasets: Vec::new(),
                in_rok_list: true,
                has_caa: r.rng.gen::<f64>() < 0.005,
                is_ev: false,
            };
            r.realize(record, &[]);
        }
        r.into_batch()
    })
}

/// Materialize the tranco list's non-government rows as dialable
/// hosts with rank-dependent https quality (§5.5 / Figure 7: ~72%
/// valid at the top of the list declining to ~40% at the bottom).
fn nongov_batches(plan: &StreamPlan, threads: usize) -> Vec<RealizeBatch> {
    let size = plan.tranco().size as f64;
    let entries: Vec<&RankingEntry> = plan.tranco().nongov_entries().collect();
    let chunks: Vec<&[&RankingEntry]> = entries.chunks(CHUNK).collect();
    govscan_exec::par_map(threads, chunks, |ci, chunk| {
        let mut r = plan.realizer("nongov", &ci.to_string());
        for e in chunk {
            let frac = e.rank as f64 / size;
            let p_valid = 0.72 - 0.32 * frac;
            let p_https = 0.88 - 0.25 * frac;
            let roll = r.rng.gen::<f64>();
            let posture = if roll < p_valid {
                Posture::ValidHttps {
                    serves_http_too: r.rng.gen::<f64>() < 0.15,
                    hsts: r.rng.gen::<f64>() < 0.4,
                }
            } else if roll < p_https {
                let idx = crate::cadb::weighted_pick(&mut r.rng, &posture::WORLD_ERROR_MIX);
                Posture::InvalidHttps {
                    error: InjectedError::ALL[idx],
                }
            } else {
                Posture::HttpOnly
            };
            // Non-government top-million sites are far more cloud-hosted.
            let hosting = r.assigner.sample_class(&mut r.rng, 0.45);
            let record = HostRecord {
                hostname: e.hostname.clone(),
                country: "us",
                is_gov: false,
                posture,
                issuer: None,
                hosting,
                tranco_rank: Some(e.rank),
                in_seed: false,
                gsa_datasets: Vec::new(),
                in_rok_list: false,
                has_caa: r.rng.gen::<f64>() < 0.05,
                is_ev: false,
            };
            r.realize(record, &[]);
        }
        r.into_batch()
    })
}

/// §7.3.2: lookalike registrations with perfectly valid certificates —
/// `etagov.sl` posing as `eta.gov.lk`, and `<word>gov.us` twins.
fn phishing_batch(plan: &StreamPlan) -> RealizeBatch {
    let mut twins = vec![hostgen::phishing_twin("eta.gov.lk", "sl")];
    let n = plan.config().scaled(85);
    for i in 0..n {
        let dept = [
            "tax", "visa", "health", "travel", "permit", "id", "dmv", "irs",
        ][(i as usize) % 8];
        twins.push(format!("{dept}{i}gov.us"));
    }
    let mut r = plan.realizer("phishing", "");
    for hostname in twins {
        let record = HostRecord {
            hostname,
            country: "us",
            is_gov: false, // impersonation, not government
            posture: Posture::ValidHttps {
                serves_http_too: false,
                hsts: false,
            },
            issuer: None,
            hosting: HostingClass::Cdn("cloudflare"),
            tranco_rank: None,
            in_seed: false,
            gsa_datasets: Vec::new(),
            in_rok_list: false,
            has_caa: false,
            is_ev: false,
        };
        r.realize(record, &[]);
    }
    r.into_batch()
}

// ---------------------------------------------------------------------
// Generation kernels.
//
// Everything below is a pure function of (config, seeder, shard), run by
// the plan ([`crate::stream::StreamPlan`]). A shard therefore draws the
// same RNG streams whether it is streamed or folded into a [`World`].
// ---------------------------------------------------------------------

/// Cloud/CDN adoption share of a country's government hosts.
pub(crate) fn cloud_share(country: &Country) -> f64 {
    match country.code {
        "us" => 0.13,
        "kr" => 0.0021,
        _ => 0.03 + 0.10 * country.tech,
    }
}

/// How many government records [`worldwide_country_records`] generates
/// for `country`: its share of the scaled candidate population, at least
/// one. Draw-free, so the planning walk knows every country's size before
/// any record exists.
pub(crate) fn country_host_count(
    config: &WorldConfig,
    country: &Country,
    total_weight: f64,
) -> u64 {
    let candidates = config.scaled(WORLD_CANDIDATES);
    let n = ((candidates as f64) * country.host_weight / total_weight).round() as u64;
    n.max(1)
}

/// Generate one country's worldwide government records — the per-shard
/// generation kernel. Every draw comes from the country's own
/// `("worldwide", cc)` stream, so the records are byte-identical
/// wherever and whenever the shard is produced.
pub(crate) fn worldwide_country_records(
    config: &WorldConfig,
    seeder: StreamSeeder,
    country: &'static Country,
    total_weight: f64,
) -> Vec<HostRecord> {
    let mut rng = seeder.rng("worldwide", country.code);
    let n = country_host_count(config, country, total_weight);
    let rates = PostureRates::for_country(country);
    let mut namer = HostnameGen::new(country);
    // Construction is draw-free, so a per-shard assigner samples
    // identically to a shared one.
    let assigner = HostingAssigner::new();
    let cloud = cloud_share(country);
    let mut records = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let hostname = namer.next_gov(&mut rng);
        let posture = rates.sample(&mut rng);
        let hosting = assigner.sample_class(&mut rng, cloud);
        // §7.1.2: the Great-Firewall vantage breaks Chinese TLS
        // regardless of hosting, so the platform boost does not
        // apply there.
        let posture = posture::apply_cloud_boost(
            &mut rng,
            posture,
            hosting != HostingClass::Private && country.code != "cn",
        );
        records.push(HostRecord {
            hostname,
            country: country.code,
            is_gov: true,
            posture,
            issuer: None,
            hosting,
            tranco_rank: None,
            in_seed: false,
            gsa_datasets: Vec::new(),
            in_rok_list: false,
            has_caa: rng.gen::<f64>() < 0.0136,
            is_ev: false,
        });
    }
    records
}

/// §5.3.3 national wildcard clusters: (country, certs, hosts) at paper
/// scale (Bangladesh 2/138, Colombia 3/107, Dominica 1/28, Vietnam 3/21).
const NATIONAL_CLUSTER_SPECS: [(&str, u64, u64); 4] =
    [("bd", 2, 138), ("co", 3, 107), ("dm", 1, 28), ("vn", 3, 21)];
/// §5.3.3 worldwide localhost clusters: (cert count, countries spanned)
/// per the paper's breakdown.
const WORLDWIDE_CLUSTER_SPECS: [(u64, usize); 4] = [(108, 2), (19, 3), (11, 4), (1, 24)];
/// Total host budget of the worldwide localhost clusters (paper: 1,390
/// hosts across the 154 reused certificates).
const WORLDWIDE_CLUSTER_HOSTS: u64 = 1_390;

/// The countries whose candidate pools [`plan_reuse_clusters`] can
/// consult — a pure function of the config (the walk's country schedule
/// is deterministic), so the streamed plan retains candidate hostnames
/// only for these instead of the whole world.
pub(crate) fn cluster_candidate_countries(
    config: &WorldConfig,
) -> std::collections::HashSet<&'static str> {
    let mut needed: std::collections::HashSet<&'static str> = NATIONAL_CLUSTER_SPECS
        .iter()
        .map(|(cc, _, _)| *cc)
        .collect();
    let all: Vec<&'static str> = countries::active_countries().map(|c| c.code).collect();
    for (count, spread) in WORLDWIDE_CLUSTER_SPECS {
        let count = config.scaled(count).max(1);
        for i in 0..count {
            for s in 0..spread {
                needed.insert(all[(i as usize * 7 + s * 13) % all.len()]);
            }
        }
    }
    needed
}

/// An upper bound on how deep into one country's candidate list the
/// cluster walk can ever look. [`ClusterPlan::pool`] consults a prefix:
/// every entry it passes over was either taken (bounded by the total
/// membership the walk can assign to `cc` — its national quota plus the
/// whole worldwide host budget) or returned, so truncating a candidate
/// list here cannot change the plan. This is what lets the streamed plan
/// keep O(budget) candidate hostnames instead of O(world).
pub(crate) fn cluster_candidate_cap(config: &WorldConfig, cc: &str) -> usize {
    let national = NATIONAL_CLUSTER_SPECS
        .iter()
        .find(|(c, _, _)| *c == cc)
        .map(|(_, certs, hosts)| {
            let certs = config.scaled(*certs).max(1);
            config.scaled(*hosts).max(certs)
        })
        .unwrap_or(0);
    (national + config.scaled(WORLDWIDE_CLUSTER_HOSTS)) as usize
}

/// Outcome of the §5.3.3 cluster walk: issued chains (with the posture
/// error each cluster injects) and hostname → cluster index for every
/// member.
pub(crate) struct ClusterPlan {
    pub(crate) clusters: Vec<SharedCluster>,
    pub(crate) shared_chain_of: HashMap<String, usize>,
}

impl ClusterPlan {
    /// Take up to `n` not-yet-clustered candidates of a country, in
    /// generation order.
    fn pool(
        &self,
        candidates: &HashMap<&'static str, Vec<String>>,
        cc: &str,
        n: usize,
    ) -> Vec<String> {
        let mut out = Vec::new();
        for host in candidates.get(cc).map(Vec::as_slice).unwrap_or(&[]) {
            if out.len() >= n {
                break;
            }
            if self.shared_chain_of.contains_key(host) {
                continue;
            }
            out.push(host.clone());
        }
        out
    }

    fn register(&mut self, chain: Vec<Certificate>, members: Vec<String>, error: InjectedError) {
        let idx = self.clusters.len();
        for m in members {
            self.shared_chain_of.insert(m, idx);
        }
        self.clusters.push(SharedCluster { chain, error });
    }
}

/// Select and issue the §5.3.3 shared-certificate clusters.
///
/// `candidates` holds, per country, the https-attempting worldwide
/// hostnames in generation order, judged by their *original* postures.
/// The flips this plan implies keep `attempts_https`, so candidacy is
/// insensitive to whether earlier clusters were already applied, and the
/// flips themselves can wait until a country's records are regenerated
/// ([`StreamPlan::country_records`]). Consumes no RNG; keys and serials
/// derive from deterministic seeds.
pub(crate) fn plan_reuse_clusters(
    config: &WorldConfig,
    cadb: &mut CaDb,
    candidates: &HashMap<&'static str, Vec<String>>,
) -> ClusterPlan {
    let scan = config.scan_time;
    let mut plan = ClusterPlan {
        clusters: Vec::new(),
        shared_chain_of: HashMap::new(),
    };
    // -- National wildcard clusters. --
    for (cc, certs, hosts) in NATIONAL_CLUSTER_SPECS {
        let certs = config.scaled(certs).max(1);
        let hosts = config.scaled(hosts).max(certs);
        let pool = plan.pool(candidates, cc, hosts as usize);
        if pool.is_empty() {
            continue;
        }
        let suffix = Country::by_code(cc)
            .map(|c| c.gov_suffixes.first().copied().unwrap_or(cc))
            .unwrap_or(cc);
        for (ci, chunk) in pool.chunks(pool.len().div_ceil(certs as usize)).enumerate() {
            let wildcard = format!(
                "*.portal{}.{suffix}",
                if ci == 0 {
                    String::new()
                } else {
                    ci.to_string()
                }
            );
            let key = KeyPair::from_seed(
                KeyAlgorithm::Rsa(2048),
                format!("cluster-{cc}-{ci}").as_bytes(),
            );
            let mut profile = LeafProfile::dv(wildcard.clone(), key.public(), scan.plus_days(-200));
            profile.san = vec![wildcard];
            profile.validity_days = Some(730);
            profile.serial = Some(vec![0xc1, cc.as_bytes()[0], ci as u8]);
            let chain = cadb.issue_chain(crate::cadb::LETS_ENCRYPT, &profile);
            plan.register(chain, chunk.to_vec(), InjectedError::HostnameMismatch);
        }
    }
    // -- Worldwide localhost clusters. --
    // Cluster COUNT scales with the world; per-cluster membership keeps
    // the paper's ~9-host shape, under a scaled total-host budget so
    // tiny test worlds keep Table 2's category proportions.
    let mut host_budget = config.scaled(WORLDWIDE_CLUSTER_HOSTS) as usize;
    let appliance_key = KeyPair::from_seed(KeyAlgorithm::Rsa(1024), b"factory-default-appliance");
    let all_countries: Vec<&'static str> = countries::active_countries().map(|c| c.code).collect();
    for (count, spread) in WORLDWIDE_CLUSTER_SPECS {
        let count = config.scaled(count).max(1);
        for i in 0..count {
            // One *distinct certificate* per cluster (the paper counts
            // 154 reused certs) — but all sharing the same factory-
            // default public key ("the same set of public keys").
            let cert = ca::self_signed(
                "localhost",
                vec![],
                &appliance_key,
                SignatureAlgorithm::Sha1WithRsa,
                Validity {
                    not_before: Time::from_ymd(2012, 1, 1)
                        .plus_days((i * spread as u64) as i64 % 365),
                    not_after: Time::from_ymd(2032, 1, 1),
                },
            );
            // ~9 members spread over `spread` countries, within budget.
            if host_budget == 0 {
                break;
            }
            let mut members = Vec::new();
            for s in 0..spread {
                let cc = all_countries[(i as usize * 7 + s * 13) % all_countries.len()];
                let take = (if spread <= 4 { 9 / spread + 1 } else { 2 }).min(host_budget);
                let got = plan.pool(candidates, cc, take);
                host_budget = host_budget.saturating_sub(got.len());
                members.extend(got);
                if host_budget == 0 {
                    break;
                }
            }
            if members.is_empty() {
                continue;
            }
            plan.register(vec![cert], members, InjectedError::SelfSigned);
        }
    }
    plan
}

/// Finish the ranked-pool walk into the authoritative tranco list:
/// shuffle the accepted pool, truncate to the (discovery-scaled) seed
/// pool, and build the ranking with materialized non-government rows.
/// Returns the ranked pool (the draw set for the other two lists) and
/// the list. [`World::generate`] continues the same `("rankings", "")`
/// stream for the other two lists; the streamed plan stops here.
pub(crate) fn build_tranco(
    config: &WorldConfig,
    rng: &mut StdRng,
    mut pool: Vec<String>,
) -> (Vec<String>, RankingList) {
    pool.shuffle(rng);
    let seed_n = (config.discovery_scaled(SEED_POOL) as usize).min(pool.len());
    let ranked_pool: Vec<String> = pool[..seed_n].to_vec();

    // Discovery saturates at paper scale: a 10× world has 10× hosts,
    // but the top-million lists do not grow past a million rows.
    let size = ((config.ranking_size as f64) * config.discovery_scale()).round() as u32;
    let size = size.max(2_000);
    let mat_rate = config.nongov_materialize_rate;
    let mut counter = 0u64;
    let seed_for_names = config.seed;
    let mut nongov_namer = move |_: &mut dyn rand::RngCore| {
        counter += 1;
        // Deterministic synthetic non-gov hostname.
        format!("site{seed_for_names:x}-{counter}.example-net.com")
    };
    let tranco = rankings::build_list(
        rng,
        "tranco",
        size,
        rankings::TRANCO_OVERLAP,
        config.discovery_scale(),
        &ranked_pool,
        mat_rate,
        &mut nongov_namer,
    );
    (ranked_pool, tranco)
}

/// Everything one shard wants to write into the world, in emission
/// order. Workers fill a batch against shared `&` state; consumers
/// install batches in fixed shard order, which keeps the result
/// independent of scheduling.
#[derive(Default)]
pub(crate) struct RealizeBatch {
    pub(crate) records: Vec<HostRecord>,
    hosts: Vec<HostConfig>,
    dns_timeouts: Vec<String>,
    caa: Vec<(String, Vec<CaaRecord>)>,
    /// Leaves to append to the CT log (in issuance order).
    ct: Vec<Certificate>,
}

impl RealizeBatch {
    /// Install the batch's wire behaviour — hosts, DNS timeout slices,
    /// CAA sets — into `net`, in emission order. Returns the records and
    /// the CT leaves, which only a materialized world keeps.
    pub(crate) fn install(self, net: &mut SimNet) -> (Vec<HostRecord>, Vec<Certificate>) {
        for host in self.hosts {
            net.add_host(host);
        }
        for name in self.dns_timeouts {
            net.set_dns_behavior(&name, DnsBehavior::Timeout);
        }
        for (name, set) in self.caa {
            net.dns.publish_caa(&name, set);
        }
        (self.records, self.ct)
    }
}

/// Per-shard host realizer: owns the shard's RNG stream and IP
/// allocator, borrows the plan's (read-only) CA roster and cluster
/// table, and accumulates a [`RealizeBatch`].
pub(crate) struct Realizer<'a> {
    plan: &'a StreamPlan,
    assigner: HostingAssigner,
    rng: StdRng,
    /// §9 consolidated hosting: hostname → index into `shared_chains`.
    shared_group_of: HashMap<String, usize>,
    /// When set, host issuance uses this `(not_before, validity_days)`
    /// window instead of sampling one from the RNG stream. The evolution
    /// model (`crate::evolve`) schedules certificate lifetimes itself —
    /// it must know a cert's expiry without replaying realizer draws —
    /// so it injects the window it already decided on. No other phase
    /// sets this, so their draw sequences are untouched.
    validity_override: Option<(Time, i64)>,
    /// (chain, issuing-CA label) per shared group.
    shared_chains: Vec<(Vec<Certificate>, String)>,
    batch: RealizeBatch,
}

impl StreamPlan {
    /// A realizer on the `(phase, shard)` stream, with IP addresses from
    /// the matching `("ip", "<phase>/<shard>")` base.
    pub(crate) fn realizer(&self, phase: &str, shard: &str) -> Realizer<'_> {
        let seeder = self.seeder();
        Realizer {
            plan: self,
            assigner: HostingAssigner::with_base(
                seeder.stream_id("ip", &format!("{phase}/{shard}")),
            ),
            rng: seeder.rng(phase, shard),
            shared_group_of: HashMap::new(),
            validity_override: None,
            shared_chains: Vec::new(),
            batch: RealizeBatch::default(),
        }
    }
}

impl Realizer<'_> {
    pub(crate) fn into_batch(self) -> RealizeBatch {
        self.batch
    }

    /// Pin the next issuance's validity window (see `validity_override`).
    pub(crate) fn set_validity_override(&mut self, window: Option<(Time, i64)>) {
        self.validity_override = window;
    }

    /// The validity window for the chain being issued: the injected
    /// override when the evolution model set one, otherwise a fresh draw
    /// from this shard's RNG stream. An overridden host makes *fewer*
    /// draws than an unoverridden one — safe only because the evolution
    /// model gives each host a dedicated realizer (no other host shares
    /// its stream), so the skipped draw shifts nobody else's sequence.
    fn validity_window(&mut self, valid: bool, expired: bool) -> (Time, i64) {
        match self.validity_override {
            Some(window) => window,
            None => posture::sample_validity_window(
                &mut self.rng,
                valid,
                self.plan.scan_time(),
                expired,
            ),
        }
    }

    /// Issue a chain without touching shared state; the leaf's CT-log
    /// append (when the CA logs) is deferred into the batch.
    fn issue(&mut self, ca_idx: usize, profile: &LeafProfile) -> Vec<Certificate> {
        let (chain, log_it) = self.plan.cadb().issue_chain_pure(ca_idx, profile);
        if log_it {
            self.batch.ct.push(chain[0].clone());
        }
        chain
    }

    /// Consolidated hosting (DESIGN.md §9): route a configurable slice of
    /// this shard's ordinary valid-TLS hosts through shared chains — one
    /// `*.{suffix}` wildcard per government suffix with ≥2 single-label
    /// members, and SAN-packed certificates (≤50 names) for the rest —
    /// so distinct chains grow slower than TLS hosts, like real shared
    /// platforms. One key per (country, group): never cross-country.
    pub(crate) fn plan_shared_chains(&mut self, cc: &str, records: &[HostRecord]) {
        let rate = self.plan.config().shared_chain_rate;
        if rate <= 0.0 {
            return;
        }
        let suffixes: Vec<&str> = Country::by_code(cc)
            .map(|c| c.gov_suffixes.to_vec())
            .unwrap_or_default();
        let mut wildcard: std::collections::BTreeMap<&str, Vec<String>> =
            std::collections::BTreeMap::new();
        let mut san_pool: Vec<String> = Vec::new();
        for rec in records {
            if !rec.posture.is_valid_https()
                || self.plan.shared_chain_of().contains_key(&rec.hostname)
            {
                continue;
            }
            if self.rng.gen::<f64>() >= rate {
                continue;
            }
            // A single label directly under a multi-label government
            // suffix can ride that suffix's wildcard; anything else is
            // SAN-packed. (Single-label suffixes are excluded: the
            // validator's public-suffix rule rejects `*.gov`-shaped
            // wildcards.)
            let suffix = suffixes.iter().find(|s| {
                s.contains('.')
                    && rec.hostname.len() > s.len() + 1
                    && rec.hostname.ends_with(*s)
                    && rec.hostname.as_bytes()[rec.hostname.len() - s.len() - 1] == b'.'
            });
            match suffix {
                Some(s) => {
                    let label = &rec.hostname[..rec.hostname.len() - s.len() - 1];
                    if !label.is_empty() && !label.contains('.') {
                        wildcard.entry(s).or_default().push(rec.hostname.clone());
                    } else {
                        san_pool.push(rec.hostname.clone());
                    }
                }
                None => san_pool.push(rec.hostname.clone()),
            }
        }
        // (names on the certificate, member hostnames) per group.
        let mut groups: Vec<(Vec<String>, Vec<String>)> = Vec::new();
        for (suffix, members) in wildcard {
            if members.len() >= 2 {
                groups.push((vec![format!("*.{suffix}"), suffix.to_string()], members));
            } else {
                san_pool.extend(members);
            }
        }
        for chunk in san_pool.chunks(50) {
            if chunk.len() >= 2 {
                groups.push((chunk.to_vec(), chunk.to_vec()));
            }
        }
        let scan = self.plan.scan_time();
        for (gi, (names, members)) in groups.into_iter().enumerate() {
            let key_alg = posture::sample_key_algorithm(&mut self.rng, true);
            let key = KeyPair::from_seed(key_alg, format!("sharedkey-{cc}-{gi}").as_bytes());
            let (not_before, days) =
                posture::sample_validity_window(&mut self.rng, true, scan, false);
            let ca_idx = self.plan.cadb().pick(&mut self.rng, cc, true);
            let mut profile = LeafProfile::dv(names[0].clone(), key.public(), not_before);
            profile.san = names;
            profile.validity_days = Some(days);
            let chain = self.issue(ca_idx, &profile);
            let label = self.plan.cadb().get(ca_idx).profile.label.to_string();
            let idx = self.shared_chains.len();
            self.shared_chains.push((chain, label));
            for m in members {
                self.shared_group_of.insert(m, idx);
            }
        }
    }

    /// Materialize one record into batched wire behaviour.
    pub(crate) fn realize(&mut self, mut rec: HostRecord, links: &[String]) {
        if matches!(rec.posture, Posture::Unreachable) {
            // Unregistered: DNS resolves NXDOMAIN. (A slice timeouts.)
            if self.rng.gen::<f64>() < 0.2 {
                self.batch.dns_timeouts.push(rec.hostname.clone());
            }
            self.batch.records.push(rec);
            return;
        }
        let ip = self.assigner.allocate_ip(&mut self.rng, &rec.hosting);
        let page = HttpResponse::page(format!("Official portal — {}", rec.hostname), links);

        match rec.posture.clone() {
            Posture::Unreachable => unreachable!("handled above"),
            Posture::HttpOnly => {
                self.batch
                    .hosts
                    .push(HostConfig::http_only(&rec.hostname, ip, page));
            }
            Posture::ValidHttps {
                serves_http_too,
                hsts,
            } => {
                let chain = if let Some(&gi) = self.shared_group_of.get(&rec.hostname) {
                    let (chain, label) = &self.shared_chains[gi];
                    rec.issuer = Some(label.clone());
                    chain.clone()
                } else {
                    self.issue_for(&mut rec, None)
                };
                let tls = TlsServerConfig::modern(chain);
                let http = if serves_http_too {
                    page.clone()
                } else {
                    HttpResponse::redirect(format!("https://{}/", rec.hostname))
                };
                let https = if hsts { page.with_hsts() } else { page };
                self.batch
                    .hosts
                    .push(HostConfig::dual(&rec.hostname, ip, tls, http, https));
            }
            Posture::InvalidHttps { error } => {
                self.realize_invalid(&mut rec, ip, error, page);
            }
        }
        if rec.has_caa {
            // Publish a CAA record authorizing the host's own CA (the
            // paper found 100% of published CAA records valid).
            let ca_domain = rec
                .issuer
                .as_deref()
                .and_then(|label| {
                    crate::cadb::CA_PROFILES
                        .iter()
                        .find(|p| p.label == label)
                        .map(|p| p.caa_domain)
                })
                .unwrap_or("letsencrypt.org");
            self.batch
                .caa
                .push((rec.hostname.clone(), vec![CaaRecord::issue(ca_domain)]));
        }
        self.batch.records.push(rec);
    }

    fn realize_invalid(
        &mut self,
        rec: &mut HostRecord,
        ip: Ipv4Addr,
        error: InjectedError,
        page: HttpResponse,
    ) {
        // Shared-cluster members use the cluster chain verbatim.
        let (chain, quirk, legacy) = if let Some(&ci) =
            self.plan.shared_chain_of().get(&rec.hostname)
        {
            let chain = self.plan.clusters()[ci].chain.clone();
            rec.issuer = Some(chain[0].issuer_label());
            (chain, None, false)
        } else {
            match error {
                InjectedError::HostnameMismatch => {
                    let kind = MismatchKind::pick(&mut self.rng);
                    (self.issue_for(rec, Some(kind)), None, false)
                }
                InjectedError::Expired => (self.issue_expired(rec), None, false),
                InjectedError::UnableLocalIssuer => {
                    (self.issue_local_issuer_broken(rec), None, false)
                }
                InjectedError::SelfSigned => (vec![self.issue_self_signed(rec)], None, false),
                InjectedError::SelfSignedInChain => {
                    (self.issue_untrusted_full_chain(rec), None, false)
                }
                InjectedError::UnsupportedProtocol => {
                    (vec![self.issue_self_signed(rec)], None, true)
                }
                InjectedError::Timeout => (vec![], Some(TlsQuirk::HandshakeTimeout), false),
                InjectedError::Refused => (vec![], Some(TlsQuirk::HandshakeRefused), false),
                InjectedError::Reset => (vec![], Some(TlsQuirk::HandshakeReset), false),
                InjectedError::WrongVersion => (vec![], Some(TlsQuirk::WrongVersionNumber), false),
                InjectedError::AlertInternal => (vec![], Some(TlsQuirk::AlertInternalError), false),
                InjectedError::AlertHandshake => {
                    (vec![], Some(TlsQuirk::AlertHandshakeFailure), false)
                }
                InjectedError::AlertProtoVersion => {
                    (vec![], Some(TlsQuirk::AlertProtocolVersion), false)
                }
            }
        };
        let mut tls = if legacy {
            TlsServerConfig::legacy_ssl(chain)
        } else {
            TlsServerConfig::modern(chain)
        };
        tls.quirk = quirk;
        // Invalid-https hosts typically still serve a plain-http page.
        let http = page.clone();
        self.batch
            .hosts
            .push(HostConfig::dual(&rec.hostname, ip, tls, http, page));
    }

    /// Issue a (valid-shaped) chain for the record's host. `mismatch`
    /// makes the covered names deliberately wrong.
    fn issue_for(
        &mut self,
        rec: &mut HostRecord,
        mismatch: Option<MismatchKind>,
    ) -> Vec<Certificate> {
        let valid = mismatch.is_none();
        let hostname = rec.hostname.clone();
        let key_alg = posture::sample_key_algorithm(&mut self.rng, valid);
        let key = KeyPair::from_seed(key_alg, format!("hostkey-{hostname}").as_bytes());
        let (not_before, days) = self.validity_window(valid, false);
        let covered = match mismatch {
            None => {
                // 39% of hosts deploy wildcard certificates (§5.3).
                let parent = hostname.split_once('.').map(|(_, p)| p).unwrap_or("");
                if parent.contains('.') && self.rng.gen::<f64>() < 0.39 {
                    vec![format!("*.{parent}"), parent.to_string()]
                } else {
                    vec![hostname.clone()]
                }
            }
            Some(MismatchKind::WrongWildcardScope) => {
                // The Bangladesh pattern: *.portal.<zone> deployed on <zone>.
                let parent = hostname.split_once('.').map(|(_, p)| p).unwrap_or("gov.xx");
                vec![format!("*.portal.{parent}")]
            }
            Some(MismatchKind::OtherHost) => {
                vec![format!("www.intranet-{}.example", rec.country)]
            }
        };
        let ca_idx = self.plan.cadb().pick(&mut self.rng, rec.country, true);
        let mut profile = LeafProfile::dv(covered[0].clone(), key.public(), not_before);
        profile.san = covered;
        profile.validity_days = Some(days);
        // EV issuance (§5.3: ~4% of hosts carry EV policy OIDs).
        let ca_profile = self.plan.cadb().get(ca_idx).profile;
        if let Some(ev_oid) = ca_profile.ev_oid {
            if self.rng.gen::<f64>() < 0.18 {
                profile.policies = vec![govscan_asn1::Oid::parse(ev_oid).expect("static")];
                rec.is_ev = true;
            }
        }
        rec.issuer = Some(ca_profile.label.to_string());
        self.issue(ca_idx, &profile)
    }

    fn issue_expired(&mut self, rec: &mut HostRecord) -> Vec<Certificate> {
        let key_alg = posture::sample_key_algorithm(&mut self.rng, false);
        let key = KeyPair::from_seed(key_alg, format!("hostkey-{}", rec.hostname).as_bytes());
        let (not_before, days) = self.validity_window(false, true);
        let ca_idx = self.plan.cadb().pick(&mut self.rng, rec.country, true);
        let mut profile = LeafProfile::dv(rec.hostname.clone(), key.public(), not_before);
        profile.validity_days = Some(days);
        rec.issuer = Some(self.plan.cadb().get(ca_idx).profile.label.to_string());
        self.issue(ca_idx, &profile)
    }

    /// "Unable to get local issuer": half the time a trusted CA whose
    /// intermediate the server forgets to send; half the time a complete
    /// chain from an untrusted CA (always NPKI-style for South Korea).
    fn issue_local_issuer_broken(&mut self, rec: &mut HostRecord) -> Vec<Certificate> {
        let key_alg = posture::sample_key_algorithm(&mut self.rng, false);
        let key = KeyPair::from_seed(key_alg, format!("hostkey-{}", rec.hostname).as_bytes());
        let (not_before, days) = self.validity_window(false, false);
        let untrusted = self.plan.cadb().untrusted_indices();
        let use_untrusted = rec.country == "kr" || self.rng.gen::<f64>() < 0.5;
        let ca_idx = if use_untrusted && !untrusted.is_empty() {
            if rec.country == "kr" {
                // Prefer the NPKI sub-CAs.
                *untrusted
                    .iter()
                    .find(|&&i| self.plan.cadb().get(i).profile.country == "KR")
                    .unwrap_or(&untrusted[0])
            } else {
                untrusted[self.rng.gen_range(0..untrusted.len())]
            }
        } else {
            self.plan.cadb().pick(&mut self.rng, rec.country, true)
        };
        let mut profile = LeafProfile::dv(rec.hostname.clone(), key.public(), not_before);
        profile.validity_days = Some(days);
        rec.issuer = Some(self.plan.cadb().get(ca_idx).profile.label.to_string());
        let mut chain = self.issue(ca_idx, &profile);
        if !use_untrusted {
            chain.truncate(1); // drop the intermediate: incomplete chain
        }
        chain
    }

    fn issue_self_signed(&mut self, rec: &mut HostRecord) -> Certificate {
        let key_alg = posture::sample_key_algorithm(&mut self.rng, false);
        let key = KeyPair::from_seed(key_alg, format!("hostkey-{}", rec.hostname).as_bytes());
        let sig = posture::legacy_signature_override(
            &mut self.rng,
            Some(InjectedError::SelfSigned),
            key_alg,
        )
        .unwrap_or(if key_alg.is_ec() {
            SignatureAlgorithm::EcdsaWithSha256
        } else {
            SignatureAlgorithm::Sha256WithRsa
        });
        let (not_before, days) = self.validity_window(false, false);
        // Half cover the right name (self-signed is the error); half are
        // appliance defaults.
        let cn = if self.rng.gen::<f64>() < 0.5 {
            rec.hostname.clone()
        } else {
            "localhost".to_string()
        };
        rec.issuer = Some(cn.clone());
        ca::self_signed(
            &cn,
            vec![cn.clone()],
            &key,
            sig,
            Validity {
                not_before,
                not_after: not_before.plus_days(days),
            },
        )
    }

    /// Full chain from an untrusted CA with the self-signed root included
    /// in the peer stack → "self-signed certificate in chain".
    fn issue_untrusted_full_chain(&mut self, rec: &mut HostRecord) -> Vec<Certificate> {
        let key_alg = posture::sample_key_algorithm(&mut self.rng, false);
        let key = KeyPair::from_seed(key_alg, format!("hostkey-{}", rec.hostname).as_bytes());
        let (not_before, days) = self.validity_window(false, false);
        let untrusted = self.plan.cadb().untrusted_indices();
        let ca_idx = if rec.country == "kr" {
            *untrusted
                .iter()
                .find(|&&i| self.plan.cadb().get(i).profile.country == "KR")
                .unwrap_or(&untrusted[0])
        } else {
            untrusted[self.rng.gen_range(0..untrusted.len())]
        };
        let mut profile = LeafProfile::dv(rec.hostname.clone(), key.public(), not_before);
        profile.validity_days = Some(days);
        rec.issuer = Some(self.plan.cadb().get(ca_idx).profile.label.to_string());
        let mut chain = self.issue(ca_idx, &profile);
        chain.push(self.plan.cadb().get(ca_idx).root.cert.clone());
        chain
    }
}

/// How a hostname-mismatch certificate is wrong.
#[derive(Debug, Clone, Copy)]
enum MismatchKind {
    /// Wildcard with the wrong scope (the Bangladesh pattern).
    WrongWildcardScope,
    /// A certificate for an entirely different host.
    OtherHost,
}

impl MismatchKind {
    fn pick(rng: &mut impl Rng) -> MismatchKind {
        if rng.gen::<f64>() < 0.6 {
            MismatchKind::WrongWildcardScope
        } else {
            MismatchKind::OtherHost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use govscan_pki::trust::TrustStoreProfile;

    fn world() -> World {
        World::generate(&WorldConfig::small(1234))
    }

    /// A stable SHA-256 (hex) over everything observable about a world:
    /// ground truth, wire behaviour, DNS (including timeout slices),
    /// rankings, web graph and the CT log. Two worlds with equal digests
    /// are behaviourally identical, and unlike a `DefaultHasher` value
    /// the digest is fixed across toolchains, so tests can pin it.
    fn world_digest(w: &World) -> String {
        use govscan_crypto::{Digest, Sha256};
        let mut h = Sha256::new();
        // Every field is length-prefixed, so adjacent fields cannot run
        // together.
        let mut feed = |bytes: &[u8]| {
            h.update(&(bytes.len() as u64).to_le_bytes());
            h.update(bytes);
        };
        for list in [
            &w.gov_hosts,
            &w.seed_list,
            &w.whitelist,
            &w.gsa_hosts,
            &w.rok_hosts,
        ] {
            feed(&(list.len() as u64).to_le_bytes());
            for s in list {
                feed(s.as_bytes());
            }
        }
        let mut keys: Vec<&String> = w.records.keys().collect();
        keys.sort();
        for k in keys {
            feed(k.as_bytes());
            feed(format!("{:?}", w.records[k]).as_bytes());
        }
        let mut names: Vec<&str> = w.net.hostnames().collect();
        names.sort_unstable();
        for n in names {
            feed(format!("{:?}", w.net.host(n)).as_bytes());
            feed(format!("{:?}", w.net.caa_lookup(n)).as_bytes());
        }
        for g in &w.gov_hosts {
            feed(format!("{:?}", w.net.resolve(g)).as_bytes());
        }
        feed(format!("{:?}", w.tranco).as_bytes());
        feed(format!("{:?}", w.majestic).as_bytes());
        feed(format!("{:?}", w.cisco).as_bytes());
        let mut links: Vec<_> = w.webgraph.links.iter().collect();
        links.sort();
        feed(format!("{links:?}").as_bytes());
        feed(&w.cadb.ct_log().root());
        feed(&w.cadb.ct_log().size().to_le_bytes());
        govscan_crypto::hex::encode(&h.finalize())
    }

    #[test]
    fn generates_deterministically() {
        let a = World::generate(&WorldConfig::small(7));
        let b = World::generate(&WorldConfig::small(7));
        assert_eq!(a.gov_hosts, b.gov_hosts);
        assert_eq!(a.seed_list, b.seed_list);
        assert_eq!(a.net.len(), b.net.len());
        assert_eq!(world_digest(&a), world_digest(&b));
        // Pinned across commits: any change that moves one byte of the
        // generated world fails here.
        assert_eq!(
            world_digest(&a),
            "ee8f293a515fb59d9942a81238aeed618a3879f936991d1f49de1852871b9ccc"
        );
    }

    #[test]
    fn kept_tbs_bytes_equal_a_fresh_encoding_for_every_certificate() {
        // Every certificate the world holds: each CA's root and
        // intermediate, then every chain a TLS host serves (leaves,
        // self-signed certificates, untrusted roots sent in the chain,
        // and the cluster and shared chains several hosts serve).
        let w = World::generate(&WorldConfig::small(7));
        let mut certs: Vec<&Certificate> = (0..w.cadb.len())
            .flat_map(|i| [&w.cadb.get(i).root.cert, &w.cadb.get(i).issuing.cert])
            .collect();
        let mut hosts_per_leaf: HashMap<govscan_crypto::Fingerprint, usize> = HashMap::new();
        for name in w.net.hostnames() {
            let Some(tls) = w.net.host(name).and_then(|h| h.tls.as_ref()) else {
                continue;
            };
            if let Some(leaf) = tls.chain.first() {
                *hosts_per_leaf.entry(leaf.fingerprint()).or_default() += 1;
            }
            certs.extend(tls.chain.iter());
        }
        assert!(certs.iter().any(|c| c.is_self_signed() && !c.is_ca()));
        assert!(certs
            .iter()
            .skip(2 * w.cadb.len())
            .any(|c| c.is_ca() && c.is_self_signed()));
        assert!(hosts_per_leaf.values().any(|&hosts| hosts > 1));
        for cert in certs {
            assert_eq!(cert.tbs_der(), &cert.tbs().to_der()[..], "{cert:?}");
        }
    }

    #[test]
    fn thread_count_invariance() {
        // The tentpole invariant: per-(phase, shard) RNG streams plus
        // ordered merges make the world a pure function of the seed —
        // one worker and many workers must produce bit-identical output.
        // (The env var is process-global; a concurrent test generating a
        // world merely changes its pool size, never its output — that is
        // exactly the property under test.)
        std::env::set_var("GOVSCAN_THREADS", "1");
        let serial = World::generate(&WorldConfig::small(0x5EED));
        std::env::set_var("GOVSCAN_THREADS", "4");
        let parallel = World::generate(&WorldConfig::small(0x5EED));
        std::env::remove_var("GOVSCAN_THREADS");
        assert_eq!(serial.gov_hosts, parallel.gov_hosts);
        assert_eq!(serial.seed_list, parallel.seed_list);
        assert_eq!(serial.net.len(), parallel.net.len());
        assert_eq!(
            world_digest(&serial),
            world_digest(&parallel),
            "worlds must be bit-identical across thread counts"
        );
    }

    #[test]
    fn record_lookup_ignores_case() {
        let w = world();
        let h = w.gov_hosts[0].clone();
        assert!(w.record(&h).is_some(), "lowercase fast path");
        let upper = h.to_ascii_uppercase();
        assert_ne!(upper, h);
        assert_eq!(
            w.record(&upper).map(|r| &r.hostname),
            w.record(&h).map(|r| &r.hostname),
            "mixed-case lookup folds to the same record"
        );
    }

    #[test]
    fn shared_chains_consolidate_within_countries() {
        let w = world();
        let client = govscan_net::TlsClientConfig::default();
        let mut tls_hosts = 0usize;
        let mut by_fp: HashMap<govscan_crypto::Fingerprint, std::collections::HashSet<&str>> =
            HashMap::new();
        for h in &w.gov_hosts {
            let rec = &w.records[h];
            if !rec.posture.is_valid_https() {
                continue;
            }
            let session = w
                .net
                .tls_connect(h, &client)
                .expect("valid host handshakes");
            let leaf = session.peer_chain.first().expect("chain non-empty");
            tls_hosts += 1;
            by_fp
                .entry(leaf.fingerprint())
                .or_default()
                .insert(rec.country);
        }
        let distinct = by_fp.len();
        assert!(
            distinct * 20 < tls_hosts * 19,
            "shared chains consolidate: {distinct} chains for {tls_hosts} hosts"
        );
        // Shared chains never span countries (keys are per country-group).
        for countries in by_fp.values() {
            assert_eq!(countries.len(), 1, "a chain leaked across countries");
        }
    }

    #[test]
    fn population_sizes_scale() {
        let w = world();
        let expected = (183_000.0 * w.config.scale) as usize;
        let n = w.gov_hosts.len();
        assert!(
            (n as f64) > expected as f64 * 0.8 && (n as f64) < expected as f64 * 1.3,
            "{n} vs {expected}"
        );
        assert!(!w.seed_list.is_empty());
        assert!(w.seed_list.len() < n / 3);
    }

    #[test]
    fn posture_mix_matches_paper_marginals() {
        let w = world();
        let mut http_only = 0usize;
        let mut valid = 0usize;
        let mut invalid = 0usize;
        for h in &w.gov_hosts {
            match w.records[h].posture {
                Posture::HttpOnly => http_only += 1,
                Posture::ValidHttps { .. } => valid += 1,
                Posture::InvalidHttps { .. } => invalid += 1,
                Posture::Unreachable => {}
            }
        }
        let reachable = (http_only + valid + invalid) as f64;
        let https_rate = (valid + invalid) as f64 / reachable;
        // World ≈ 39% https (wide tolerance at test scale; China pulls up).
        assert!((0.3..0.55).contains(&https_rate), "{https_rate}");
        let valid_rate = valid as f64 / (valid + invalid) as f64;
        assert!((0.5..0.85).contains(&valid_rate), "{valid_rate}");
    }

    #[test]
    fn valid_hosts_validate_on_the_wire() {
        let w = world();
        let client = govscan_net::TlsClientConfig::default();
        let mut checked = 0;
        for h in &w.gov_hosts {
            if !w.records[h].posture.is_valid_https() {
                continue;
            }
            let session = w.net.tls_connect(h, &client).expect("handshake succeeds");
            let verdict = govscan_pki::validate_chain(
                &session.peer_chain,
                w.cadb.trust_store(TrustStoreProfile::Apple),
                h,
                w.scan_time(),
            );
            assert!(verdict.is_ok(), "{h}: {verdict:?}");
            checked += 1;
            if checked > 200 {
                break;
            }
        }
        assert!(checked > 50, "enough valid hosts to check");
    }

    #[test]
    fn injected_errors_measure_as_intended() {
        let w = world();
        let client = govscan_net::TlsClientConfig::default();
        let mut checked = 0;
        for h in &w.gov_hosts {
            let Posture::InvalidHttps { error } = w.records[h].posture else {
                continue;
            };
            if !error.delivers_chain() {
                continue;
            }
            let session = match w.net.tls_connect(h, &client) {
                Ok(s) => s,
                Err(e) => panic!("{h} ({error:?}): unexpected tls failure {e}"),
            };
            let verdict = govscan_pki::validate_chain(
                &session.peer_chain,
                w.cadb.trust_store(TrustStoreProfile::Apple),
                h,
                w.scan_time(),
            );
            let measured = verdict.expect_err("must be invalid");
            use govscan_pki::CertError as E;
            let expected = match error {
                InjectedError::HostnameMismatch => E::HostnameMismatch,
                InjectedError::UnableLocalIssuer => E::UnableToGetLocalIssuer,
                InjectedError::SelfSigned => E::SelfSignedLeaf,
                InjectedError::SelfSignedInChain => E::SelfSignedInChain,
                InjectedError::Expired => E::Expired,
                _ => unreachable!(),
            };
            assert_eq!(measured, expected, "{h}");
            checked += 1;
            if checked > 300 {
                break;
            }
        }
        assert!(checked > 50, "enough invalid hosts to check: {checked}");
    }

    #[test]
    fn reuse_clusters_share_keys() {
        let w = world();
        // Find Bangladesh mismatch hosts sharing a certificate.
        let mut fingerprints: HashMap<govscan_crypto::Fingerprint, usize> = HashMap::new();
        let client = govscan_net::TlsClientConfig::default();
        for h in &w.gov_hosts {
            let rec = &w.records[h];
            if rec.country != "bd" {
                continue;
            }
            if let Posture::InvalidHttps { .. } = rec.posture {
                if let Ok(s) = w.net.tls_connect(h, &client) {
                    if let Some(leaf) = s.peer_chain.first() {
                        *fingerprints
                            .entry(leaf.tbs().public_key.fingerprint())
                            .or_default() += 1;
                    }
                }
            }
        }
        let max_shared = fingerprints.values().copied().max().unwrap_or(0);
        assert!(max_shared >= 2, "bd cluster shares a key: {max_shared}");
    }

    #[test]
    fn case_study_lists_exist() {
        let w = world();
        assert!(!w.gsa_hosts.is_empty());
        assert!(!w.rok_hosts.is_empty());
        for h in w.rok_hosts.iter().take(20) {
            assert!(h.ends_with(".go.kr"), "{h}");
            assert!(w.records[h].in_rok_list);
        }
        for h in w.gsa_hosts.iter().take(20) {
            let r = &w.records[h];
            assert!(!r.gsa_datasets.is_empty());
        }
        // .mil hosts present.
        assert!(w.gsa_hosts.iter().any(|h| h.ends_with(".mil")));
    }

    #[test]
    fn rankings_and_seed_are_consistent() {
        let w = world();
        assert!(w.tranco.gov_in_top(w.tranco.size) > 0);
        for e in w.tranco.gov_entries().take(50) {
            let rec = &w.records[&e.hostname];
            assert_eq!(rec.tranco_rank, Some(e.rank));
            assert!(rec.in_seed);
        }
        // Materialized non-gov hosts are dialable.
        let ng = w.tranco.nongov_entries().next().unwrap();
        assert!(w.net.host(&ng.hostname).is_some());
    }

    #[test]
    fn whitelist_contains_whitelist_only_countries() {
        let w = world();
        assert!(w.whitelist.iter().any(|h| w.records[h].country == "de"));
    }

    #[test]
    fn phishing_twins_have_valid_https() {
        let w = world();
        let client = govscan_net::TlsClientConfig::default();
        let twin = "etagovlk.sl";
        assert!(w.record(twin).is_some(), "etagov twin exists");
        let session = w.net.tls_connect(twin, &client).unwrap();
        let verdict = govscan_pki::validate_chain(
            &session.peer_chain,
            w.cadb.trust_store(TrustStoreProfile::Apple),
            twin,
            w.scan_time(),
        );
        assert!(verdict.is_ok(), "{verdict:?}");
        assert!(!w.records[twin].is_gov);
    }

    #[test]
    fn unreachable_hosts_fail_dns() {
        let w = world();
        let client = govscan_net::TlsClientConfig::default();
        let mut found = 0;
        for h in &w.gov_hosts {
            if matches!(w.records[h].posture, Posture::Unreachable) {
                let out = w.net.fetch(h, false, &client);
                assert!(
                    matches!(
                        out,
                        govscan_net::HttpOutcome::DnsFailure | govscan_net::HttpOutcome::DnsTimeout
                    ),
                    "{h}: {out:?}"
                );
                found += 1;
                if found > 50 {
                    break;
                }
            }
        }
        assert!(found > 10, "unreachable pool exists");
    }

    #[test]
    fn caa_records_published_for_flagged_hosts() {
        let w = world();
        let mut with_caa = 0;
        for h in &w.gov_hosts {
            if w.records[h].has_caa && !matches!(w.records[h].posture, Posture::Unreachable) {
                let set = w.net.caa_lookup(h);
                assert!(!set.is_empty(), "{h} should publish CAA");
                assert!(set.iter().all(|r| r.is_well_formed()));
                with_caa += 1;
            }
        }
        assert!(with_caa > 5, "CAA hosts exist: {with_caa}");
    }
}
