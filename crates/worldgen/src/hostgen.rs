//! Hostname generation: plausible government (and non-government)
//! hostnames per country, following each country's domain convention.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::hash::BuildHasher;

use rand::Rng;

use crate::countries::Country;

/// Department/function words used as labels (language-neutral mix).
const DEPARTMENTS: &[&str] = &[
    "health",
    "finance",
    "tax",
    "customs",
    "immigration",
    "interior",
    "justice",
    "police",
    "defense",
    "education",
    "agriculture",
    "environment",
    "energy",
    "transport",
    "labor",
    "commerce",
    "industry",
    "tourism",
    "culture",
    "sports",
    "science",
    "statistics",
    "census",
    "elections",
    "parliament",
    "senate",
    "president",
    "pm",
    "cabinet",
    "treasury",
    "budget",
    "planning",
    "housing",
    "water",
    "forestry",
    "fisheries",
    "mines",
    "telecom",
    "post",
    "weather",
    "met",
    "geology",
    "survey",
    "lands",
    "registry",
    "courts",
    "prisons",
    "fire",
    "emergency",
    "disaster",
    "redcross",
    "social",
    "welfare",
    "pension",
    "insurance",
    "veterans",
    "youth",
    "women",
    "children",
    "seniors",
    "disability",
    "foreign",
    "embassy",
    "consulate",
    "trade",
    "export",
    "investment",
    "sme",
    "bank",
    "audit",
    "procurement",
    "ethics",
    "ombudsman",
    "archives",
    "library",
    "museum",
    "portal",
    "services",
    "eservices",
    "egov",
    "data",
    "opendata",
    "maps",
    "gis",
    "news",
    "media",
    "press",
    "info",
    "mail",
    "intranet",
];

/// City/region flavor words for sub-national sites.
const LOCALITIES: &[&str] = &[
    "capital",
    "north",
    "south",
    "east",
    "west",
    "central",
    "metro",
    "riverside",
    "lakeside",
    "highlands",
    "valley",
    "coastal",
    "upper",
    "lower",
    "port",
    "new",
    "old",
    "saint",
    "fort",
    "mount",
    "grand",
];

/// Subdomain prefixes (www and service-style).
const PREFIXES: &[&str] = &[
    "www", "portal", "online", "my", "e", "apps", "secure", "services",
];

/// Generic second-level names for non-government hosts.
const NONGOV_WORDS: &[&str] = &[
    "shop", "news", "blog", "media", "cloud", "web", "online", "digital", "tech", "soft", "net",
    "store", "market", "travel", "hotel", "food", "sport", "game", "music", "video", "photo",
    "auto", "home", "life", "world", "daily", "express", "prime", "mega", "super", "smart",
];

/// Deterministic hostname generator for one country.
///
/// The generator keeps the one copy of every name it has accepted, in
/// generation order ([`Self::into_names`] hands them over). Candidates
/// are written into a reused buffer and checked against a hash index of
/// the accepted names, so a name costs one allocation, its kept copy,
/// and a rejected candidate none.
pub struct HostnameGen {
    suffixes: Vec<String>,
    /// Every accepted name, in generation order.
    names: Vec<String>,
    /// Name hash → position in `names` of the first name with that hash.
    index: HashMap<u64, u32>,
    /// Accepted names whose hash was already taken by a different name.
    collided: HashSet<String>,
    hasher: RandomState,
    /// The candidate being built, and room to renumber it.
    candidate: String,
    renumbered: String,
    counter: u64,
}

impl HostnameGen {
    /// Build for a country. Whitelist-only countries (no gov suffix) get
    /// ministry-style names under the bare ccTLD (e.g. `bund-portal.de`).
    pub fn new(country: &Country) -> Self {
        let suffixes = if country.gov_suffixes.is_empty() {
            vec![country.code.to_string()]
        } else {
            country.gov_suffixes.iter().map(|s| s.to_string()).collect()
        };
        HostnameGen {
            suffixes,
            names: Vec::new(),
            index: HashMap::new(),
            collided: HashSet::new(),
            hasher: RandomState::new(),
            candidate: String::new(),
            renumbered: String::new(),
            counter: 0,
        }
    }

    /// Generate the next unique government hostname.
    pub fn next_gov(&mut self, rng: &mut impl Rng) -> &str {
        loop {
            let suffix = &self.suffixes[rng.gen_range(0..self.suffixes.len())];
            let dept = DEPARTMENTS[rng.gen_range(0..DEPARTMENTS.len())];
            let name = &mut self.candidate;
            name.clear();
            let written = match rng.gen_range(0..6) {
                // www.health.gov.xx
                0 | 1 => write!(name, "www.{dept}.{suffix}"),
                // health.gov.xx
                2 => write!(name, "{dept}.{suffix}"),
                // portal.health.gov.xx
                3 => {
                    let p = PREFIXES[rng.gen_range(0..PREFIXES.len())];
                    write!(name, "{p}.{dept}.{suffix}")
                }
                // capital-health.gov.xx (sub-national)
                4 => {
                    let loc = LOCALITIES[rng.gen_range(0..LOCALITIES.len())];
                    write!(name, "{loc}-{dept}.{suffix}")
                }
                // riverside.gov.xx
                _ => {
                    let loc = LOCALITIES[rng.gen_range(0..LOCALITIES.len())];
                    write!(name, "{loc}.{suffix}")
                }
            };
            written.expect("writing to a String cannot fail");
            if self.accept_candidate() {
                return self.last();
            }
            // Collision: disambiguate deterministically by numbering the
            // leftmost label (keeps the government suffix intact). The
            // hyphenated form matters: `{first}{c}` collides with the
            // case-study namespaces (ROK's `www{N}.{dept}.go.kr` /
            // `{dept}{N}.go.kr` shapes), and a later phase re-adding a
            // worldwide hostname would shadow its realization in the
            // SimNet — breaking streamed/materialized scan parity, since
            // the streamed pipeline realizes each worldwide shard alone.
            // No other generator emits a `-{digits}` label, so worldwide
            // names stay phase-unique by construction.
            self.counter += 1;
            let c = self.counter;
            let (first, rest) = self.candidate.split_once('.').expect("hostnames have dots");
            self.renumbered.clear();
            write!(self.renumbered, "{first}-{c}.{rest}").expect("writing to a String cannot fail");
            std::mem::swap(&mut self.candidate, &mut self.renumbered);
            if self.accept_candidate() {
                return self.last();
            }
        }
    }

    /// Generate a unique non-government hostname under this ccTLD (or a
    /// gTLD one-third of the time).
    pub fn next_nongov(&mut self, rng: &mut impl Rng) -> &str {
        loop {
            let word = NONGOV_WORDS[rng.gen_range(0..NONGOV_WORDS.len())];
            let word2 = NONGOV_WORDS[rng.gen_range(0..NONGOV_WORDS.len())];
            let tld = match rng.gen_range(0..3) {
                0 => "com",
                1 => self.suffixes[0].split('.').next_back().unwrap_or("com"),
                _ => ["net", "org", "info"][rng.gen_range(0..3)],
            };
            self.counter += 1;
            let c = self.counter;
            let name = &mut self.candidate;
            name.clear();
            let written = match rng.gen_range(0..3) {
                0 => write!(name, "www.{word}{word2}{c}.{tld}"),
                1 => write!(name, "{word}-{word2}{c}.{tld}"),
                _ => write!(name, "{word}{c}.{tld}"),
            };
            written.expect("writing to a String cannot fail");
            if self.accept_candidate() {
                return self.last();
            }
        }
    }

    /// Every name generated so far, in generation order.
    pub fn into_names(self) -> Vec<String> {
        self.names
    }

    /// The name accepted last.
    fn last(&self) -> &str {
        self.names.last().expect("a name was just accepted")
    }

    /// Keep the candidate if no earlier name equals it; true if kept.
    fn accept_candidate(&mut self) -> bool {
        let name = self.candidate.as_str();
        let hash = self.hasher.hash_one(name);
        let position = u32::try_from(self.names.len()).expect("under 2^32 names per country");
        match self.index.get(&hash) {
            None => {
                self.index.insert(hash, position);
            }
            Some(&first) => {
                if self.names[first as usize] == name || self.collided.contains(name) {
                    return false;
                }
                // A different name with the same hash.
                self.collided.insert(name.to_owned());
            }
        }
        self.names.push(name.to_owned());
        true
    }
}

/// The hostname of a phishing twin for `victim` (§7.3.2): the same name
/// registered under a lookalike TLD, e.g. `eta.gov.lk` → `etagov.sl`.
pub fn phishing_twin(victim: &str, lookalike_tld: &str) -> String {
    let stem: String = victim
        .trim_start_matches("www.")
        .replace('.', "")
        .chars()
        .take(24)
        .collect();
    format!("{stem}.{lookalike_tld}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::countries::Country;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gov_names_use_country_conventions() {
        let fr = Country::by_code("fr").unwrap();
        let mut g = HostnameGen::new(fr);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let name = g.next_gov(&mut rng);
            assert!(name.ends_with(".gouv.fr"), "{name}");
        }
    }

    #[test]
    fn usa_names_span_all_suffixes() {
        let us = Country::by_code("us").unwrap();
        let mut g = HostnameGen::new(us);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..400 {
            g.next_gov(&mut rng);
        }
        let names = g.into_names();
        assert!(names.iter().any(|n| n.ends_with(".gov")));
        assert!(names.iter().any(|n| n.ends_with(".mil")));
        assert!(names.iter().any(|n| n.ends_with(".fed.us")));
    }

    #[test]
    fn names_are_unique() {
        let bd = Country::by_code("bd").unwrap();
        let mut g = HostnameGen::new(bd);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..3000 {
            assert!(
                seen.insert(g.next_gov(&mut rng).to_owned()),
                "duplicate hostname"
            );
        }
    }

    #[test]
    fn whitelist_country_uses_bare_cctld() {
        let de = Country::by_code("de").unwrap();
        let mut g = HostnameGen::new(de);
        let mut rng = StdRng::seed_from_u64(4);
        let name = g.next_gov(&mut rng);
        assert!(name.ends_with(".de"), "{name}");
    }

    #[test]
    fn nongov_names_avoid_gov_suffixes() {
        let gb = Country::by_code("gb").unwrap();
        let mut g = HostnameGen::new(gb);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let name = g.next_nongov(&mut rng);
            assert!(!name.contains(".gov."), "{name}");
            assert!(!name.ends_with(".gov"), "{name}");
        }
    }

    #[test]
    fn phishing_twin_shape() {
        assert_eq!(phishing_twin("eta.gov.lk", "sl"), "etagovlk.sl");
        assert_eq!(phishing_twin("www.tax.gov.us", "co"), "taxgovus.co");
    }

    #[test]
    fn deterministic_generation() {
        let kr = Country::by_code("kr").unwrap();
        let mut a = HostnameGen::new(kr);
        let mut b = HostnameGen::new(kr);
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(a.next_gov(&mut ra), b.next_gov(&mut rb));
        }
    }

    /// Worldwide names must never take the case-study shapes: ROK's
    /// Government24 population is `www{N}.{dept}.go.kr` /
    /// `{dept}{N}.go.kr` style (a letter directly followed by trailing
    /// digits), and GSA's is `{tag}{N}-usgsa.{suffix}`. A collision
    /// would let a later generation phase shadow a worldwide host in the
    /// SimNet, silently changing its scanned behaviour — and breaking
    /// the streamed pipeline's digest parity, since per-shard nets never
    /// see the case-study phases. Generate enough kr names to force the
    /// collision-numbering path many times over.
    #[test]
    fn collision_labels_stay_out_of_case_study_namespaces() {
        let kr = Country::by_code("kr").unwrap();
        let mut g = HostnameGen::new(kr);
        let mut rng = StdRng::seed_from_u64(11);
        let mut numbered = 0;
        for _ in 0..30_000 {
            let name = g.next_gov(&mut rng);
            let first = name.split('.').next().unwrap();
            if first.ends_with(|c: char| c.is_ascii_digit()) {
                numbered += 1;
                let stem = first.trim_end_matches(|c: char| c.is_ascii_digit());
                assert!(
                    stem.ends_with('-'),
                    "collision label {name} collides with the ROK shape"
                );
            }
            assert!(!first.contains("usgsa"), "{name}");
        }
        assert!(numbered > 1000, "collision path never exercised");
    }
}
