//! The conservative government-hostname filter (§4.1.1).
//!
//! A hostname is classified as governmental when it ends, **at a label
//! boundary**, with a recognised government suffix: a convention prefix
//! (`gov`, `gouv`, `gob`, `go`, `gub`, `govt`, `guv`, `govern`,
//! `government`, `admin`, `gv`) followed by a valid ISO country code, or
//! one of the explicit exceptions (the USA's `.gov` / `.mil` /
//! `.fed.us` / `.gov.us`, Kosovo's `rks-gov.net`, Mauritius's
//! `govmu.org`, …). The filter is deliberately high-precision /
//! limited-recall, exactly as the paper describes — whitelist-only
//! countries (Germany, Denmark, the Netherlands, …) are *not* matched.
//!
//! Label-boundary matching is what distinguishes `eta.gov.lk`
//! (government) from the `etagov.sl` phishing twin (§7.3.2): the latter
//! must not match.

use std::collections::HashSet;

/// ISO 3166 alpha-2 country codes recognised as ccTLDs (the ICANN list
/// the crawler checks links against).
pub const COUNTRY_CODES: &[&str] = &[
    "ad", "ae", "af", "ag", "ai", "al", "am", "ao", "aq", "ar", "as", "at", "au", "aw", "ax", "az",
    "ba", "bb", "bd", "be", "bf", "bg", "bh", "bi", "bj", "bm", "bn", "bo", "br", "bs", "bt", "bw",
    "by", "bz", "ca", "cc", "cd", "cf", "cg", "ch", "ci", "ck", "cl", "cm", "cn", "co", "cr", "cu",
    "cv", "cw", "cx", "cy", "cz", "de", "dj", "dk", "dm", "do", "dz", "ec", "ee", "eg", "eh", "er",
    "es", "et", "fi", "fj", "fk", "fm", "fo", "fr", "ga", "gb", "gd", "ge", "gf", "gg", "gh", "gi",
    "gl", "gm", "gn", "gp", "gq", "gr", "gt", "gu", "gw", "gy", "hk", "hm", "hn", "hr", "ht", "hu",
    "id", "ie", "il", "im", "in", "iq", "ir", "is", "it", "je", "jm", "jo", "jp", "ke", "kg", "kh",
    "ki", "km", "kn", "kp", "kr", "kw", "ky", "kz", "la", "lb", "lc", "li", "lk", "lr", "ls", "lt",
    "lu", "lv", "ly", "ma", "mc", "md", "me", "mg", "mh", "mk", "ml", "mm", "mn", "mo", "mp", "mq",
    "mr", "ms", "mt", "mu", "mv", "mw", "mx", "my", "mz", "na", "nc", "ne", "nf", "ng", "ni", "nl",
    "no", "np", "nr", "nu", "nz", "om", "pa", "pe", "pf", "pg", "ph", "pk", "pl", "pm", "pn", "pr",
    "ps", "pt", "pw", "py", "qa", "re", "ro", "rs", "ru", "rw", "sa", "sb", "sc", "sd", "se", "sg",
    "sh", "si", "sk", "sl", "sm", "sn", "so", "sr", "ss", "st", "sv", "sx", "sy", "sz", "tc", "td",
    "tf", "tg", "th", "tj", "tk", "tl", "tm", "tn", "to", "tr", "tt", "tv", "tw", "tz", "ua", "ug",
    "uk", "us", "uy", "uz", "va", "vc", "ve", "vg", "vi", "vn", "vu", "wf", "ws", "ye", "yt", "za",
    "zm", "zw", "xk",
];

/// Government-label conventions from §4.1.1.
const GOV_LABELS: &[&str] = &[
    "gov",
    "gouv",
    "gob",
    "go",
    "gub",
    "govt",
    "guv",
    "govern",
    "government",
    "admin",
    "gv",
];

/// Exceptions that do not follow `label.cc`: the USA's TLDs plus known
/// single-country conventions.
const EXCEPTIONS: &[(&str, &str)] = &[
    ("gov", "us"),
    ("mil", "us"),
    ("fed.us", "us"),
    ("gov.us", "us"),
    ("rks-gov.net", "xk"),
    ("govmu.org", "mu"),
    ("dep.no", "no"),
    ("nic.in", "in"),
    ("gc.ca", "ca"),
    ("gov.on.ca", "ca"),
    ("fgov.be", "be"),
    ("llv.li", "li"),
    ("gouvernement.lu", "lu"),
    ("public.lu", "lu"),
];

/// The compiled filter.
#[derive(Debug, Clone)]
pub struct GovFilter {
    cc: HashSet<&'static str>,
}

impl Default for GovFilter {
    fn default() -> Self {
        Self::standard()
    }
}

impl GovFilter {
    /// The standard filter with the full ICANN ccTLD table.
    pub fn standard() -> GovFilter {
        GovFilter {
            cc: COUNTRY_CODES.iter().copied().collect(),
        }
    }

    /// Classify a hostname. Returns the inferred ISO country code when
    /// the hostname is governmental, `None` otherwise.
    ///
    /// Matches on the hostname's bytes, ignoring ASCII case, so it never
    /// allocates; non-ASCII bytes match only themselves.
    pub fn classify(&self, hostname: &str) -> Option<&'static str> {
        let host = hostname.trim_end_matches('.').as_bytes();
        if !host.contains(&b'.') || host.split(|&b| b == b'.').any(<[u8]>::is_empty) {
            return None;
        }
        // Explicit exceptions first (longest suffix match, label-aligned).
        for (suffix, cc) in EXCEPTIONS {
            if ends_with_labels(host, suffix) {
                return Some(cc);
            }
        }
        // Convention: <gov-label>.<cc> as the last two labels.
        let mut labels = host.rsplit(|&b| b == b'.');
        let (Some(cc_label), Some(gov_label), Some(_)) =
            (labels.next(), labels.next(), labels.next())
        else {
            return None;
        };
        let cc = self.country_code(cc_label)?;
        // "uk" is the ccTLD for GB.
        let cc = if cc == "uk" { "gb" } else { cc };
        let is_gov_label = |label: &[u8]| {
            GOV_LABELS
                .iter()
                .any(|g| label.eq_ignore_ascii_case(g.as_bytes()))
        };
        if is_gov_label(gov_label) {
            return Some(cc);
        }
        // `government.bg`-style: the full word directly under the cc.
        let digits = gov_label
            .iter()
            .rev()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if gov_label.len() >= 3
            && gov_label[..3].eq_ignore_ascii_case(b"gov")
            && is_gov_label(&gov_label[..gov_label.len() - digits])
        {
            return Some(cc);
        }
        None
    }

    /// The table's entry for a TLD label, ignoring ASCII case. Every code
    /// is two ASCII letters, so the label is folded on the stack.
    fn country_code(&self, label: &[u8]) -> Option<&'static str> {
        let &[a, b] = label else { return None };
        let folded = [a.to_ascii_lowercase(), b.to_ascii_lowercase()];
        self.cc.get(std::str::from_utf8(&folded).ok()?).copied()
    }

    /// Is this a government hostname?
    pub fn is_gov(&self, hostname: &str) -> bool {
        self.classify(hostname).is_some()
    }

    /// Does the hostname end in a valid country-code TLD (the crawler's
    /// link-following criterion, §4.2.2)? gTLD links (`.com`, `.org`,
    /// `.net`, …) are not followed.
    pub fn has_cc_tld(&self, hostname: &str) -> bool {
        match hostname.trim_end_matches('.').rsplit_once('.') {
            Some((_, tld)) => self.country_code(tld.as_bytes()).is_some(),
            None => false,
        }
    }

    /// The US's bare TLDs also count for crawling (`.gov`, `.mil`).
    pub fn crawlable(&self, hostname: &str) -> bool {
        let ends_with = |tld: &[u8]| {
            let host = hostname.as_bytes();
            host.len() >= tld.len() && host[host.len() - tld.len()..].eq_ignore_ascii_case(tld)
        };
        self.has_cc_tld(hostname) || ends_with(b".gov") || ends_with(b".mil")
    }
}

/// Whether `host` ends with `suffix` at a label boundary, ignoring ASCII
/// case, with at least one label before it: `www.gc.ca` matches `gc.ca`,
/// but neither `gc.ca` itself nor `notgc.ca` does. `host` has no empty
/// labels, so a dot before the suffix means a label before it.
fn ends_with_labels(host: &[u8], suffix: &str) -> bool {
    let suffix = suffix.as_bytes();
    let Some(dot) = host.len().checked_sub(suffix.len() + 1) else {
        return false;
    };
    host[dot] == b'.' && host[dot + 1..].eq_ignore_ascii_case(suffix)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f() -> GovFilter {
        GovFilter::standard()
    }

    /// The label-vector classifier the byte matcher replaced: the
    /// reference it must agree with.
    fn classify_reference(filter: &GovFilter, hostname: &str) -> Option<&'static str> {
        let host = hostname.trim_end_matches('.').to_ascii_lowercase();
        if host.is_empty() || !host.contains('.') {
            return None;
        }
        let labels: Vec<&str> = host.split('.').collect();
        if labels.iter().any(|l| l.is_empty()) {
            return None;
        }
        for (suffix, cc) in EXCEPTIONS {
            let suffix_labels: Vec<&str> = suffix.split('.').collect();
            if labels.len() > suffix_labels.len()
                && labels[labels.len() - suffix_labels.len()..] == suffix_labels[..]
            {
                return Some(cc);
            }
        }
        if labels.len() >= 3 {
            let cc_label = labels[labels.len() - 1];
            let gov_label = labels[labels.len() - 2];
            let cc: &'static str = match filter.cc.get(cc_label) {
                Some(&"uk") => "gb",
                Some(&cc) => cc,
                None => return None,
            };
            if GOV_LABELS.contains(&gov_label) {
                return Some(cc);
            }
            if gov_label.starts_with("gov")
                && GOV_LABELS.contains(&gov_label.trim_end_matches(|c: char| c.is_ascii_digit()))
            {
                return Some(cc);
            }
        }
        None
    }

    /// Edge cases for the byte matcher: case, dots, empty labels,
    /// non-ASCII bytes (next to and inside the labels it compares), apex
    /// exceptions and phishing twins.
    const EDGE_CASES: &[&str] = &[
        "",
        ".",
        "..",
        "gov",
        ".gov",
        "gov.",
        "x.gov",
        "X.GOV",
        "x.gov.",
        "x.gov..",
        "x..gov",
        ".x.gov",
        "WWW.NIH.GOV.",
        "www.Nih.Gov",
        "gc.ca",
        "www.gc.ca",
        "WWW.GC.CA",
        "notgc.ca",
        "x.notgc.ca",
        "gov.on.ca",
        "a.gov.on.ca",
        "on.ca",
        "rks-gov.net",
        "e.RKS-GOV.net",
        "govmu.org",
        "a.govmu.org",
        "a.xgovmu.org",
        "abcgov.us",
        "gov.us",
        "a.gov.us",
        "a.fed.us",
        "etagov.sl",
        "etagovlk.sl",
        "eta.gov.lk",
        "eta.GOV.LK",
        "x.gov.bd",
        "gov.bd",
        "x.gov.b",
        "x.gov.bdd",
        "x.gov2.bg",
        "x.GOV22.bg",
        "x.gov2x.bg",
        "x.government.bg",
        "x.governments.bg",
        "x.go.kr",
        "x.g.kr",
        "x.gv.at",
        "x.admin.ch",
        "x.Admin.CH",
        "agency.gov.uk",
        "x.gov.UK",
        "x.gov.é",
        "x.gov.bé",
        "é.gov.bd",
        "x.góv.bd",
        "x.gov.🇧🇩",
        "ñ.gob.mx",
        "x.gob.mx",
        "x.gob.m\u{0301}",
        "x.\u{0130}.tr",
        "x.gov\u{0130}.tr",
        "x.gov.tr\u{0130}",
        "gov.gov.gov",
        "a.b.c.d.gov.br",
        "x.gouvernement.lu",
        "x.public.lu",
        "x.llv.li",
        "x.nic.in",
        "x.dep.no",
        "x.fgov.be",
        "mil",
        "x.mil",
        "x.MIL.",
        "x.mil.us",
    ];

    #[test]
    fn byte_matcher_agrees_with_the_label_vectors() {
        let filter = f();
        let world =
            govscan_worldgen::World::generate(&govscan_worldgen::WorldConfig::small(0xF117));
        let mut hosts: Vec<String> = world.net.hostnames().map(str::to_string).collect();
        hosts.extend(world.records.keys().cloned());
        hosts.extend(EDGE_CASES.iter().map(|h| h.to_string()));
        // The crawl criteria's reference forms, over lowercased copies.
        let cc_tld = |h: &str| {
            let host = h.trim_end_matches('.').to_ascii_lowercase();
            host.rsplit_once('.')
                .is_some_and(|(_, tld)| filter.cc.contains(tld))
        };
        let crawlable = |h: &str| {
            let host = h.to_ascii_lowercase();
            cc_tld(&host) || host.ends_with(".gov") || host.ends_with(".mil")
        };
        let mut matched = 0;
        for host in &hosts {
            for h in [host.clone(), host.to_ascii_uppercase(), format!("{host}.")] {
                let got = filter.classify(&h);
                assert_eq!(got, classify_reference(&filter, &h), "{h:?}");
                assert_eq!(filter.has_cc_tld(&h), cc_tld(&h), "{h:?}");
                assert_eq!(filter.crawlable(&h), crawlable(&h), "{h:?}");
                matched += usize::from(got.is_some());
            }
        }
        assert!(
            matched > hosts.len(),
            "the world's government hosts classify"
        );
    }

    #[test]
    fn paper_examples_match() {
        // §4.1.1's listed valid examples.
        assert_eq!(f().classify("environment.gov.au"), Some("au"));
        assert_eq!(f().classify("geoportal.capmas.gov.eg"), Some("eg"));
        assert_eq!(f().classify("stats.data.gouv.fr"), Some("fr"));
        assert_eq!(f().classify("www.pwebapps.ezv.admin.ch"), Some("ch"));
    }

    #[test]
    fn conventions_by_language() {
        assert_eq!(f().classify("portal.gob.mx"), Some("mx"));
        assert_eq!(f().classify("minwon.go.kr"), Some("kr"));
        assert_eq!(f().classify("x.go.jp"), Some("jp"));
        assert_eq!(f().classify("tramites.gub.uy"), Some("uy"));
        assert_eq!(f().classify("ird.govt.nz"), Some("nz"));
        assert_eq!(f().classify("site.govern.ad"), Some("ad"));
        assert_eq!(f().classify("ministry.gv.at"), Some("at"));
        assert_eq!(f().classify("agency.gov.uk"), Some("gb"));
    }

    #[test]
    fn usa_specials() {
        assert_eq!(f().classify("www.nih.gov"), Some("us"));
        assert_eq!(f().classify("www.army.mil"), Some("us"));
        assert_eq!(f().classify("agency.fed.us"), Some("us"));
        assert_eq!(f().classify("portal.gov.us"), Some("us"));
    }

    #[test]
    fn phishing_twins_rejected() {
        // §7.3.2: `abcgov.us`-style lookalikes must NOT match.
        assert_eq!(f().classify("abcgov.us"), None);
        assert_eq!(f().classify("taxgov.us"), None);
        assert_eq!(f().classify("etagovlk.sl"), None);
        assert_eq!(f().classify("etagov.sl"), None);
        // But the genuine article does.
        assert_eq!(f().classify("eta.gov.lk"), Some("lk"));
    }

    #[test]
    fn non_government_rejected() {
        assert_eq!(f().classify("www.example.com"), None);
        assert_eq!(f().classify("shop.co.uk"), None);
        assert_eq!(f().classify("government.example.com"), None, "bad tld");
        assert_eq!(f().classify("gov.xyz"), None, "not a country code");
        assert_eq!(f().classify("localhost"), None);
        assert_eq!(f().classify(""), None);
        assert_eq!(f().classify("gov..bd"), None, "empty label");
    }

    #[test]
    fn bare_suffix_itself_is_not_a_host() {
        // "gov.bd" with nothing in front is the registry apex, which the
        // conservative filter still accepts only with a leading label.
        assert_eq!(f().classify("gov.bd"), None);
        assert_eq!(f().classify("x.gov.bd"), Some("bd"));
    }

    #[test]
    fn exceptions_are_label_aligned() {
        assert_eq!(f().classify("services.gc.ca"), Some("ca"));
        assert_eq!(f().classify("notgc.ca"), None);
        assert_eq!(f().classify("e.rks-gov.net"), Some("xk"));
        assert_eq!(f().classify("portal.govmu.org"), Some("mu"));
        assert_eq!(f().classify("regjeringen.dep.no"), Some("no"));
        assert_eq!(f().classify("ministry.nic.in"), Some("in"));
    }

    #[test]
    fn whitelist_only_countries_not_matched() {
        // Germany/Denmark/NL use plain ccTLDs — conservative filter says no.
        assert_eq!(f().classify("bund-portal.de"), None);
        assert_eq!(f().classify("borger.dk"), None);
        assert_eq!(f().classify("rijksoverheid.nl"), None);
    }

    #[test]
    fn cc_tld_crawl_criterion() {
        assert!(f().has_cc_tld("anything.com.bd"));
        assert!(f().has_cc_tld("site.fr"));
        assert!(!f().has_cc_tld("example.com"));
        assert!(!f().has_cc_tld("example.org"));
        assert!(f().crawlable("www.nih.gov"));
        assert!(f().crawlable("www.army.mil"));
        assert!(!f().crawlable("cdn.example-ads.com"));
    }

    #[test]
    fn case_and_trailing_dot_insensitive() {
        assert_eq!(f().classify("WWW.NIH.GOV."), Some("us"));
        assert_eq!(f().classify("Stats.Data.GOUV.FR"), Some("fr"));
    }
}
