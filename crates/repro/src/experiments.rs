//! The experiment implementations — one function per table/figure.

use govscan_analysis as analysis;
use govscan_analysis::aggregate::AggregateIndex;
use govscan_scanner::{ErrorCategory, GovFilter, StudyPipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{cmp_row, Env};

/// Table 1: overlap of the government dataset with the ranking lists.
pub fn table1(env: &mut Env) -> String {
    let filter = GovFilter::standard();
    let t = analysis::table1::build(
        &filter,
        &[&env.world.tranco, &env.world.majestic, &env.world.cisco],
    );
    let mut out = t.render();
    let tranco = t.columns.iter().find(|c| c.list == "tranco").unwrap();
    let scale = env.world.config.scale;
    out.push_str(&cmp_row(
        "Tranco top-1M gov sites",
        &format!("{:.0} (scaled 12,293)", 12_293.0 * scale),
        &tranco.counts[3].to_string(),
    ));
    out.push_str(&cmp_row(
        "Cisco top band gov sites",
        "0",
        &t.columns[2].counts[0].to_string(),
    ));
    out
}

/// Table 2: worldwide https validity and error breakdown.
pub fn table2(env: &mut Env) -> String {
    let t = analysis::table2::build_from_index(env.index());
    let mut out = t.render();
    out.push('\n');
    out.push_str(&cmp_row(
        "https share",
        "39.33%",
        &format!("{:.2}%", t.https_share().percent()),
    ));
    out.push_str(&cmp_row(
        "valid | https",
        "71.41%",
        &format!("{:.2}%", t.valid_share().percent()),
    ));
    out.push_str(&cmp_row(
        "not using valid https",
        "~72%",
        &format!("{:.2}%", t.not_valid_share().percent()),
    ));
    out.push_str(&cmp_row(
        "hostname mismatch | invalid",
        "36.59%",
        &format!(
            "{:.2}%",
            100.0 * t.count(ErrorCategory::HostnameMismatch) as f64 / t.invalid.max(1) as f64
        ),
    ));
    out.push_str(&cmp_row(
        "unsupported protocol | exceptions",
        "73.65%",
        &format!(
            "{:.2}%",
            100.0 * t.count(ErrorCategory::UnsupportedProtocol) as f64
                / t.exceptions().max(1) as f64
        ),
    ));
    out
}

/// Figure 1: per-country availability / https / validity.
pub fn fig1(env: &mut Env) -> String {
    let fig = analysis::choropleth::build_from_index(env.index());
    let mut out = fig.render();
    if let Some(cn) = fig.get("cn") {
        out.push_str(&cmp_row(
            "China valid | https",
            "11%",
            &format!("{:.1}%", cn.valid_share().percent()),
        ));
    }
    if let Some(us) = fig.get("us") {
        out.push_str(&cmp_row(
            "USA https share",
            "81.5%",
            &format!("{:.1}%", us.https_share().percent()),
        ));
    }
    out
}

/// Figure 2: top-40 worldwide certificate issuers.
pub fn fig2(env: &mut Env) -> String {
    let fig = analysis::issuers::build_from_index(env.index(), 40);
    let mut out = fig.render();
    if let Some(leader) = fig.leader() {
        out.push_str(&cmp_row(
            "leading CA",
            "Let's Encrypt (~20%)",
            &leader.issuer,
        ));
        out.push_str(&cmp_row(
            "leader invalid share",
            "~20%",
            &format!("{:.1}%", leader.invalid_share() * 100.0),
        ));
    }
    out
}

/// Figure 3 + §5.3.1: issue/expiry dates and durations.
pub fn fig3(env: &mut Env) -> String {
    let fig = analysis::durations::build_from_index(env.index());
    let mut out = fig.render();
    let s = &fig.invalid_stats;
    out.push_str(&cmp_row(
        "invalid under 2y",
        "32%",
        &format!("{:.1}%", 100.0 * s.under_2y as f64 / s.total.max(1) as f64),
    ));
    out.push_str(&cmp_row(
        "invalid multiples of 365",
        "43.24%",
        &format!(
            "{:.1}%",
            100.0 * s.multiple_of_365 as f64 / s.total.max(1) as f64
        ),
    ));
    out.push_str(&cmp_row(
        "10-year certs (scaled 617)",
        "617",
        &s.ten_year.to_string(),
    ));
    out
}

/// Figure 4: validity by key type and signing algorithm.
pub fn fig4(env: &mut Env) -> String {
    let fig = analysis::keys::build_from_index(env.index());
    let mut out = fig.render();
    let (ec, rsa) = fig.ec_vs_rsa_valid_share();
    out.push_str(&cmp_row(
        "EC vs RSA valid share",
        "EC ≫ RSA",
        &format!("EC {:.1}% vs RSA {:.1}%", ec * 100.0, rsa * 100.0),
    ));
    out.push_str(&cmp_row(
        "weak (1024-bit) key hosts (scaled 520)",
        "520",
        &fig.weak_key_hosts().to_string(),
    ));
    out.push_str(&cmp_row(
        "MD5/SHA-1 signed hosts (scaled 920)",
        "920",
        &fig.legacy_signature_hosts().to_string(),
    ));
    out
}

/// Figure 5: validity by hosting type (world / USA / ROK).
pub fn fig5(env: &mut Env) -> String {
    let world_fig = analysis::hosting::build_all_from_index(env.index());
    let usa_fig = analysis::hosting::build_all_from_index(&AggregateIndex::build(env.usa_scan()));
    let rok_fig = analysis::hosting::build_all_from_index(&AggregateIndex::build(env.rok_scan()));
    let mut out = String::from("--- worldwide ---\n");
    out.push_str(&world_fig.render());
    out.push_str("--- USA (GSA) ---\n");
    out.push_str(&usa_fig.render());
    out.push_str("--- ROK (Government24) ---\n");
    out.push_str(&rok_fig.render());
    out.push_str(&cmp_row(
        "world cloud vs private valid",
        "60% vs 30%",
        &format!(
            "{:.0}% vs {:.0}%",
            world_fig.valid_share("cloud") * 100.0,
            world_fig.valid_share("private") * 100.0
        ),
    ));
    out.push_str(&cmp_row(
        "USA cloud+CDN share",
        "13.02%",
        &format!("{:.2}%", usa_fig.cloud_cdn_share() * 100.0),
    ));
    out.push_str(&cmp_row(
        "ROK cloud+CDN share",
        "0.21%",
        &format!("{:.2}%", rok_fig.cloud_cdn_share() * 100.0),
    ));
    out
}

/// Figures 6 & 7: gov vs non-gov in the top million.
pub fn fig6_fig7(env: &mut Env) -> String {
    let pipeline = StudyPipeline::new(&env.world);
    let ctx = pipeline.context();
    let mut rng = StdRng::seed_from_u64(env.world.config.seed ^ 0xF167);
    // The government group is already in the worldwide scan — pull it by
    // indexed lookup instead of re-dialling every government host.
    let gov = analysis::compare::gov_group_from_scan(&env.study.scan, &env.world.tranco);
    let n = gov.members.len();
    let uniform = analysis::compare::nongov_uniform(&ctx, &env.world.tranco, n, &mut rng);
    let matched = analysis::compare::nongov_rank_matched(&ctx, &env.world.tranco, 50, &mut rng);
    let top = analysis::compare::nongov_top(&ctx, &env.world.tranco, n);
    let mut out = analysis::compare::render_fig7(
        &[&gov, &uniform, &matched, &top],
        env.world.tranco.size,
        50,
    );
    out.push('\n');
    out.push_str(&cmp_row(
        "gov valid share (top million)",
        "~30%",
        &format!("{:.1}%", gov.valid_share() * 100.0),
    ));
    out.push_str(&cmp_row(
        "rank-matched non-gov valid",
        "~55%",
        &format!("{:.1}%", matched.valid_share() * 100.0),
    ));
    out.push_str(&cmp_row(
        "top non-gov valid",
        ">70%",
        &format!("{:.1}%", top.valid_share() * 100.0),
    ));
    // Figure 6: hosting split per group.
    for g in [&gov, &matched, &top] {
        let fig = analysis::hosting::build(g.members.iter().map(|(_, r)| r));
        out.push_str(&format!(
            "{}: cloud+cdn {:.1}%, private-valid {:.1}%, cloud-valid {:.1}%\n",
            g.label,
            fig.cloud_cdn_share() * 100.0,
            fig.valid_share("private") * 100.0,
            fig.valid_share("cloud") * 100.0
        ));
    }
    out
}

/// Figures 8–10 + Tables A.1/A.2: the USA case study.
pub fn usa_case(env: &mut Env) -> String {
    let tags = env.gsa_tags();
    let scan = env.usa_scan();
    let case = analysis::casestudy::build_usa(scan, &tags);
    let index = AggregateIndex::build(scan);
    let issuers = analysis::issuers::build_from_index(&index, 25);
    let keys = analysis::keys::build_from_index(&index);
    let durations = analysis::durations::build_from_index(&index);
    let mut out = String::from("--- Figure 8: USA issuers ---\n");
    out.push_str(&issuers.render());
    out.push_str("--- Figure 9: USA keys × algorithms ---\n");
    out.push_str(&keys.render());
    out.push_str("--- Figure 10 (USA half): durations ---\n");
    out.push_str(&durations.render());
    out.push_str("--- Table A.1: per-dataset breakdown ---\n");
    out.push_str(&analysis::casestudy::render_usa_datasets(&case));
    out.push_str(&cmp_row(
        "USA headline valid rate",
        "81.12%",
        &format!("{:.2}%", case.overall.headline_valid_rate().percent()),
    ));
    if let Some(leader) = issuers.leader() {
        out.push_str(&cmp_row("USA leading CA", "Let's Encrypt", &leader.issuer));
    }
    out
}

/// Figures 11–12 + Tables A.3/A.4: the South Korea case study.
pub fn rok_case(env: &mut Env) -> String {
    let scan = env.rok_scan();
    let agg = analysis::casestudy::build_rok(scan);
    let index = AggregateIndex::build(scan);
    let issuers = analysis::issuers::build_from_index(&index, 25);
    let keys = analysis::keys::build_from_index(&index);
    let mut out = String::from("--- Figure 11: ROK issuers ---\n");
    out.push_str(&issuers.render());
    out.push_str("--- Figure 12: ROK keys × algorithms ---\n");
    out.push_str(&keys.render());
    out.push_str("--- Tables A.3/A.4 ---\n");
    out.push_str(&analysis::casestudy::render_aggregate("Government24", &agg));
    out.push_str(&cmp_row(
        "ROK headline valid rate",
        "37.95%",
        &format!("{:.2}%", agg.headline_valid_rate().percent()),
    ));
    let npki_used = issuers
        .rows
        .iter()
        .any(|r| r.issuer.starts_with("CA1") && r.invalid > 0);
    out.push_str(&cmp_row(
        "NPKI sub-CAs in use and invalid",
        "yes (CA134100031, CA131100001)",
        if npki_used { "yes" } else { "no" },
    ));
    out
}

/// §6.3: the USA-vs-ROK contrast.
pub fn case_contrast(env: &mut Env) -> String {
    let tags = env.gsa_tags();
    let usa_scan = env.usa_scan().clone();
    let rok_scan = env.rok_scan().clone();
    let usa = analysis::casestudy::build_usa(&usa_scan, &tags).overall;
    let rok = analysis::casestudy::build_rok(&rok_scan);
    let mut out = String::new();
    out.push_str(&cmp_row(
        "headline valid (USA vs ROK)",
        "81.12% vs 37.95%",
        &format!(
            "{:.2}% vs {:.2}%",
            usa.headline_valid_rate().percent(),
            rok.headline_valid_rate().percent()
        ),
    ));
    out.push_str(&cmp_row(
        "exception share of invalid (USA vs ROK)",
        "2.79% vs 21.08%",
        &format!(
            "{:.2}% vs {:.2}%",
            usa.exception_share_of_invalid() * 100.0,
            rok.exception_share_of_invalid() * 100.0
        ),
    ));
    out.push_str(&cmp_row(
        "self-signed-in-chain share (USA vs ROK)",
        "low vs high",
        &format!(
            "{:.2}% vs {:.2}%",
            usa.chain_self_signed_share() * 100.0,
            rok.chain_self_signed_share() * 100.0
        ),
    ));
    out
}

/// §7.1.2: the China slice.
pub fn china(env: &mut Env) -> String {
    let index = env.index();
    let fig = analysis::choropleth::build_from_index(index);
    let mut out = String::new();
    if let Some(cn) = fig.get("cn") {
        out.push_str(&cmp_row(
            "China scanned hosts (scaled 22,487)",
            "22,487",
            &cn.total.to_string(),
        ));
        out.push_str(&cmp_row(
            "China availability",
            "~50%",
            &format!("{:.1}%", cn.availability().percent()),
        ));
        out.push_str(&cmp_row(
            "China valid | https",
            "11%",
            &format!("{:.1}%", cn.valid_share().percent()),
        ));
    }
    // Error mix within China, off the pre-grouped country index.
    let mut mismatch = 0u64;
    let mut local = 0u64;
    let mut invalid = 0u64;
    for h in index
        .by_country
        .get("cn")
        .map(|members| members.as_slice())
        .unwrap_or(&[])
        .iter()
        .map(|&pos| index.host(pos))
    {
        if !h.available || !h.attempts || h.valid {
            continue;
        }
        invalid += 1;
        match h.error {
            Some(ErrorCategory::HostnameMismatch) => mismatch += 1,
            Some(ErrorCategory::UnableLocalIssuer) => local += 1,
            _ => {}
        }
    }
    out.push_str(&cmp_row(
        "China mismatch | invalid",
        "60.1%",
        &format!("{:.1}%", 100.0 * mismatch as f64 / invalid.max(1) as f64),
    ));
    out.push_str(&cmp_row(
        "China local-issuer | invalid",
        "16.23%",
        &format!("{:.1}%", 100.0 * local as f64 / invalid.max(1) as f64),
    ));
    out
}

/// §5.3.3: key and certificate reuse.
pub fn reuse(env: &mut Env) -> String {
    let report = analysis::reuse::build_from_index(env.index());
    let mut out = report.render();
    out.push_str(&cmp_row(
        "valid cross-country key reuse",
        "none",
        if report.valid_cross_country_reuse() {
            "FOUND (!)"
        } else {
            "none"
        },
    ));
    out.push_str(&cmp_row(
        "cross-country cert reuse (scaled 154 / 1,390)",
        "154 certs / 1,390 hosts",
        &format!(
            "{} certs / {} hosts",
            report.cross_country_certs().count(),
            report.cross_country_cert_hosts()
        ),
    ));
    out
}

/// §5.3.4: CAA adoption.
pub fn caa(env: &mut Env) -> String {
    let report = analysis::caa::build(&env.study.scan, |issuer| {
        govscan_worldgen::cadb::CA_PROFILES
            .iter()
            .find(|p| p.label == issuer)
            .map(|p| p.caa_domain.to_string())
    });
    let mut out = report.render();
    out.push_str(&cmp_row(
        "CAA adoption",
        "1.36%",
        &format!("{:.2}%", report.adoption().percent()),
    ));
    out.push_str(&cmp_row(
        "CAA records well-formed",
        "100%",
        &format!("{:.1}%", report.well_formed_share().percent()),
    ));
    out
}

/// Figure A.4: crawler growth.
pub fn crawl_growth(env: &mut Env) -> String {
    let growth = analysis::crawlstats::build(&env.study.crawl);
    let mut out = growth.render();
    out.push_str(&cmp_row(
        "dataset growth over seed",
        "≈4.9×",
        &format!("{:.1}×", growth.total_growth()),
    ));
    out.push_str(&cmp_row(
        "discovery declines after peak",
        "yes",
        if growth.declines_after_peak() {
            "yes"
        } else {
            "no"
        },
    ));
    out
}

/// Figure A.5 / §7.3.3: cross-government links.
pub fn interlink(env: &mut Env) -> String {
    let filter = GovFilter::standard();
    let report = analysis::interlink::build(&env.world.net, &filter, &env.study.scan);
    let mut out = report.render();
    out.push_str(&cmp_row(
        "countries linking ≥7 others",
        "75%",
        &format!("{:.0}%", report.share_linking_at_least(7) * 100.0),
    ));
    if let Some((cc, d)) = report.top_linker() {
        out.push_str(&cmp_row(
            "top linker",
            "Austria (70)",
            &format!("{cc} ({d})"),
        ));
    }
    out
}

/// Figures A.2/A.3/A.6: EV certificate usage.
pub fn ev(env: &mut Env) -> String {
    let world = analysis::ev::build_from_index(env.index());
    let usa = analysis::ev::build_from_index(&AggregateIndex::build(env.usa_scan()));
    let rok = analysis::ev::build_from_index(&AggregateIndex::build(env.rok_scan()));
    let mut out = String::from("--- worldwide (Fig A.6) ---\n");
    out.push_str(&world.render());
    out.push_str("--- USA (Fig A.2) ---\n");
    out.push_str(&usa.render());
    out.push_str("--- ROK (Fig A.3) ---\n");
    out.push_str(&rok.render());
    out.push_str(&cmp_row(
        "EV adoption",
        "4.24%",
        &format!("{:.2}%", world.adoption().percent()),
    ));
    out.push_str(&cmp_row(
        "EV invalid share",
        "15–20%",
        &format!("{:.1}%", world.invalid_share() * 100.0),
    ));
    out
}

/// §7.3.2: phishing twins.
pub fn phishing(env: &mut Env) -> String {
    let pipeline = StudyPipeline::new(&env.world);
    let ctx = pipeline.context();
    let filter = GovFilter::standard();
    // `SimNet::hostnames()` is hash order; sorted, the table lists the
    // same twins in the same order on every run.
    let mut candidates: Vec<&str> = env.world.net.hostnames().collect();
    candidates.sort_unstable();
    let collapsed: std::collections::HashSet<String> = env
        .index()
        .hosts
        .iter()
        .map(|h| h.hostname.replace('.', ""))
        .collect();
    let report = analysis::phishing::detect(&ctx, &filter, candidates.into_iter(), &collapsed);
    let mut out = report.render();
    out.push_str(&cmp_row(
        "*gov.us-style twins (scaled 85)",
        "85",
        &report
            .twins
            .iter()
            .filter(|t| t.hostname.ends_with("gov.us"))
            .count()
            .to_string(),
    ));
    out.push_str(&cmp_row(
        "twins with valid https",
        "yes (free DV certs)",
        &report.valid_twins().to_string(),
    ));
    out
}

/// Figure 13 + §7.2: the disclosure campaign and its effectiveness.
/// Mutates the world (remediation) — run last.
pub fn disclosure(env: &mut Env) -> String {
    let mut rng = StdRng::seed_from_u64(env.world.config.seed ^ 0xD15C);
    let campaign =
        govscan_disclosure::campaign::run(&env.study.scan, &mut rng, env.world.config.seed);
    let unreachable: Vec<String> = env
        .index()
        .hosts
        .iter()
        .filter(|h| !h.available)
        .map(|h| h.hostname.clone())
        .collect();
    let plan = govscan_disclosure::remediation::apply(
        &mut env.world,
        &env.study.scan,
        &unreachable,
        &campaign,
        &mut rng,
    );
    let report = govscan_disclosure::run_rescan(&env.world, &env.study.scan, &unreachable);
    let mut out = String::from("--- Figure 13: responses by population rank ---\n");
    out.push_str(&campaign.render());
    out.push_str("--- §7.2.2: effectiveness re-scan ---\n");
    out.push_str(&report.render());
    out.push_str(&cmp_row(
        "supportive registrar share",
        "~22%",
        &format!("{:.1}%", campaign.supportive_share() * 100.0),
    ));
    out.push_str(&cmp_row(
        "strict improvement",
        "8.3%",
        &format!("{:.1}%", report.strict_improvement() * 100.0),
    ));
    out.push_str(&cmp_row(
        "optimistic improvement",
        "18.7%",
        &format!("{:.1}%", report.optimistic_improvement() * 100.0),
    ));
    out.push_str(&cmp_row(
        "countries ≥10% improvement (paper 62)",
        "62",
        &report.countries_improving_at_least(0.10).len().to_string(),
    ));
    out.push_str(&format!(
        "hosts fixed: {}, removed: {}\n",
        plan.fixed.len(),
        plan.removed.len()
    ));
    out
}

/// Extension (§2.2): CT-log coverage of government certificates — the
/// measurement the paper flags as missing from the literature.
pub fn ct_coverage(env: &mut Env) -> String {
    let report =
        analysis::ct::build_from_index(env.index(), env.world.cadb.ct_log(), &env.world.net);
    let mut out = report.render();
    out.push_str(&cmp_row(
        "gov certs missing from CT",
        "unknown (com/net/org ≈10%)",
        &format!("{:.1}%", report.missing_share().percent()),
    ));
    out.push_str(&cmp_row(
        "inclusion proofs verify",
        "required",
        &format!("{}/{}", report.proofs_ok, report.proofs_checked),
    ));
    out
}

/// Extension (§8.2): HSTS adoption among valid government hosts.
pub fn hsts_adoption(env: &mut Env) -> String {
    let report = analysis::hsts::build_from_index(env.index());
    let mut out = report.render();
    if let Some(us) = report.country_adoption("us") {
        out.push_str(&cmp_row(
            "US HSTS adoption (pre-mandate)",
            "low; preload mandated 9/2020",
            &format!("{:.1}%", us.percent()),
        ));
    }
    out
}

/// Ablation (§4.3): how the trust-store choice changes every verdict.
/// The paper chose the Apple store as the most restrictive; this re-runs
/// the worldwide scan under all three profiles.
pub fn ablation_trust_stores(env: &mut Env) -> String {
    use govscan_pki::trust::TrustStoreProfile;
    let mut out = String::new();
    let hosts = env.study.final_list.clone();
    let mut counts = Vec::new();
    for profile in TrustStoreProfile::ALL {
        let scan = StudyPipeline::new(&env.world)
            .with_trust_profile(profile)
            .scan_list(&hosts);
        let valid = scan.valid().count();
        let invalid = scan.invalid().count();
        counts.push((profile, valid, invalid));
        out.push_str(&format!("{profile:?}: valid {valid}, invalid {invalid}\n"));
    }
    let apple = counts[0].1;
    let ms = counts[1].1;
    out.push_str(&cmp_row(
        "Apple store is the most restrictive",
        "yes (174 vs 402 roots)",
        if ms >= apple { "yes" } else { "NO" },
    ));
    out.push_str(&format!(
        "hosts valid under Microsoft but not Apple: {}\n",
        ms.saturating_sub(apple)
    ));
    out
}

/// Ablation: probe configuration. A probe that still offers SSLv3 can
/// complete handshakes with POODLE-era servers (which then fail on
/// certificates instead of protocol) — quantifying how much of the
/// "unsupported protocol" bucket is the probe's floor rather than the
/// server's ceiling.
pub fn ablation_probe_config(env: &mut Env) -> String {
    use govscan_net::tls::{TlsClientConfig, TlsVersion};
    let pipeline = StudyPipeline::new(&env.world);
    let strict_ctx = pipeline.context();
    let mut permissive_ctx = pipeline.context();
    permissive_ctx.client = TlsClientConfig {
        min_version: TlsVersion::Ssl3,
        ..TlsClientConfig::default()
    };
    let mut strict_unsup = 0u64;
    let mut permissive_unsup = 0u64;
    let mut checked = 0u64;
    for r in env.study.scan.invalid() {
        if r.https.error() != Some(ErrorCategory::UnsupportedProtocol) {
            continue;
        }
        checked += 1;
        let strict = govscan_scanner::scan_host(&strict_ctx, &r.hostname);
        if strict.https.error() == Some(ErrorCategory::UnsupportedProtocol) {
            strict_unsup += 1;
        }
        let permissive = govscan_scanner::scan_host(&permissive_ctx, &r.hostname);
        if permissive.https.error() == Some(ErrorCategory::UnsupportedProtocol) {
            permissive_unsup += 1;
        }
    }
    let mut out = format!(
        "hosts in the unsupported-protocol bucket: {checked}\n\
         still unsupported with TLS1.0+ probe: {strict_unsup}\n\
         still unsupported with SSLv3-capable probe: {permissive_unsup}\n"
    );
    out.push_str(&cmp_row(
        "legacy-only servers remain broken even for a permissive probe",
        "yes (weak ciphers)",
        if permissive_unsup == checked {
            "yes"
        } else {
            "partially"
        },
    ));
    out
}

/// One registered experiment: display name + renderer.
pub type Experiment = (&'static str, fn(&mut Env) -> String);

/// The `(name, experiment)` registry the `repro` binary runs. Each
/// label's first word is the experiment's key.
pub fn all() -> Vec<Experiment> {
    vec![
        ("table1_overlap (Table 1)", table1),
        ("table2_worldwide (Table 2)", table2),
        ("fig1_choropleth (Figure 1)", fig1),
        ("fig2_issuers (Figure 2)", fig2),
        ("fig3_durations (Figure 3, §5.3.1)", fig3),
        ("fig4_keys (Figure 4, §5.3.2)", fig4),
        ("fig5_hosting (Figure 5, §5.4)", fig5),
        ("fig6_fig7_compare (Figures 6–7, §5.5)", fig6_fig7),
        ("usa_case (Figures 8–10, Tables A.1–A.2)", usa_case),
        ("rok_case (Figures 11–12, Tables A.3–A.4)", rok_case),
        ("case_contrast (§6.3)", case_contrast),
        ("china_slice (§7.1.2)", china),
        ("reuse_keys (§5.3.3)", reuse),
        ("caa_records (§5.3.4)", caa),
        ("crawler_growth (Figure A.4)", crawl_growth),
        ("interlink (Figure A.5, §7.3.3)", interlink),
        ("ev_issuers (Figures A.2/A.3/A.6)", ev),
        ("phishing_twins (§7.3.2)", phishing),
        ("ct_coverage (extension, §2.2)", ct_coverage),
        ("hsts_adoption (extension, §8.2)", hsts_adoption),
        ("ablation_trust_stores (§4.3)", ablation_trust_stores),
        ("ablation_probe_config (§5.3)", ablation_probe_config),
        ("disclosure (Figure 13, §7.2)", disclosure),
    ]
}

/// The key of a registry label: its first word.
pub fn key(label: &str) -> &str {
    label.split_whitespace().next().unwrap_or(label)
}

/// The registered experiment whose key is `name`.
pub fn find(name: &str) -> Option<Experiment> {
    all().into_iter().find(|(label, _)| key(label) == name)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn every_key_resolves_to_its_own_entry() {
        let registry = all();
        let keys: HashSet<&str> = registry.iter().map(|(label, _)| key(label)).collect();
        assert_eq!(keys.len(), registry.len(), "keys must be unique");
        for (label, _) in &registry {
            let (found, _) = find(key(label)).expect("every key resolves");
            assert_eq!(found, *label);
        }
        for unknown in ["", "all", "table2", "fig7_rank_regression", "nope"] {
            assert!(find(unknown).is_none(), "{unknown:?} resolves");
        }
    }

    #[test]
    fn phishing_rows_are_in_hostname_order() {
        let out = phishing(&mut Env::with(0x7415, 0.05));
        // The table body: after the dashed rule, before the indented
        // paper-vs-measured rows.
        let rows: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with('-'))
            .skip(1)
            .take_while(|l| !l.starts_with("  "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert!(rows.len() >= 5, "enough twins to order: {rows:?}");
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "{rows:?}");
    }
}
