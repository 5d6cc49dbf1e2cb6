//! The Mechanical-Turk dataset expansion (§4.2.1), as a crowd model.
//!
//! The paper published tasks for every country with fewer than 11 seed
//! hostnames, asking workers for six categories of government site, and
//! accepted 75 of 108 responses for 199 unique URLs (138 new). Real
//! crowdworkers are unavailable to a simulation, so the crowd is modelled
//! as an imperfect local directory: each task draws a handful of the
//! country's actual government hostnames (what a resident plausibly
//! knows), a rejection rate models low-quality submissions, and some
//! responses duplicate hostnames already in the seed list — reproducing
//! the statistical contribution of the original MTurk stage. (See
//! DESIGN.md §1, substitution table.)

use std::collections::HashSet;

use rand::Rng;

/// Outcome of the crowdsourcing stage.
#[derive(Debug, Clone, Default)]
pub struct MturkReport {
    /// Countries for which tasks were published (< 11 seed hostnames).
    pub target_countries: Vec<&'static str>,
    /// Total task responses received.
    pub responses: usize,
    /// Responses accepted after (simulated) manual inspection.
    pub accepted: usize,
    /// Unique hostnames obtained.
    pub unique_hostnames: usize,
    /// Hostnames that were new (not already in the seed list).
    pub new_hostnames: Vec<String>,
}

/// The threshold below which a country gets MTurk tasks.
pub const TASK_THRESHOLD: usize = 11;

/// How many of a country's hosts its crowd directory holds.
pub const DIRECTORY_CAP: usize = 40;

/// Run the crowd model.
///
/// `seed_counts` maps country → seed hostnames already known;
/// `directory` returns the hostnames a local crowdworker could name for
/// a country. In the study that is the country's first
/// [`DIRECTORY_CAP`] reachable government hosts in generation
/// (`World::gov_hosts`) order; each draw indexes into that list, so its
/// order is part of the output.
pub fn expand(
    rng: &mut impl Rng,
    countries: &[&'static str],
    seed_counts: &std::collections::HashMap<&'static str, usize>,
    seeds: &HashSet<String>,
    mut directory: impl FnMut(&str) -> Vec<String>,
) -> MturkReport {
    let mut report = MturkReport::default();
    let mut unique: HashSet<String> = HashSet::new();
    for &cc in countries {
        if seed_counts.get(cc).copied().unwrap_or(0) >= TASK_THRESHOLD {
            continue;
        }
        report.target_countries.push(cc);
        let known = directory(cc);
        // 2–6 task responses per country; ~30% rejected on inspection.
        let responses = rng.gen_range(2..=6usize);
        for _ in 0..responses {
            report.responses += 1;
            if rng.gen::<f64>() < 0.30 {
                continue; // rejected: off-topic or broken URL
            }
            report.accepted += 1;
            // Each accepted response names up to 6 sites the worker knows.
            let urls = rng.gen_range(1..=6usize).min(known.len());
            for _ in 0..urls {
                if known.is_empty() {
                    break;
                }
                let host = known[rng.gen_range(0..known.len())].clone();
                if unique.insert(host.clone()) && !seeds.contains(&host) {
                    report.new_hostnames.push(host);
                }
            }
        }
    }
    report.unique_hostnames = unique.len();
    report.new_hostnames.sort();
    report.new_hostnames.dedup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(seed_count_cc: usize) -> MturkReport {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = std::collections::HashMap::new();
        counts.insert("td", seed_count_cc);
        counts.insert("fr", 500);
        let seeds: HashSet<String> = ["known.gouv.td".to_string()].into_iter().collect();
        expand(&mut rng, &["td", "fr"], &counts, &seeds, |cc| {
            (0..20).map(|i| format!("site{i}.gouv.{cc}")).collect()
        })
    }

    #[test]
    fn targets_only_underrepresented_countries() {
        let r = run(2);
        assert_eq!(r.target_countries, vec!["td"]);
        assert!(r.accepted <= r.responses);
        assert!(!r.new_hostnames.is_empty());
    }

    #[test]
    fn well_seeded_country_gets_no_tasks() {
        let r = run(50);
        assert!(r.target_countries.is_empty());
        assert_eq!(r.responses, 0);
        assert!(r.new_hostnames.is_empty());
    }

    #[test]
    fn known_seeds_are_not_counted_as_new() {
        let mut rng = StdRng::seed_from_u64(2);
        let counts = std::collections::HashMap::new();
        let seeds: HashSet<String> = ["only.gov.to".to_string()].into_iter().collect();
        let r = expand(&mut rng, &["to"], &counts, &seeds, |_| {
            vec!["only.gov.to".to_string()]
        });
        assert!(r.new_hostnames.is_empty(), "duplicate of seed is not new");
        assert!(r.unique_hostnames <= 1);
    }

    #[test]
    fn deterministic() {
        let a = run(2);
        let b = run(2);
        assert_eq!(a.new_hostnames, b.new_hostnames);
        assert_eq!(a.responses, b.responses);
    }
}
