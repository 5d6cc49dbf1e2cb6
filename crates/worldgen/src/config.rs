//! World-generation configuration.

use govscan_asn1::Time;

/// The scan snapshot date (paper: 2020-04-22 → 2020-04-26):
/// 2020-04-22T00:00:00Z.
pub(crate) const SCAN_TIME: Time = Time(1_587_513_600);

/// Configuration for [`crate::World::generate`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// RNG seed — the same seed reproduces the same Internet.
    pub seed: u64,
    /// Population scale. `1.0` ≈ the paper's 135,408 reachable government
    /// hostnames (plus the 47k unreachable pool and ranking lists);
    /// `0.01` is a convenient test size.
    pub scale: f64,
}

impl WorldConfig {
    /// Paper-scale world (~135k government hosts). Heavy: use from the
    /// reproduction binaries, not unit tests.
    pub fn paper_scale(seed: u64) -> Self {
        WorldConfig { seed, scale: 1.0 }
    }

    /// A ~1.5% world for tests and examples (≈2k government hosts).
    pub fn small(seed: u64) -> Self {
        WorldConfig { seed, scale: 0.015 }
    }

    /// Scale an absolute paper count to this configuration, with a floor
    /// so tiny test worlds still exercise every category.
    pub fn scaled(&self, paper_count: u64) -> u64 {
        let scaled = (paper_count as f64 * self.scale).round() as u64;
        if paper_count > 0 && scaled == 0 {
            1
        } else {
            scaled
        }
    }

    /// The discovery-layer scale, saturating at paper scale. A world
    /// with `scale` above 1 has proportionally more hosts, but its *discovery*
    /// surface — the top-million ranking lists, the merged seed pool,
    /// the hand-curated whitelist — stays at real-world size: there is
    /// no eleven-million-row Tranco, and nobody hand-curates 6,000
    /// whitelist entries. Below `1.0` this equals [`Self::scale`], so
    /// existing worlds are unchanged byte for byte.
    pub fn discovery_scale(&self) -> f64 {
        self.scale.min(1.0)
    }

    /// [`Self::scaled`] under [`Self::discovery_scale`].
    pub fn discovery_scaled(&self, paper_count: u64) -> u64 {
        let scaled = (paper_count as f64 * self.discovery_scale()).round() as u64;
        if paper_count > 0 && scaled == 0 {
            1
        } else {
            scaled
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_has_floor_of_one() {
        let cfg = WorldConfig::small(1);
        assert_eq!(cfg.scaled(0), 0);
        assert_eq!(cfg.scaled(10), 1, "rounds to 0 but floors to 1");
        assert_eq!(cfg.scaled(1000), 15);
    }

    #[test]
    fn paper_scale_identity() {
        let cfg = WorldConfig::paper_scale(1);
        assert_eq!(cfg.scaled(135_408), 135_408);
        assert_eq!(cfg.scaled(1), 1);
    }

    #[test]
    fn discovery_scale_saturates_at_paper_scale() {
        let mut cfg = WorldConfig::paper_scale(1);
        cfg.scale = 10.0;
        assert_eq!(cfg.scaled(1_000), 10_000, "populations keep growing");
        assert_eq!(cfg.discovery_scaled(1_000), 1_000, "discovery saturates");
        assert_eq!(cfg.discovery_scale(), 1.0);
        let small = WorldConfig::small(1);
        assert_eq!(
            small.discovery_scaled(1_000),
            small.scaled(1_000),
            "identical below paper scale"
        );
    }

    #[test]
    fn scan_time_matches_paper_window() {
        assert_eq!(SCAN_TIME, Time::from_ymd(2020, 4, 22));
    }
}
