//! Default-seed reference values (`references.json`), compiled in.
//!
//! They hold only at [`crate::spec::DEFAULT_SEED`] and the full (not
//! smoke) workload sizes. At any other seed a workload checks instead
//! that its repetitions agree and that its traced run reproduces its
//! untraced outputs.

use std::sync::OnceLock;

use govscan_serve::json::{self, Json};

pub struct References(Json);

pub fn get() -> &'static References {
    static REFS: OnceLock<References> = OnceLock::new();
    REFS.get_or_init(|| {
        References(
            json::parse(include_str!("../references.json")).expect("references.json is valid JSON"),
        )
    })
}

impl References {
    fn field(&self, workload: &str, key: &str) -> &Json {
        self.0
            .get(workload)
            .and_then(|w| w.get(key))
            .unwrap_or_else(|| panic!("references.json lacks {workload}.{key}"))
    }

    pub fn str(&self, workload: &str, key: &str) -> &str {
        self.field(workload, key)
            .as_str()
            .unwrap_or_else(|| panic!("references.json {workload}.{key} is not a string"))
    }

    /// The world scale the workload's references were recorded at.
    #[cfg(test)]
    fn scale(&self, workload: &str) -> f64 {
        match self.field(workload, "scale") {
            Json::Float(s) => *s,
            other => panic!("references.json {workload}.scale is {other:?}"),
        }
    }

    pub fn u64(&self, workload: &str, key: &str) -> u64 {
        self.field(workload, key)
            .as_i64()
            .and_then(|v| u64::try_from(v).ok())
            .unwrap_or_else(|| panic!("references.json {workload}.{key} is not a count"))
    }

    /// The reference hash of one experiment's output, if recorded.
    pub fn experiment(&self, name: &str) -> Option<&str> {
        self.field("study", "experiments").get(name)?.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resizing a workload makes its references stale: record them again
    /// at the default seed (`run --workload <name>` prints what it got).
    #[test]
    fn references_match_the_workload_sizes() {
        let r = get();
        let seed = crate::spec::DEFAULT_SEED as i64;
        assert_eq!(r.0.get("seed").and_then(Json::as_i64), Some(seed));
        assert_eq!(r.scale("stream"), crate::stream::SCALE);
        assert_eq!(r.scale("monitor"), crate::monitor::SCALE);
        assert_eq!(
            r.u64("monitor", "epochs"),
            u64::from(crate::monitor::EPOCHS)
        );
        assert_eq!(r.scale("study"), crate::study::SCALE);
    }
}
