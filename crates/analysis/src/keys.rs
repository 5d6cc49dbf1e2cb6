//! Figures 4 / 9 / 12: certificate validity by host key type/size and CA
//! signing algorithm (three panels).

use std::collections::BTreeMap;

use govscan_crypto::{KeyAlgorithm, SignatureAlgorithm};

use crate::aggregate::AggregateIndex;
use crate::table::{pct, TextTable};

/// Valid/invalid counts for one group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidityCount {
    /// Valid chains.
    pub valid: u64,
    /// Invalid chains.
    pub invalid: u64,
}

impl ValidityCount {
    /// Total.
    pub fn total(&self) -> u64 {
        self.valid + self.invalid
    }

    /// Valid share.
    pub fn valid_share(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.valid as f64 / self.total() as f64
        }
    }
}

/// The three panels.
#[derive(Debug, Clone, Default)]
pub struct KeyFigure {
    /// Panel 1: by host public-key algorithm/size.
    pub by_key: BTreeMap<KeyAlgorithm, ValidityCount>,
    /// Panel 2: by CA signing algorithm.
    pub by_signature: BTreeMap<SignatureAlgorithm, ValidityCount>,
    /// Panel 3: the joint distribution.
    pub joint: BTreeMap<(SignatureAlgorithm, KeyAlgorithm), ValidityCount>,
}

/// Build from a pre-built aggregation index.
pub fn build_from_index(index: &AggregateIndex) -> KeyFigure {
    // Accumulate the joint distribution through a small linear-scan
    // table — only a handful of (signature, key) combinations exist, and
    // three ordered-map lookups per host are measurable at the 135k-host
    // scale — then derive both marginal panels from it.
    let mut joint: Vec<((SignatureAlgorithm, KeyAlgorithm), ValidityCount)> = Vec::new();
    for h in index.cert_hosts() {
        let cert = index.cert_bits(h).expect("cert population has cert bits");
        let combo = (cert.signature_algorithm, cert.key_algorithm);
        let slot = match joint.iter().position(|(k, _)| *k == combo) {
            Some(i) => i,
            None => {
                joint.push((combo, ValidityCount::default()));
                joint.len() - 1
            }
        };
        let c = &mut joint[slot].1;
        if h.valid {
            c.valid += 1;
        } else {
            c.invalid += 1;
        }
    }
    let mut fig = KeyFigure::default();
    for ((sig, key), c) in joint {
        let by_key = fig.by_key.entry(key).or_default();
        by_key.valid += c.valid;
        by_key.invalid += c.invalid;
        let by_sig = fig.by_signature.entry(sig).or_default();
        by_sig.valid += c.valid;
        by_sig.invalid += c.invalid;
        fig.joint.insert((sig, key), c);
    }
    fig
}

impl KeyFigure {
    /// Count of hosts using weak (1024-bit-class) keys — §5.3.2's "520
    /// government hostnames use cryptographically insecure 1024-bit RSA".
    pub fn weak_key_hosts(&self) -> u64 {
        self.by_key
            .iter()
            .filter(|(k, _)| k.is_weak())
            .map(|(_, c)| c.total())
            .sum()
    }

    /// Count of hosts whose certificates carry MD5/SHA-1 signatures
    /// (§5.3.2's 920).
    pub fn legacy_signature_hosts(&self) -> u64 {
        self.by_signature
            .iter()
            .filter(|(s, _)| s.hash().is_weak())
            .map(|(_, c)| c.total())
            .sum()
    }

    /// Valid share across all EC-keyed hosts vs all RSA-keyed hosts.
    pub fn ec_vs_rsa_valid_share(&self) -> (f64, f64) {
        let mut ec = ValidityCount::default();
        let mut rsa = ValidityCount::default();
        for (k, c) in &self.by_key {
            let agg = if k.is_ec() { &mut ec } else { &mut rsa };
            agg.valid += c.valid;
            agg.invalid += c.invalid;
        }
        (ec.valid_share(), rsa.valid_share())
    }

    /// Render all three panels.
    pub fn render(&self) -> String {
        let mut out = String::from("Panel 1 — host public key\n");
        let mut t = TextTable::new(vec!["Key", "Valid", "Invalid", "Valid %"]);
        for (k, c) in &self.by_key {
            t.row(vec![
                k.label(),
                c.valid.to_string(),
                c.invalid.to_string(),
                pct(c.valid_share()),
            ]);
        }
        out.push_str(&t.render());
        out.push_str("\nPanel 2 — CA signing algorithm\n");
        let mut t = TextTable::new(vec!["Signature", "Valid", "Invalid", "Valid %"]);
        for (s, c) in &self.by_signature {
            t.row(vec![
                s.label().to_string(),
                c.valid.to_string(),
                c.invalid.to_string(),
                pct(c.valid_share()),
            ]);
        }
        out.push_str(&t.render());
        out.push_str("\nPanel 3 — joint (signature × key)\n");
        let mut t = TextTable::new(vec!["Signature × Key", "Valid", "Invalid", "Valid %"]);
        for ((s, k), c) in &self.joint {
            t.row(vec![
                format!("{} × {}", s.label(), k.label()),
                c.valid.to_string(),
                c.invalid.to_string(),
                pct(c.valid_share()),
            ]);
        }
        out.push_str(&t.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::index;

    fn fig() -> KeyFigure {
        build_from_index(index())
    }

    #[test]
    fn rsa_2048_dominates() {
        let f = fig();
        let max = f
            .by_key
            .iter()
            .max_by_key(|(_, c)| c.total())
            .map(|(k, _)| *k)
            .unwrap();
        assert_eq!(max, KeyAlgorithm::Rsa(2048));
    }

    #[test]
    fn ec_keys_correlate_with_validity() {
        // Figure 4's headline: EC keys + EC signatures ⇒ high validity.
        let f = fig();
        let (ec, rsa) = f.ec_vs_rsa_valid_share();
        assert!(ec > rsa + 0.1, "ec {ec} vs rsa {rsa}");
    }

    #[test]
    fn weak_keys_exist_in_the_long_tail() {
        let f = fig();
        assert!(f.weak_key_hosts() > 0, "1024-bit RSA hosts exist");
        // Weak keys are mostly invalid.
        let weak: Vec<_> = f.by_key.iter().filter(|(k, _)| k.is_weak()).collect();
        let valid: u64 = weak.iter().map(|(_, c)| c.valid).sum();
        let invalid: u64 = weak.iter().map(|(_, c)| c.invalid).sum();
        assert!(invalid > valid, "weak keys skew invalid: {valid}/{invalid}");
    }

    #[test]
    fn legacy_signatures_exist_and_skew_invalid() {
        let f = fig();
        assert!(f.legacy_signature_hosts() > 0, "MD5/SHA-1 hosts exist");
        let legacy: Vec<_> = f
            .by_signature
            .iter()
            .filter(|(s, _)| s.hash().is_weak())
            .collect();
        let valid: u64 = legacy.iter().map(|(_, c)| c.valid).sum();
        let invalid: u64 = legacy.iter().map(|(_, c)| c.invalid).sum();
        assert!(
            invalid > valid,
            "legacy sigs skew invalid: {valid}/{invalid}"
        );
    }

    #[test]
    fn joint_panel_ecdsa_ec_is_nearly_all_valid() {
        // "99% of websites where the CA signed with ECDSA-with-SHA256
        // attesting a 256-bit EC host key are valid."
        let f = fig();
        if let Some(c) = f
            .joint
            .get(&(SignatureAlgorithm::EcdsaWithSha256, KeyAlgorithm::Ec(256)))
        {
            if c.total() >= 20 {
                assert!(c.valid_share() > 0.8, "ecdsa×ec256 {:?}", c);
            }
        }
    }

    #[test]
    fn renders_three_panels() {
        let s = fig().render();
        assert!(s.contains("Panel 1"));
        assert!(s.contains("Panel 2"));
        assert!(s.contains("Panel 3"));
        assert!(s.contains("RSA-2048"));
    }
}
