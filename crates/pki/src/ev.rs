//! Extended-Validation policy OID registry.
//!
//! The paper detects EV certificates by checking certificatePolicies
//! against the EV policy OIDs compiled into Mozilla's `certverifier`
//! (§5.3). This module carries a registry with the same shape: a set of
//! per-CA EV policy OIDs plus the CA/Browser-Forum umbrella OID.

use govscan_asn1::Oid;

use crate::cert::Certificate;
use crate::oids;

/// A registry of policy OIDs treated as Extended Validation.
#[derive(Debug, Clone)]
pub struct EvRegistry {
    oids: Vec<Oid>,
}

/// Well-known per-CA EV policy OIDs (a representative subset of Mozilla's
/// ExtendedValidation.cpp list, plus the CABF umbrella OID).
pub const KNOWN_EV_OIDS: &[&str] = &[
    oids::POLICY_EV_CABF,         // CA/Browser Forum EV
    "2.16.840.1.114412.2.1",      // DigiCert EV
    "2.16.840.1.113733.1.7.23.6", // Symantec/VeriSign EV
    "1.3.6.1.4.1.34697.2.1",      // AffirmTrust EV
    "2.16.756.1.89.1.2.1.1",      // SwissSign / QuoVadis EV
    "1.3.6.1.4.1.6449.1.2.1.5.1", // Comodo/Sectigo EV
    "2.16.840.1.114413.1.7.23.3", // GoDaddy EV
    "2.16.840.1.114414.1.7.23.3", // Starfield EV
    "1.3.6.1.4.1.4146.1.1",       // GlobalSign EV
    "2.16.840.1.114028.10.1.2",   // Entrust EV
    "1.3.6.1.4.1.14370.1.6",      // GeoTrust EV
    "2.16.840.1.113733.1.7.48.1", // Thawte EV
];

impl Default for EvRegistry {
    fn default() -> Self {
        EvRegistry {
            oids: KNOWN_EV_OIDS
                .iter()
                .map(|s| Oid::parse(s).expect("static EV OID"))
                .collect(),
        }
    }
}

impl EvRegistry {
    /// The built-in registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an additional EV policy OID (world generation adds
    /// CA-specific OIDs here).
    pub fn register(&mut self, oid: Oid) {
        if !self.oids.contains(&oid) {
            self.oids.push(oid);
        }
    }

    /// Is `oid` a recognised EV policy?
    pub fn is_ev_oid(&self, oid: &Oid) -> bool {
        self.oids.contains(oid)
    }

    /// Does `cert` assert any recognised EV policy?
    pub fn is_ev(&self, cert: &Certificate) -> bool {
        cert.tbs()
            .extensions
            .policies
            .iter()
            .any(|p| self.is_ev_oid(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_oids_parse_and_register() {
        let reg = EvRegistry::new();
        for s in KNOWN_EV_OIDS {
            assert!(reg.is_ev_oid(&Oid::parse(s).unwrap()), "{s}");
        }
    }

    #[test]
    fn dv_policy_is_not_ev() {
        let reg = EvRegistry::new();
        assert!(!reg.is_ev_oid(&Oid::parse(oids::POLICY_DV).unwrap()));
        assert!(!reg.is_ev_oid(&Oid::parse(oids::POLICY_OV).unwrap()));
    }

    #[test]
    fn register_custom_oid() {
        let mut reg = EvRegistry::new();
        let custom = Oid::parse("1.3.6.1.4.1.99999.1.1").unwrap();
        assert!(!reg.is_ev_oid(&custom));
        reg.register(custom.clone());
        reg.register(custom.clone()); // idempotent
        assert!(reg.is_ev_oid(&custom));
    }
}
