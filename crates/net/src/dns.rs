//! The DNS simulation: A and CAA records with failure behaviours.

use std::borrow::Cow;
use std::collections::HashMap;
use std::net::Ipv4Addr;

use govscan_pki::caa::CaaRecord;

/// The records a single name publishes.
#[derive(Debug, Clone, Default)]
pub struct DnsRecords {
    /// A records, in answer order (the scanner uses the first, §5.4).
    pub a: Vec<Ipv4Addr>,
    /// CAA records on this exact name.
    pub caa: Vec<CaaRecord>,
}

/// Outcome of resolving a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsOutcome {
    /// Resolution succeeded with these addresses (first-answer order).
    Ok(Vec<Ipv4Addr>),
    /// The name does not exist.
    NxDomain,
    /// The resolver timed out.
    Timeout,
}

impl DnsOutcome {
    /// First A record, if any.
    pub fn first(&self) -> Option<Ipv4Addr> {
        match self {
            DnsOutcome::Ok(addrs) => addrs.first().copied(),
            _ => None,
        }
    }
}

/// Per-name resolution behaviour override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsBehavior {
    /// Answer normally from the zone data.
    Answer,
    /// Pretend the name does not exist even if records are loaded.
    NxDomain,
    /// Time out.
    Timeout,
}

/// The authoritative zone database for the simulated Internet.
#[derive(Debug, Clone, Default)]
pub struct DnsZone {
    records: HashMap<String, DnsRecords>,
    behavior: HashMap<String, DnsBehavior>,
}

impl DnsZone {
    /// An empty zone.
    pub fn new() -> Self {
        DnsZone::default()
    }

    /// Publish records for `name` (lowercased).
    pub fn publish(&mut self, name: &str, records: DnsRecords) {
        self.records.insert(name.to_ascii_lowercase(), records);
    }

    /// Publish a single A record.
    pub fn publish_a(&mut self, name: &str, addr: Ipv4Addr) {
        self.records
            .entry(name.to_ascii_lowercase())
            .or_default()
            .a
            .push(addr);
    }

    /// Attach CAA records to `name`.
    pub fn publish_caa(&mut self, name: &str, caa: Vec<CaaRecord>) {
        self.records
            .entry(name.to_ascii_lowercase())
            .or_default()
            .caa = caa;
    }

    /// Override resolution behaviour for `name`.
    pub fn set_behavior(&mut self, name: &str, behavior: DnsBehavior) {
        self.behavior.insert(name.to_ascii_lowercase(), behavior);
    }

    /// Resolve A records for `name`.
    pub fn resolve(&self, name: &str) -> DnsOutcome {
        match self.answer(name) {
            Ok(addrs) => DnsOutcome::Ok(addrs.to_vec()),
            Err(failure) => failure,
        }
    }

    /// [`Self::resolve`] without copying the answer: the A records, or
    /// the failed outcome.
    pub(crate) fn answer(&self, name: &str) -> Result<&[Ipv4Addr], DnsOutcome> {
        let name = lowercase(name);
        match self
            .behavior
            .get(&*name)
            .copied()
            .unwrap_or(DnsBehavior::Answer)
        {
            DnsBehavior::NxDomain => Err(DnsOutcome::NxDomain),
            DnsBehavior::Timeout => Err(DnsOutcome::Timeout),
            DnsBehavior::Answer => match self.records.get(&*name) {
                Some(r) if !r.a.is_empty() => Ok(&r.a),
                _ => Err(DnsOutcome::NxDomain),
            },
        }
    }

    /// The RFC 8659 *relevant record set* for CAA: the records on the
    /// closest ancestor (including `name` itself) that publishes any CAA
    /// records. Returns an empty slice when no ancestor publishes CAA.
    pub fn caa_relevant_set(&self, name: &str) -> &[CaaRecord] {
        let name = lowercase(name);
        let mut current: &str = &name;
        loop {
            if let Some(r) = self.records.get(current) {
                if !r.caa.is_empty() {
                    return &r.caa;
                }
            }
            match current.split_once('.') {
                Some((_, parent)) if !parent.is_empty() => current = parent,
                _ => return &[],
            }
        }
    }

    /// Number of published names.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no names are published.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// `name` lowercased, borrowed when it already is (as generated
/// hostnames always are), so a lookup allocates only for mixed case.
pub(crate) fn lowercase(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn resolve_published_name() {
        let mut zone = DnsZone::new();
        zone.publish_a("www.nih.gov", ip("156.40.1.1"));
        assert_eq!(
            zone.resolve("www.nih.gov"),
            DnsOutcome::Ok(vec![ip("156.40.1.1")])
        );
        assert_eq!(zone.resolve("WWW.NIH.GOV").first(), Some(ip("156.40.1.1")));
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let zone = DnsZone::new();
        assert_eq!(zone.resolve("missing.gov"), DnsOutcome::NxDomain);
        assert_eq!(zone.resolve("missing.gov").first(), None);
    }

    #[test]
    fn behavior_overrides() {
        let mut zone = DnsZone::new();
        zone.publish_a("flaky.gov.cd", ip("10.0.0.1"));
        zone.set_behavior("flaky.gov.cd", DnsBehavior::Timeout);
        assert_eq!(zone.resolve("flaky.gov.cd"), DnsOutcome::Timeout);
        zone.set_behavior("flaky.gov.cd", DnsBehavior::NxDomain);
        assert_eq!(zone.resolve("flaky.gov.cd"), DnsOutcome::NxDomain);
        zone.set_behavior("flaky.gov.cd", DnsBehavior::Answer);
        assert!(matches!(zone.resolve("flaky.gov.cd"), DnsOutcome::Ok(_)));
    }

    #[test]
    fn multiple_a_records_preserve_order() {
        let mut zone = DnsZone::new();
        zone.publish_a("lb.example.gov", ip("192.0.2.1"));
        zone.publish_a("lb.example.gov", ip("192.0.2.2"));
        assert_eq!(
            zone.resolve("lb.example.gov").first(),
            Some(ip("192.0.2.1"))
        );
    }

    #[test]
    fn caa_climb_finds_parent_records() {
        let mut zone = DnsZone::new();
        zone.publish_a("www.agency.gov.uk", ip("192.0.2.1"));
        zone.publish_caa("agency.gov.uk", vec![CaaRecord::issue("letsencrypt.org")]);
        let set = zone.caa_relevant_set("www.agency.gov.uk");
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].value, "letsencrypt.org");
    }

    #[test]
    fn caa_own_records_take_precedence() {
        let mut zone = DnsZone::new();
        zone.publish_caa("agency.gov.uk", vec![CaaRecord::issue("letsencrypt.org")]);
        zone.publish_caa("www.agency.gov.uk", vec![CaaRecord::issue("digicert.com")]);
        let set = zone.caa_relevant_set("www.agency.gov.uk");
        assert_eq!(set[0].value, "digicert.com");
    }

    #[test]
    fn caa_climb_ignores_case_and_stops_at_the_last_label() {
        let mut zone = DnsZone::new();
        zone.publish_caa("Agency.GOV.uk", vec![CaaRecord::issue("letsencrypt.org")]);
        zone.publish_caa("uk", vec![CaaRecord::issue("tld.example")]);
        assert_eq!(
            zone.caa_relevant_set("WWW.agency.gov.UK")[0].value,
            "letsencrypt.org"
        );
        assert_eq!(zone.caa_relevant_set("x.gov.uk")[0].value, "tld.example");
        assert_eq!(zone.caa_relevant_set("UK")[0].value, "tld.example");
        // A trailing dot leaves an empty last label, which is never
        // climbed to.
        assert!(zone.caa_relevant_set("x.gov.uk.").is_empty());
        assert!(zone.caa_relevant_set("").is_empty());
    }

    #[test]
    fn caa_empty_when_no_ancestor_publishes() {
        let mut zone = DnsZone::new();
        zone.publish_a("x.gov.fr", ip("192.0.2.9"));
        assert!(zone.caa_relevant_set("x.gov.fr").is_empty());
        assert!(zone.caa_relevant_set("unrelated.example").is_empty());
    }
}
