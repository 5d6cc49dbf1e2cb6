//! The DNS side of the simulation: resolution outcomes, per-name
//! failure behaviours and the RFC 8659 CAA climb.
//!
//! The zone data itself — a name's A answer, CAA set and behaviour —
//! lives in the name's one [`SimNet`](crate::SimNet) entry, beside the
//! host it points at.

use std::borrow::Cow;
use std::net::Ipv4Addr;

use govscan_pki::caa::CaaRecord;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DnsBehavior {
    /// Answer normally from the zone data.
    #[default]
    Answer,
    /// Pretend the name does not exist even if records are loaded.
    NxDomain,
    /// Time out.
    Timeout,
}

/// The RFC 8659 *relevant record set* for CAA: the records on the
/// closest ancestor of `name` (including `name` itself) that publishes
/// any, read through `records_of`, which looks up one lowercase name.
/// Empty when no ancestor publishes CAA. `name` is lowercased first; the
/// climb stops at the last label and never visits an empty one.
pub(crate) fn caa_relevant_set<'a>(
    name: &str,
    records_of: impl Fn(&str) -> Option<&'a [CaaRecord]>,
) -> &'a [CaaRecord] {
    let name = lowercase(name);
    let mut current: &str = &name;
    loop {
        if let Some(set) = records_of(current).filter(|set| !set.is_empty()) {
            return set;
        }
        match current.split_once('.') {
            Some((_, parent)) if !parent.is_empty() => current = parent,
            _ => return &[],
        }
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
    use crate::http::HttpResponse;
    use crate::simnet::{HostConfig, SimNet};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// A network with one plain-http host per `(name, address)`.
    fn net(hosts: &[(&str, &str)]) -> SimNet {
        let mut net = SimNet::new();
        for &(name, addr) in hosts {
            net.add_host(HostConfig::http_only(
                name,
                ip(addr),
                HttpResponse::page(name, &[]),
            ));
        }
        net
    }

    #[test]
    fn resolve_published_name() {
        let net = net(&[("www.nih.gov", "156.40.1.1")]);
        assert_eq!(
            net.resolve("www.nih.gov"),
            DnsOutcome::Ok(vec![ip("156.40.1.1")])
        );
        assert_eq!(net.resolve("WWW.NIH.GOV").first(), Some(ip("156.40.1.1")));
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let net = SimNet::new();
        assert_eq!(net.resolve("missing.gov"), DnsOutcome::NxDomain);
        assert_eq!(net.resolve("missing.gov").first(), None);
    }

    #[test]
    fn behavior_overrides() {
        let mut net = net(&[("flaky.gov.cd", "10.0.0.1")]);
        net.set_dns_behavior("flaky.gov.cd", DnsBehavior::Timeout);
        assert_eq!(net.resolve("flaky.gov.cd"), DnsOutcome::Timeout);
        net.set_dns_behavior("flaky.gov.cd", DnsBehavior::NxDomain);
        assert_eq!(net.resolve("flaky.gov.cd"), DnsOutcome::NxDomain);
        net.set_dns_behavior("flaky.gov.cd", DnsBehavior::Answer);
        assert!(matches!(net.resolve("flaky.gov.cd"), DnsOutcome::Ok(_)));
    }

    #[test]
    fn caa_climb_finds_parent_records() {
        let mut net = net(&[("www.agency.gov.uk", "192.0.2.1")]);
        net.publish_caa("agency.gov.uk", vec![CaaRecord::issue("letsencrypt.org")]);
        let set = net.caa_lookup("www.agency.gov.uk");
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].value, "letsencrypt.org");
    }

    #[test]
    fn caa_own_records_take_precedence() {
        let mut net = SimNet::new();
        net.publish_caa("agency.gov.uk", vec![CaaRecord::issue("letsencrypt.org")]);
        net.publish_caa("www.agency.gov.uk", vec![CaaRecord::issue("digicert.com")]);
        let set = net.caa_lookup("www.agency.gov.uk");
        assert_eq!(set[0].value, "digicert.com");
    }

    #[test]
    fn caa_climb_ignores_case_and_stops_at_the_last_label() {
        let mut net = SimNet::new();
        net.publish_caa("Agency.GOV.uk", vec![CaaRecord::issue("letsencrypt.org")]);
        net.publish_caa("uk", vec![CaaRecord::issue("tld.example")]);
        assert_eq!(
            net.caa_lookup("WWW.agency.gov.UK")[0].value,
            "letsencrypt.org"
        );
        assert_eq!(net.caa_lookup("x.gov.uk")[0].value, "tld.example");
        assert_eq!(net.caa_lookup("UK")[0].value, "tld.example");
        // A trailing dot leaves an empty last label, which is never
        // climbed to.
        assert!(net.caa_lookup("x.gov.uk.").is_empty());
        assert!(net.caa_lookup("").is_empty());
    }

    #[test]
    fn caa_empty_when_no_ancestor_publishes() {
        let net = net(&[("x.gov.fr", "192.0.2.9")]);
        assert!(net.caa_lookup("x.gov.fr").is_empty());
        assert!(net.caa_lookup("unrelated.example").is_empty());
    }
}
