//! The simulated Internet: one table entry per name.
//!
//! A name's entry holds everything the wire says about it: the web host
//! registered under it (whose address is the name's A answer), the CAA
//! records published on it, and its resolution behaviour. The table
//! keys each entry by the host's own copy of its name, and every wire
//! operation looks a name up once.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use govscan_pki::caa::CaaRecord;

use crate::dns::{self, lowercase, DnsBehavior, DnsOutcome};
use crate::http::{HttpOutcome, HttpResponse};
use crate::tcp::{PortTable, TcpOutcome};
use crate::tls::{handshake, TlsClientConfig, TlsError, TlsServerConfig, TlsSession};

/// Everything one simulated web host does on the wire.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Fully-qualified hostname, lowercase. [`SimNet`] keys the host's
    /// entry by this same allocation.
    pub hostname: Arc<str>,
    /// The address its A record points at.
    pub ip: Ipv4Addr,
    /// Per-port TCP behaviour.
    pub ports: PortTable,
    /// TLS personality on 443 (None = no TLS listener configured, which
    /// with an open port manifests as a reset).
    pub tls: Option<TlsServerConfig>,
    /// Response served on plain HTTP (port 80).
    pub http: Option<HttpResponse>,
    /// Response served inside TLS (port 443).
    pub https: Option<HttpResponse>,
}

impl HostConfig {
    /// A plain-HTTP-only host serving a page.
    pub fn http_only(hostname: &str, ip: Ipv4Addr, page: HttpResponse) -> Self {
        let mut ports = PortTable::default();
        ports.set(80, TcpOutcome::Accepted);
        HostConfig {
            hostname: lowercase(hostname).into(),
            ip,
            ports,
            tls: None,
            http: Some(page),
            https: None,
        }
    }

    /// A host serving both 80 and 443 with the given TLS personality.
    pub fn dual(
        hostname: &str,
        ip: Ipv4Addr,
        tls: TlsServerConfig,
        http: HttpResponse,
        https: HttpResponse,
    ) -> Self {
        HostConfig {
            hostname: lowercase(hostname).into(),
            ip,
            ports: PortTable::both_open(),
            tls: Some(tls),
            http: Some(http),
            https: Some(https),
        }
    }
}

/// One name's table entry.
#[derive(Debug, Default)]
struct Entry {
    /// The host registered under the name; its address is the A answer.
    host: Option<HostConfig>,
    /// CAA records published on exactly this name.
    caa: Vec<CaaRecord>,
    /// Resolution behaviour override.
    behavior: DnsBehavior,
}

/// The simulated Internet. Immutable once built; safe to share across the
/// scanner's worker threads.
#[derive(Debug, Default)]
pub struct SimNet {
    names: HashMap<Arc<str>, Entry>,
}

impl SimNet {
    /// An empty network.
    pub fn new() -> Self {
        SimNet::default()
    }

    fn entry(&self, name: &str) -> Option<&Entry> {
        self.names.get(&*lowercase(name))
    }

    /// `name`'s entry, created empty if the name is new.
    fn entry_or_default(&mut self, name: &str) -> &mut Entry {
        let name = lowercase(name);
        if !self.names.contains_key(&*name) {
            self.names
                .insert(Arc::from(name.as_ref()), Entry::default());
        }
        self.names.get_mut(&*name).expect("inserted above")
    }

    /// Register a host, replacing any host the name had; its address
    /// becomes the name's A answer. The name's CAA records and
    /// resolution behaviour stay as they were.
    pub fn add_host(&mut self, config: HostConfig) {
        let entry = self.names.entry(Arc::clone(&config.hostname));
        entry.or_default().host = Some(config);
    }

    /// Mark a hostname as resolving with the given failure behaviour
    /// (e.g. a firewalled host that times out from our vantage point).
    pub fn set_dns_behavior(&mut self, name: &str, behavior: DnsBehavior) {
        self.entry_or_default(name).behavior = behavior;
    }

    /// Publish `caa` as the CAA records on exactly `name`, replacing any
    /// it had. The name needs no host: an apex can publish CAA for the
    /// hosts below it.
    pub fn publish_caa(&mut self, name: &str, caa: Vec<CaaRecord>) {
        self.entry_or_default(name).caa = caa;
    }

    /// Look up a host's configuration (test/diagnostic use; scanner code
    /// goes through the wire-level operations below).
    pub fn host(&self, name: &str) -> Option<&HostConfig> {
        self.entry(name)?.host.as_ref()
    }

    /// Mutable host access, for the remediation model in the disclosure
    /// simulation (webmasters fixing certificates between scans).
    pub fn host_mut(&mut self, name: &str) -> Option<&mut HostConfig> {
        self.names.get_mut(&*lowercase(name))?.host.as_mut()
    }

    /// Remove a host entirely (sites taken down after disclosure): the
    /// name resolves NXDOMAIN from then on.
    pub fn remove_host(&mut self, name: &str) -> Option<HostConfig> {
        let entry = self.entry_or_default(name);
        entry.behavior = DnsBehavior::NxDomain;
        entry.host.take()
    }

    /// Number of registered hosts.
    pub fn len(&self) -> usize {
        self.names.values().filter(|e| e.host.is_some()).count()
    }

    /// True if no host is registered.
    pub fn is_empty(&self) -> bool {
        self.names.values().all(|e| e.host.is_none())
    }

    /// All registered hostnames (unordered).
    pub fn hostnames(&self) -> impl Iterator<Item = &str> {
        self.names
            .iter()
            .filter(|(_, e)| e.host.is_some())
            .map(|(name, _)| &**name)
    }

    // ---- Wire-level client operations (what the scanner calls). ----

    /// The host `name` resolves to: its registered host, unless its
    /// behaviour fails the lookup or no host is registered.
    fn answer(&self, name: &str) -> Result<&HostConfig, DnsOutcome> {
        let entry = self.entry(name).ok_or(DnsOutcome::NxDomain)?;
        match entry.behavior {
            DnsBehavior::NxDomain => Err(DnsOutcome::NxDomain),
            DnsBehavior::Timeout => Err(DnsOutcome::Timeout),
            DnsBehavior::Answer => entry.host.as_ref().ok_or(DnsOutcome::NxDomain),
        }
    }

    /// DNS A lookup.
    pub fn resolve(&self, name: &str) -> DnsOutcome {
        match self.answer(name) {
            Ok(host) => DnsOutcome::Ok(vec![host.ip]),
            Err(failure) => failure,
        }
    }

    /// CAA relevant-record-set lookup (RFC 8659 climb).
    pub fn caa_lookup(&self, name: &str) -> &[CaaRecord] {
        dns::caa_relevant_set(name, |n| self.names.get(n).map(|e| &e.caa[..]))
    }

    /// TCP connect to `name:port`. A name that does not resolve to a
    /// host refuses, like a stale A record pointing nowhere.
    pub fn tcp_connect(&self, name: &str, port: u16) -> TcpOutcome {
        match self.answer(name) {
            Ok(host) => host.ports.connect(port),
            Err(_) => TcpOutcome::Refused,
        }
    }

    /// Full TLS handshake against `name:443` with the probe `client`.
    pub fn tls_connect(
        &self,
        name: &str,
        client: &TlsClientConfig,
    ) -> Result<TlsSession, TlsError> {
        let host = self
            .answer(name)
            .expect("tls_connect requires an established TCP connection");
        tls_handshake(host, client)
    }

    /// The complete client fetch the paper's availability probe performed:
    /// resolve → connect → (handshake) → GET /.
    pub fn fetch(&self, name: &str, https: bool, client: &TlsClientConfig) -> HttpOutcome {
        let host = match self.answer(name) {
            Ok(host) => host,
            Err(DnsOutcome::Timeout) => return HttpOutcome::DnsTimeout,
            Err(_) => return HttpOutcome::DnsFailure,
        };
        let tcp = host.ports.connect(if https { 443 } else { 80 });
        if !tcp.is_ok() {
            return HttpOutcome::ConnectFailed(tcp);
        }
        let response = if https {
            if let Err(e) = tls_handshake(host, client) {
                return HttpOutcome::TlsFailure(e);
            }
            &host.https
        } else {
            &host.http
        };
        HttpOutcome::Response(response.clone().unwrap_or_else(HttpResponse::not_found))
    }
}

/// The handshake with `host`'s TLS listener.
fn tls_handshake(host: &HostConfig, client: &TlsClientConfig) -> Result<TlsSession, TlsError> {
    match &host.tls {
        Some(server) => handshake(client, server),
        // Port open but no TLS stack behind it: OpenSSL sees garbage.
        None => Err(TlsError::WrongVersionNumber),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tls::{TlsError, TlsVersion};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn client() -> TlsClientConfig {
        TlsClientConfig::default()
    }

    fn page() -> HttpResponse {
        HttpResponse::page("Test Agency", &[])
    }

    #[test]
    fn http_only_host_round_trip() {
        let mut net = SimNet::new();
        net.add_host(HostConfig::http_only(
            "agency.gov.xx",
            ip("192.0.2.1"),
            page(),
        ));
        assert_eq!(net.len(), 1);
        assert_eq!(net.resolve("agency.gov.xx").first(), Some(ip("192.0.2.1")));
        assert!(net.fetch("agency.gov.xx", false, &client()).is_ok_200());
        // HTTPS: port closed.
        match net.fetch("agency.gov.xx", true, &client()) {
            HttpOutcome::ConnectFailed(TcpOutcome::Refused) => {}
            other => panic!("expected refused, got {other:?}"),
        }
    }

    #[test]
    fn dual_host_serves_both() {
        let mut net = SimNet::new();
        net.add_host(HostConfig::dual(
            "www.city.gov",
            ip("192.0.2.2"),
            TlsServerConfig::modern(vec![]),
            HttpResponse::redirect("https://www.city.gov/"),
            page().with_hsts(),
        ));
        let http = net.fetch("www.city.gov", false, &client());
        assert!(http.response().unwrap().is_redirect());
        let https = net.fetch("www.city.gov", true, &client());
        assert!(https.is_ok_200());
        assert!(https.response().unwrap().hsts.is_some());
    }

    #[test]
    fn unknown_host_is_dns_failure() {
        let net = SimNet::new();
        assert_eq!(
            net.fetch("ghost.gov", false, &client()),
            HttpOutcome::DnsFailure
        );
    }

    #[test]
    fn dns_timeout_behavior() {
        let mut net = SimNet::new();
        net.add_host(HostConfig::http_only(
            "slow.gov.cn",
            ip("192.0.2.3"),
            page(),
        ));
        net.set_dns_behavior("slow.gov.cn", DnsBehavior::Timeout);
        assert_eq!(
            net.fetch("slow.gov.cn", false, &client()),
            HttpOutcome::DnsTimeout
        );
    }

    #[test]
    fn tls_failure_surfaces() {
        let mut net = SimNet::new();
        let mut tls = TlsServerConfig::modern(vec![]);
        tls.min_version = TlsVersion::Ssl2;
        tls.max_version = TlsVersion::Ssl3;
        net.add_host(HostConfig::dual(
            "old.gov.ru",
            ip("192.0.2.4"),
            tls,
            page(),
            page(),
        ));
        assert_eq!(
            net.fetch("old.gov.ru", true, &client()),
            HttpOutcome::TlsFailure(TlsError::UnsupportedProtocol)
        );
    }

    #[test]
    fn open_443_without_tls_is_wrong_version() {
        let mut net = SimNet::new();
        let mut host = HostConfig::http_only("plain443.gov", ip("192.0.2.5"), page());
        host.ports.set(443, TcpOutcome::Accepted);
        net.add_host(host);
        assert_eq!(
            net.fetch("plain443.gov", true, &client()),
            HttpOutcome::TlsFailure(TlsError::WrongVersionNumber)
        );
    }

    #[test]
    fn removed_host_becomes_nxdomain() {
        let mut net = SimNet::new();
        net.add_host(HostConfig::http_only("gone.gov", ip("192.0.2.6"), page()));
        assert!(net.fetch("gone.gov", false, &client()).is_ok_200());
        net.remove_host("gone.gov");
        assert_eq!(
            net.fetch("gone.gov", false, &client()),
            HttpOutcome::DnsFailure
        );
    }

    #[test]
    fn host_mut_allows_remediation() {
        let mut net = SimNet::new();
        net.add_host(HostConfig::http_only("fixme.gov", ip("192.0.2.7"), page()));
        // Webmaster deploys TLS after disclosure.
        {
            let host = net.host_mut("fixme.gov").unwrap();
            host.ports.set(443, TcpOutcome::Accepted);
            host.tls = Some(TlsServerConfig::modern(vec![]));
            host.https = Some(HttpResponse::page("Fixed", &[]));
        }
        assert!(net.fetch("fixme.gov", true, &client()).is_ok_200());
    }

    #[test]
    fn behaviour_overrides_a_registered_hosts_answer() {
        for (behavior, dns, fetch) in [
            (
                DnsBehavior::Timeout,
                DnsOutcome::Timeout,
                HttpOutcome::DnsTimeout,
            ),
            (
                DnsBehavior::NxDomain,
                DnsOutcome::NxDomain,
                HttpOutcome::DnsFailure,
            ),
        ] {
            let mut net = SimNet::new();
            net.add_host(HostConfig::dual(
                "walled.gov.cn",
                ip("192.0.2.10"),
                TlsServerConfig::modern(vec![]),
                page(),
                page(),
            ));
            net.set_dns_behavior("walled.gov.cn", behavior);
            assert_eq!(net.resolve("walled.gov.cn"), dns);
            for https in [false, true] {
                assert_eq!(net.fetch("walled.gov.cn", https, &client()), fetch);
            }
            for port in [80, 443] {
                assert_eq!(net.tcp_connect("walled.gov.cn", port), TcpOutcome::Refused);
            }
            // The host stays registered behind the override.
            assert!(net.host("walled.gov.cn").is_some());
            assert_eq!(net.len(), 1);
            net.set_dns_behavior("walled.gov.cn", DnsBehavior::Answer);
            assert_eq!(net.resolve("walled.gov.cn").first(), Some(ip("192.0.2.10")));
            assert_eq!(net.tcp_connect("walled.gov.cn", 443), TcpOutcome::Accepted);
        }
    }

    #[test]
    fn caa_on_a_name_without_a_host_still_climbs() {
        let mut net = SimNet::new();
        net.publish_caa("agency.gov.uk", vec![CaaRecord::issue("letsencrypt.org")]);
        net.add_host(HostConfig::http_only(
            "www.agency.gov.uk",
            ip("192.0.2.11"),
            page(),
        ));
        assert_eq!(
            net.caa_lookup("www.agency.gov.uk")[0].value,
            "letsencrypt.org"
        );
        assert_eq!(net.caa_lookup("agency.gov.uk")[0].value, "letsencrypt.org");
        // The apex publishes CAA only: it has no host and no A answer.
        assert!(net.host("agency.gov.uk").is_none());
        assert_eq!(net.resolve("agency.gov.uk"), DnsOutcome::NxDomain);
        assert_eq!(net.tcp_connect("agency.gov.uk", 80), TcpOutcome::Refused);
        assert_eq!(net.hostnames().collect::<Vec<_>>(), ["www.agency.gov.uk"]);
        assert_eq!(net.len(), 1);
        // A host registered later keeps the name's CAA records.
        net.add_host(HostConfig::http_only(
            "agency.gov.uk",
            ip("192.0.2.12"),
            page(),
        ));
        assert_eq!(net.caa_lookup("agency.gov.uk")[0].value, "letsencrypt.org");
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn remove_host_leaves_the_name_nxdomain() {
        let mut net = SimNet::new();
        net.add_host(HostConfig::http_only("gone.gov", ip("192.0.2.13"), page()));
        net.publish_caa("gone.gov", vec![CaaRecord::issue("letsencrypt.org")]);
        let removed = net.remove_host("GONE.gov").expect("was registered");
        assert_eq!(&*removed.hostname, "gone.gov");
        assert_eq!(net.resolve("gone.gov"), DnsOutcome::NxDomain);
        assert_eq!(net.tcp_connect("gone.gov", 80), TcpOutcome::Refused);
        assert!(net.host("gone.gov").is_none());
        assert!(net.is_empty());
        assert_eq!(net.hostnames().count(), 0);
        // CAA is zone data, not the host's: it stays published.
        assert_eq!(net.caa_lookup("gone.gov").len(), 1);
        // A host registered again stays NXDOMAIN until the behaviour is
        // reset, as the disclosure model's revived hosts do.
        net.add_host(HostConfig::http_only("gone.gov", ip("192.0.2.14"), page()));
        assert_eq!(net.resolve("gone.gov"), DnsOutcome::NxDomain);
        net.set_dns_behavior("gone.gov", DnsBehavior::Answer);
        assert_eq!(net.resolve("gone.gov").first(), Some(ip("192.0.2.14")));
        // Removing a name that never had a host still blocks it.
        assert!(net.remove_host("never.gov").is_none());
        assert_eq!(net.resolve("never.gov"), DnsOutcome::NxDomain);
    }

    #[test]
    fn host_and_host_mut_ignore_case() {
        let mut net = SimNet::new();
        net.add_host(HostConfig::http_only(
            "Case.GOV.br",
            ip("192.0.2.15"),
            page(),
        ));
        assert_eq!(&*net.host("case.gov.br").unwrap().hostname, "case.gov.br");
        assert!(net.host("CASE.gov.BR").is_some());
        net.host_mut("CASE.GOV.BR")
            .unwrap()
            .ports
            .set(80, TcpOutcome::TimedOut);
        assert_eq!(net.tcp_connect("case.gov.br", 80), TcpOutcome::TimedOut);
        assert!(net.host_mut("other.gov.br").is_none());
    }

    #[test]
    fn re_added_host_answers_with_its_new_address() {
        let mut net = SimNet::new();
        net.add_host(HostConfig::http_only("moved.gov", ip("192.0.2.16"), page()));
        net.add_host(HostConfig::http_only("moved.gov", ip("192.0.2.17"), page()));
        assert_eq!(
            net.resolve("moved.gov"),
            DnsOutcome::Ok(vec![ip("192.0.2.17")])
        );
        assert_eq!(net.len(), 1);
    }

    #[test]
    fn case_insensitive_hostnames() {
        let mut net = SimNet::new();
        net.add_host(HostConfig::http_only(
            "MiXeD.Gov.Br",
            ip("192.0.2.8"),
            page(),
        ));
        assert!(net.fetch("mixed.gov.br", false, &client()).is_ok_200());
        assert!(net.fetch("MIXED.GOV.BR", false, &client()).is_ok_200());
    }
}
