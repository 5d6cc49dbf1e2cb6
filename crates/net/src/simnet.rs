//! The simulated Internet: a registry of hosts the scanner dials.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use govscan_pki::caa::CaaRecord;

use crate::dns::{lowercase, DnsBehavior, DnsOutcome, DnsZone};
use crate::http::{HttpOutcome, HttpResponse};
use crate::tcp::{PortTable, TcpOutcome};
use crate::tls::{handshake, TlsClientConfig, TlsServerConfig, TlsSession};

/// Everything one simulated web host does on the wire.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Fully-qualified hostname, lowercase.
    pub hostname: String,
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
    pub fn http_only(hostname: impl Into<String>, ip: Ipv4Addr, page: HttpResponse) -> Self {
        let mut hostname = hostname.into();
        hostname.make_ascii_lowercase();
        let mut ports = PortTable::default();
        ports.set(80, TcpOutcome::Accepted);
        HostConfig {
            hostname,
            ip,
            ports,
            tls: None,
            http: Some(page),
            https: None,
        }
    }

    /// A host serving both 80 and 443 with the given TLS personality.
    pub fn dual(
        hostname: impl Into<String>,
        ip: Ipv4Addr,
        tls: TlsServerConfig,
        http: HttpResponse,
        https: HttpResponse,
    ) -> Self {
        let mut hostname = hostname.into();
        hostname.make_ascii_lowercase();
        HostConfig {
            hostname,
            ip,
            ports: PortTable::both_open(),
            tls: Some(tls),
            http: Some(http),
            https: Some(https),
        }
    }
}

/// The simulated Internet. Immutable once built; safe to share across the
/// scanner's worker threads.
#[derive(Debug, Default)]
pub struct SimNet {
    /// Zone data (A + CAA records, failure behaviours).
    pub dns: DnsZone,
    hosts: HashMap<String, HostConfig>,
}

impl SimNet {
    /// An empty network.
    pub fn new() -> Self {
        SimNet::default()
    }

    /// Register a host and publish its A record.
    pub fn add_host(&mut self, config: HostConfig) {
        self.dns.publish_a(&config.hostname, config.ip);
        self.hosts.insert(config.hostname.clone(), config);
    }

    /// Mark a hostname as resolving with the given failure behaviour
    /// (e.g. a firewalled host that times out from our vantage point).
    pub fn set_dns_behavior(&mut self, name: &str, behavior: DnsBehavior) {
        self.dns.set_behavior(name, behavior);
    }

    /// Look up a host's configuration (test/diagnostic use; scanner code
    /// goes through the wire-level operations below).
    pub fn host(&self, name: &str) -> Option<&HostConfig> {
        self.hosts.get(&*lowercase(name))
    }

    /// Mutable host access, for the remediation model in the disclosure
    /// simulation (webmasters fixing certificates between scans).
    pub fn host_mut(&mut self, name: &str) -> Option<&mut HostConfig> {
        self.hosts.get_mut(&*lowercase(name))
    }

    /// Remove a host entirely (sites taken down after disclosure).
    pub fn remove_host(&mut self, name: &str) -> Option<HostConfig> {
        let key = name.to_ascii_lowercase();
        self.dns.set_behavior(&key, DnsBehavior::NxDomain);
        self.hosts.remove(&key)
    }

    /// Number of registered hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True if the network is empty.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// All registered hostnames (unordered).
    pub fn hostnames(&self) -> impl Iterator<Item = &str> {
        self.hosts.keys().map(|s| s.as_str())
    }

    // ---- Wire-level client operations (what the scanner calls). ----

    /// DNS A lookup.
    pub fn resolve(&self, name: &str) -> DnsOutcome {
        self.dns.resolve(name)
    }

    /// CAA relevant-record-set lookup (RFC 8659 climb).
    pub fn caa_lookup(&self, name: &str) -> &[CaaRecord] {
        self.dns.caa_relevant_set(name)
    }

    /// TCP connect to `name:port` (assumes DNS already succeeded; a
    /// missing host refuses, like a stale A record pointing nowhere).
    pub fn tcp_connect(&self, name: &str, port: u16) -> TcpOutcome {
        match self.host(name) {
            Some(h) => h.ports.connect(port),
            None => TcpOutcome::Refused,
        }
    }

    /// Full TLS handshake against `name:443` with the probe `client`.
    pub fn tls_connect(
        &self,
        name: &str,
        client: &TlsClientConfig,
    ) -> Result<TlsSession, crate::tls::TlsError> {
        let host = self
            .host(name)
            .expect("tls_connect requires an established TCP connection");
        match &host.tls {
            Some(server) => handshake(client, server),
            // Port open but no TLS stack behind it: OpenSSL sees garbage.
            None => Err(crate::tls::TlsError::WrongVersionNumber),
        }
    }

    /// The complete client fetch the paper's availability probe performed:
    /// resolve → connect → (handshake) → GET /.
    pub fn fetch(&self, name: &str, https: bool, client: &TlsClientConfig) -> HttpOutcome {
        match self.dns.answer(name) {
            Err(DnsOutcome::Timeout) => return HttpOutcome::DnsTimeout,
            Err(_) => return HttpOutcome::DnsFailure,
            Ok(_) => {}
        }
        let port = if https { 443 } else { 80 };
        let tcp = self.tcp_connect(name, port);
        if !tcp.is_ok() {
            return HttpOutcome::ConnectFailed(tcp);
        }
        let host = self.host(name).expect("resolved hosts are registered");
        if https {
            if let Err(e) = self.tls_connect(name, client) {
                return HttpOutcome::TlsFailure(e);
            }
            match &host.https {
                Some(r) => HttpOutcome::Response(r.clone()),
                None => HttpOutcome::Response(HttpResponse::not_found()),
            }
        } else {
            match &host.http {
                Some(r) => HttpOutcome::Response(r.clone()),
                None => HttpOutcome::Response(HttpResponse::not_found()),
            }
        }
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
