//! The TLS handshake simulation.
//!
//! Servers have *personalities*: a supported protocol-version window, a
//! cipher-suite preference list, a certificate chain, and optional fault
//! quirks that reproduce the paper's exception categories ("unsupported
//! SSL protocol", "wrong SSL version number", "TLSv1 alert internal
//! error", "SSLv3 alert handshake failure", "TLSv1 alert internal
//! protocol version"). The client side mirrors the paper's OpenSSL probe:
//! it offers TLS 1.0–1.3 by default and records exactly which failure it
//! observed.

use std::sync::Arc;

use govscan_pki::Certificate;

/// SSL/TLS protocol versions, oldest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TlsVersion {
    /// SSL 2.0 (prehistoric, always rejected by the probe).
    Ssl2,
    /// SSL 3.0 (POODLE-vulnerable; the paper flags servers negotiating
    /// anything older than SSLv3 as running unpatched software).
    Ssl3,
    /// TLS 1.0.
    Tls10,
    /// TLS 1.1.
    Tls11,
    /// TLS 1.2.
    Tls12,
    /// TLS 1.3.
    Tls13,
}

impl TlsVersion {
    /// All versions, ascending.
    pub const ALL: [TlsVersion; 6] = [
        TlsVersion::Ssl2,
        TlsVersion::Ssl3,
        TlsVersion::Tls10,
        TlsVersion::Tls11,
        TlsVersion::Tls12,
        TlsVersion::Tls13,
    ];

    /// Protocol name as printed in scan reports.
    pub fn label(self) -> &'static str {
        match self {
            TlsVersion::Ssl2 => "SSLv2",
            TlsVersion::Ssl3 => "SSLv3",
            TlsVersion::Tls10 => "TLSv1.0",
            TlsVersion::Tls11 => "TLSv1.1",
            TlsVersion::Tls12 => "TLSv1.2",
            TlsVersion::Tls13 => "TLSv1.3",
        }
    }

    /// Deprecated protocols (SSLv2/SSLv3) — §5.3's 12.7% "unsupported SSL
    /// protocol" hosts live here.
    pub fn is_legacy(self) -> bool {
        self <= TlsVersion::Ssl3
    }
}

/// A small cipher-suite model: enough structure for negotiation and for
/// flagging export/NULL suites as weak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CipherSuite {
    /// TLS 1.3 AES-128-GCM.
    Aes128GcmSha256,
    /// TLS 1.3 AES-256-GCM.
    Aes256GcmSha384,
    /// TLS 1.3 / 1.2 ChaCha20-Poly1305.
    ChaCha20Poly1305,
    /// TLS ≤1.2 ECDHE-RSA-AES128-CBC-SHA.
    EcdheRsaAes128Sha,
    /// TLS ≤1.2 RSA-AES128-CBC-SHA (no forward secrecy).
    RsaAes128Sha,
    /// RC4-MD5 (broken; legacy servers only).
    Rc4Md5,
    /// EXPORT-grade DES (broken; legacy servers only).
    ExportDes40Sha,
}

impl CipherSuite {
    /// Suites a modern probe offers, in preference order.
    pub const MODERN: [CipherSuite; 5] = [
        CipherSuite::Aes256GcmSha384,
        CipherSuite::Aes128GcmSha256,
        CipherSuite::ChaCha20Poly1305,
        CipherSuite::EcdheRsaAes128Sha,
        CipherSuite::RsaAes128Sha,
    ];

    /// Broken/export suites that a modern client refuses.
    pub fn is_weak(self) -> bool {
        matches!(self, CipherSuite::Rc4Md5 | CipherSuite::ExportDes40Sha)
    }
}

/// Fault quirks a server personality may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlsQuirk {
    /// Speaks a non-TLS protocol on 443 ("wrong version number").
    WrongVersionNumber,
    /// Aborts with an internal_error alert after ClientHello.
    AlertInternalError,
    /// Aborts with handshake_failure (e.g. no shared cipher).
    AlertHandshakeFailure,
    /// Aborts with protocol_version alert despite an overlapping window.
    AlertProtocolVersion,
    /// Accepts the TCP connection but never answers the ClientHello
    /// (Table 2's "Timed out" exception row).
    HandshakeTimeout,
    /// Resets the connection mid-handshake ("Connection Reset by peer").
    HandshakeReset,
    /// Tears the connection down right after accept ("Connection
    /// refused" as observed by the paper's probe retries).
    HandshakeRefused,
}

/// Server-side TLS configuration.
#[derive(Debug, Clone)]
pub struct TlsServerConfig {
    /// Lowest protocol version accepted.
    pub min_version: TlsVersion,
    /// Highest protocol version accepted.
    pub max_version: TlsVersion,
    /// Cipher suites in server preference order: one of the static
    /// lists below, shared by every server with that personality.
    pub suites: &'static [CipherSuite],
    /// The certificate chain sent in Certificate messages (leaf first —
    /// possibly incomplete or over-complete, exactly as misconfigured
    /// real servers send). Shared: every handshake hands the same
    /// reference-counted chain to its session instead of deep-copying
    /// the certificates.
    pub chain: Arc<[Certificate]>,
    /// Optional fault quirk.
    pub quirk: Option<TlsQuirk>,
}

impl TlsServerConfig {
    /// A well-configured modern server for `chain`.
    pub fn modern(chain: impl Into<Arc<[Certificate]>>) -> Self {
        TlsServerConfig {
            min_version: TlsVersion::Tls12,
            max_version: TlsVersion::Tls13,
            suites: &CipherSuite::MODERN,
            chain: chain.into(),
            quirk: None,
        }
    }

    /// A legacy server stuck on SSLv3-or-older (POODLE-era software).
    pub fn legacy_ssl(chain: impl Into<Arc<[Certificate]>>) -> Self {
        TlsServerConfig {
            min_version: TlsVersion::Ssl2,
            max_version: TlsVersion::Ssl3,
            suites: &[CipherSuite::Rc4Md5, CipherSuite::ExportDes40Sha],
            chain: chain.into(),
            quirk: None,
        }
    }
}

/// Client-side (probe) configuration.
#[derive(Debug, Clone)]
pub struct TlsClientConfig {
    /// Lowest version the probe offers.
    pub min_version: TlsVersion,
    /// Highest version the probe offers.
    pub max_version: TlsVersion,
    /// Offered suites in preference order.
    pub suites: Vec<CipherSuite>,
}

impl Default for TlsClientConfig {
    fn default() -> Self {
        // The paper's OpenSSL probe: TLS 1.0–1.3, modern suites.
        TlsClientConfig {
            min_version: TlsVersion::Tls10,
            max_version: TlsVersion::Tls13,
            suites: CipherSuite::MODERN.to_vec(),
        }
    }
}

/// Handshake failures, labelled as the paper's Table 2 reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TlsError {
    /// "Unsupported SSL Protocol" — the server only speaks versions below
    /// the client's floor.
    UnsupportedProtocol,
    /// "Wrong SSL Version Number" — garbage where a TLS record belonged.
    WrongVersionNumber,
    /// "TLSv1 Alert Internal Error".
    AlertInternalError,
    /// "SSLv3 Alert Handshake Failure".
    AlertHandshakeFailure,
    /// "TLSv1 Alert Internal Protocol Version".
    AlertProtocolVersion,
    /// No cipher suite in common.
    NoSharedCipher,
    /// "Timed out" during the handshake.
    TimedOut,
    /// "Connection Reset by peer" during the handshake.
    ConnectionReset,
    /// "Connection refused" (server tears down after accept).
    ConnectionRefused,
}

impl TlsError {
    /// Table 2 row label.
    pub fn label(self) -> &'static str {
        match self {
            TlsError::UnsupportedProtocol => "unsupported SSL protocol",
            TlsError::WrongVersionNumber => "wrong SSL version number",
            TlsError::AlertInternalError => "TLSv1 alert internal error",
            TlsError::AlertHandshakeFailure => "SSLv3 alert handshake failure",
            TlsError::AlertProtocolVersion => "TLSv1 alert internal protocol version",
            TlsError::NoSharedCipher => "no shared cipher",
            TlsError::TimedOut => "timed out",
            TlsError::ConnectionReset => "connection reset by peer",
            TlsError::ConnectionRefused => "connection refused",
        }
    }
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::error::Error for TlsError {}

/// A completed handshake: negotiated parameters plus the peer chain.
#[derive(Debug, Clone)]
pub struct TlsSession {
    /// Negotiated protocol version.
    pub version: TlsVersion,
    /// Negotiated cipher suite.
    pub suite: CipherSuite,
    /// Peer certificate chain, leaf first, exactly as sent. A shared
    /// handle onto the server's chain — retrieving it is O(1), not a
    /// deep copy per handshake.
    pub peer_chain: Arc<[Certificate]>,
}

/// Run the handshake between `client` and `server`.
pub fn handshake(
    client: &TlsClientConfig,
    server: &TlsServerConfig,
) -> Result<TlsSession, TlsError> {
    if let Some(quirk) = server.quirk {
        return Err(match quirk {
            TlsQuirk::WrongVersionNumber => TlsError::WrongVersionNumber,
            TlsQuirk::AlertInternalError => TlsError::AlertInternalError,
            TlsQuirk::AlertHandshakeFailure => TlsError::AlertHandshakeFailure,
            TlsQuirk::AlertProtocolVersion => TlsError::AlertProtocolVersion,
            TlsQuirk::HandshakeTimeout => TlsError::TimedOut,
            TlsQuirk::HandshakeReset => TlsError::ConnectionReset,
            TlsQuirk::HandshakeRefused => TlsError::ConnectionRefused,
        });
    }
    // Version negotiation: highest version inside both windows.
    let version = TlsVersion::ALL
        .into_iter()
        .rev()
        .find(|v| {
            *v >= client.min_version
                && *v <= client.max_version
                && *v >= server.min_version
                && *v <= server.max_version
        })
        .ok_or(TlsError::UnsupportedProtocol)?;
    // Cipher negotiation: first server-preferred suite the client offers
    // and considers acceptable.
    let suite = server
        .suites
        .iter()
        .copied()
        .find(|s| client.suites.contains(s) && !s.is_weak())
        .ok_or(TlsError::NoSharedCipher)?;
    Ok(TlsSession {
        version,
        suite,
        peer_chain: Arc::clone(&server.chain),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> TlsClientConfig {
        TlsClientConfig::default()
    }

    #[test]
    fn modern_server_negotiates_tls13() {
        let server = TlsServerConfig::modern(vec![]);
        let s = handshake(&client(), &server).unwrap();
        assert_eq!(s.version, TlsVersion::Tls13);
        assert_eq!(s.suite, CipherSuite::Aes256GcmSha384);
    }

    #[test]
    fn legacy_ssl_server_is_unsupported_protocol() {
        // Server max = SSLv3 < client min = TLS1.0 → the paper's 12.7%
        // "unsupported SSL protocol" bucket.
        let server = TlsServerConfig::legacy_ssl(vec![]);
        assert_eq!(
            handshake(&client(), &server).unwrap_err(),
            TlsError::UnsupportedProtocol
        );
    }

    #[test]
    fn version_window_intersection() {
        let mut server = TlsServerConfig::modern(vec![]);
        server.min_version = TlsVersion::Tls10;
        server.max_version = TlsVersion::Tls11;
        let s = handshake(&client(), &server).unwrap();
        assert_eq!(s.version, TlsVersion::Tls11);
    }

    #[test]
    fn quirks_map_to_alert_errors() {
        for (quirk, err) in [
            (TlsQuirk::WrongVersionNumber, TlsError::WrongVersionNumber),
            (TlsQuirk::AlertInternalError, TlsError::AlertInternalError),
            (
                TlsQuirk::AlertHandshakeFailure,
                TlsError::AlertHandshakeFailure,
            ),
            (
                TlsQuirk::AlertProtocolVersion,
                TlsError::AlertProtocolVersion,
            ),
        ] {
            let mut server = TlsServerConfig::modern(vec![]);
            server.quirk = Some(quirk);
            assert_eq!(handshake(&client(), &server).unwrap_err(), err);
        }
    }

    #[test]
    fn weak_only_server_has_no_shared_cipher() {
        let mut server = TlsServerConfig::modern(vec![]);
        server.suites = &[CipherSuite::Rc4Md5, CipherSuite::ExportDes40Sha];
        assert_eq!(
            handshake(&client(), &server).unwrap_err(),
            TlsError::NoSharedCipher
        );
    }

    #[test]
    fn server_preference_order_wins() {
        let mut server = TlsServerConfig::modern(vec![]);
        server.suites = &[CipherSuite::ChaCha20Poly1305, CipherSuite::Aes256GcmSha384];
        let s = handshake(&client(), &server).unwrap();
        assert_eq!(s.suite, CipherSuite::ChaCha20Poly1305);
    }

    #[test]
    fn probe_with_ssl3_floor_reaches_legacy_server() {
        // A deliberately permissive probe can still talk to POODLE boxes.
        let mut c = client();
        c.min_version = TlsVersion::Ssl3;
        let server = TlsServerConfig::legacy_ssl(vec![]);
        // Version negotiates to SSLv3, but all legacy suites are weak.
        assert_eq!(
            handshake(&c, &server).unwrap_err(),
            TlsError::NoSharedCipher
        );
    }

    #[test]
    fn legacy_flag() {
        assert!(TlsVersion::Ssl2.is_legacy());
        assert!(TlsVersion::Ssl3.is_legacy());
        assert!(!TlsVersion::Tls10.is_legacy());
        assert_eq!(TlsVersion::Tls12.label(), "TLSv1.2");
    }
}
