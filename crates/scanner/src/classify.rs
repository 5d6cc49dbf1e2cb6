//! Classification of per-host scan outcomes into the Table 2 taxonomy.

use govscan_asn1::Time;
use govscan_crypto::{Fingerprint, KeyAlgorithm, SignatureAlgorithm};
use govscan_net::TlsError;
use govscan_pki::ev::EvRegistry;
use govscan_pki::{CertError, Certificate};

/// The measured error taxonomy — exactly the rows of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorCategory {
    /// Hostname mismatch.
    HostnameMismatch,
    /// Unable to get local issuer certificate.
    UnableLocalIssuer,
    /// Self-signed certificate.
    SelfSigned,
    /// Self-signed certificate in certificate chain.
    SelfSignedInChain,
    /// Certificate expired.
    Expired,
    /// Certificate not yet valid (folded into "Others" by the paper).
    NotYetValid,
    /// Signature failure / other chain defects ("Others").
    Other,
    /// Exception: unsupported SSL protocol.
    UnsupportedProtocol,
    /// Exception: timed out.
    TimedOut,
    /// Exception: connection refused.
    ConnectionRefused,
    /// Exception: connection reset by peer.
    ConnectionReset,
    /// Exception: wrong SSL version number.
    WrongVersionNumber,
    /// Exception: TLSv1 alert internal error.
    AlertInternalError,
    /// Exception: SSLv3 alert handshake failure.
    AlertHandshakeFailure,
    /// Exception: TLSv1 alert internal protocol version.
    AlertProtocolVersion,
}

impl ErrorCategory {
    /// All categories in Table 2 order.
    pub const ALL: [ErrorCategory; 15] = [
        ErrorCategory::HostnameMismatch,
        ErrorCategory::UnableLocalIssuer,
        ErrorCategory::SelfSigned,
        ErrorCategory::SelfSignedInChain,
        ErrorCategory::Expired,
        ErrorCategory::NotYetValid,
        ErrorCategory::Other,
        ErrorCategory::UnsupportedProtocol,
        ErrorCategory::TimedOut,
        ErrorCategory::ConnectionRefused,
        ErrorCategory::ConnectionReset,
        ErrorCategory::WrongVersionNumber,
        ErrorCategory::AlertInternalError,
        ErrorCategory::AlertHandshakeFailure,
        ErrorCategory::AlertProtocolVersion,
    ];

    /// Table 2 groups protocol-level failures under "Exceptions".
    pub fn is_exception(self) -> bool {
        matches!(
            self,
            ErrorCategory::UnsupportedProtocol
                | ErrorCategory::TimedOut
                | ErrorCategory::ConnectionRefused
                | ErrorCategory::ConnectionReset
                | ErrorCategory::WrongVersionNumber
                | ErrorCategory::AlertInternalError
                | ErrorCategory::AlertHandshakeFailure
                | ErrorCategory::AlertProtocolVersion
        )
    }

    /// The row label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCategory::HostnameMismatch => "Hostname Mismatch",
            ErrorCategory::UnableLocalIssuer => "Unable to get local issuer cert",
            ErrorCategory::SelfSigned => "Self-signed certificate",
            ErrorCategory::SelfSignedInChain => "Self-signed certificate in chain",
            ErrorCategory::Expired => "Certificate Expired",
            ErrorCategory::NotYetValid => "Certificate Not Yet Valid",
            ErrorCategory::Other => "Others",
            ErrorCategory::UnsupportedProtocol => "Unsupported SSL Protocol",
            ErrorCategory::TimedOut => "Timed out",
            ErrorCategory::ConnectionRefused => "Connection refused",
            ErrorCategory::ConnectionReset => "Connection Reset by peer",
            ErrorCategory::WrongVersionNumber => "Wrong SSL Version Number",
            ErrorCategory::AlertInternalError => "TLSv1 Alert Internal Error",
            ErrorCategory::AlertHandshakeFailure => "SSLv3 Alert Handshake Failure",
            ErrorCategory::AlertProtocolVersion => "TLSv1 Alert Internal Proto. V.",
        }
    }

    /// Map a TLS handshake failure.
    pub fn from_tls_error(e: TlsError) -> ErrorCategory {
        match e {
            TlsError::UnsupportedProtocol | TlsError::NoSharedCipher => {
                ErrorCategory::UnsupportedProtocol
            }
            TlsError::WrongVersionNumber => ErrorCategory::WrongVersionNumber,
            TlsError::AlertInternalError => ErrorCategory::AlertInternalError,
            TlsError::AlertHandshakeFailure => ErrorCategory::AlertHandshakeFailure,
            TlsError::AlertProtocolVersion => ErrorCategory::AlertProtocolVersion,
            TlsError::TimedOut => ErrorCategory::TimedOut,
            TlsError::ConnectionReset => ErrorCategory::ConnectionReset,
            TlsError::ConnectionRefused => ErrorCategory::ConnectionRefused,
        }
    }

    /// Map a certificate validation failure.
    pub fn from_cert_error(e: CertError) -> ErrorCategory {
        match e {
            CertError::HostnameMismatch => ErrorCategory::HostnameMismatch,
            CertError::UnableToGetLocalIssuer => ErrorCategory::UnableLocalIssuer,
            CertError::SelfSignedLeaf => ErrorCategory::SelfSigned,
            CertError::SelfSignedInChain => ErrorCategory::SelfSignedInChain,
            CertError::Expired => ErrorCategory::Expired,
            CertError::NotYetValid => ErrorCategory::NotYetValid,
            CertError::EmptyChain
            | CertError::BadSignature
            | CertError::NotACa
            | CertError::PathLenExceeded => ErrorCategory::Other,
        }
    }
}

impl std::fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Certificate metadata extracted from a retrieved leaf, feeding the
/// issuer (Fig 2/8/11), key/algorithm (Fig 4/9/12), duration (Fig 3/10),
/// reuse (§5.3.3) and EV analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertMeta {
    /// Issuer common name.
    pub issuer: String,
    /// Leaf public-key algorithm and size.
    pub key_algorithm: KeyAlgorithm,
    /// Signature algorithm on the leaf.
    pub signature_algorithm: SignatureAlgorithm,
    /// Validity window start.
    pub not_before: Time,
    /// Validity window end.
    pub not_after: Time,
    /// Serial number, hex.
    pub serial: String,
    /// SHA-256 fingerprint of the leaf.
    pub fingerprint: Fingerprint,
    /// SHA-256 fingerprint of the leaf public key (reuse analysis).
    pub key_fingerprint: Fingerprint,
    /// Does any SAN entry carry a wildcard?
    pub wildcard: bool,
    /// Does the certificate assert a recognised EV policy OID?
    pub is_ev: bool,
    /// Is the leaf self-issued?
    pub self_issued: bool,
    /// Number of certificates the server presented.
    pub chain_len: usize,
}

impl CertMeta {
    /// Extract from a peer chain (leaf first).
    pub fn from_chain(chain: &[Certificate], ev: &EvRegistry) -> Option<CertMeta> {
        let leaf = chain.first()?;
        let tbs = leaf.tbs();
        Some(CertMeta {
            issuer: leaf.issuer_label(),
            key_algorithm: tbs.public_key.algorithm,
            signature_algorithm: leaf.signature().algorithm,
            not_before: tbs.validity.not_before,
            not_after: tbs.validity.not_after,
            serial: leaf.serial_hex(),
            fingerprint: leaf.fingerprint(),
            key_fingerprint: tbs.public_key.fingerprint(),
            wildcard: leaf.has_wildcard(),
            is_ev: ev.is_ev(leaf),
            self_issued: leaf.is_self_issued(),
            chain_len: chain.len(),
        })
    }

    /// Total validity duration in days (§5.3.1 / Figure 3).
    pub fn validity_days(&self) -> i64 {
        self.not_after.days_since(self.not_before)
    }
}

/// A host's https verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpsStatus {
    /// No https service at all (port closed).
    None,
    /// Valid certificate chain.
    Valid(CertMeta),
    /// Invalid: the category, plus the certificate metadata when a chain
    /// was retrieved before validation failed.
    Invalid(ErrorCategory, Option<CertMeta>),
}

impl HttpsStatus {
    /// Does the host attempt https (valid or invalid)?
    pub fn attempts(&self) -> bool {
        !matches!(self, HttpsStatus::None)
    }

    /// Is the configuration valid?
    pub fn is_valid(&self) -> bool {
        matches!(self, HttpsStatus::Valid(_))
    }

    /// Certificate metadata, when a chain was retrieved.
    pub fn meta(&self) -> Option<&CertMeta> {
        match self {
            HttpsStatus::Valid(m) => Some(m),
            HttpsStatus::Invalid(_, m) => m.as_ref(),
            HttpsStatus::None => None,
        }
    }

    /// The error category, for invalid hosts.
    pub fn error(&self) -> Option<ErrorCategory> {
        match self {
            HttpsStatus::Invalid(e, _) => Some(*e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exception_grouping_matches_table2() {
        assert!(!ErrorCategory::HostnameMismatch.is_exception());
        assert!(!ErrorCategory::Expired.is_exception());
        assert!(ErrorCategory::UnsupportedProtocol.is_exception());
        assert!(ErrorCategory::TimedOut.is_exception());
        assert!(ErrorCategory::WrongVersionNumber.is_exception());
        let exceptions = ErrorCategory::ALL
            .iter()
            .filter(|c| c.is_exception())
            .count();
        assert_eq!(exceptions, 8);
    }

    #[test]
    fn tls_error_mapping() {
        assert_eq!(
            ErrorCategory::from_tls_error(TlsError::UnsupportedProtocol),
            ErrorCategory::UnsupportedProtocol
        );
        assert_eq!(
            ErrorCategory::from_tls_error(TlsError::TimedOut),
            ErrorCategory::TimedOut
        );
        assert_eq!(
            ErrorCategory::from_tls_error(TlsError::AlertProtocolVersion),
            ErrorCategory::AlertProtocolVersion
        );
    }

    #[test]
    fn cert_error_mapping() {
        assert_eq!(
            ErrorCategory::from_cert_error(CertError::HostnameMismatch),
            ErrorCategory::HostnameMismatch
        );
        assert_eq!(
            ErrorCategory::from_cert_error(CertError::BadSignature),
            ErrorCategory::Other
        );
        assert_eq!(
            ErrorCategory::from_cert_error(CertError::SelfSignedInChain),
            ErrorCategory::SelfSignedInChain
        );
    }

    #[test]
    fn https_status_helpers() {
        assert!(!HttpsStatus::None.attempts());
        let inv = HttpsStatus::Invalid(ErrorCategory::Expired, None);
        assert!(inv.attempts());
        assert!(!inv.is_valid());
        assert_eq!(inv.error(), Some(ErrorCategory::Expired));
        assert!(inv.meta().is_none());
    }
}
