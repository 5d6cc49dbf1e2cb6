//! # govscan-net
//!
//! The simulated network substrate the measurement pipeline runs against.
//!
//! The paper's scanners performed DNS lookups, TCP connects on ports 80
//! and 443, full TLS handshakes, and HTTP fetches against the live
//! Internet. This crate provides the same operations against an
//! in-process, fully deterministic network:
//!
//! - [`ip`] — IPv4 CIDR blocks and longest-prefix tables (hosting-provider
//!   attribution uses published CIDR lists, §5.4).
//! - [`dns`] — resolution outcomes, NXDOMAIN/timeout behaviours, and the
//!   RFC 8659 relevant-record-set climb for CAA.
//! - [`tcp`] — per-port connect outcomes (accept, refused, timeout,
//!   reset), matching the paper's exception taxonomy.
//! - [`tls`] — protocol-version negotiation (SSLv2 → TLS 1.3), cipher
//!   suites, alerts, and peer certificate-chain delivery; the client side
//!   behaves like the paper's OpenSSL probe.
//! - [`http`] — status codes, `Location` redirects, HSTS headers, and
//!   HTML bodies with real anchor tags for the crawler, rendered when
//!   read.
//! - [`html`] — page rendering and link extraction.
//! - [`simnet`] — the table tying it all together: one entry per name,
//!   holding its host (whose address is the name's A answer), its CAA
//!   records and its resolution behaviour under the host's one copy of
//!   the name. Every scanner operation dials a [`SimNet`] and looks the
//!   name up once.
//!
//! Nothing here opens real sockets: determinism is a feature — the same
//! seed reproduces the same Internet, byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dns;
pub mod html;
pub mod http;
pub mod ip;
pub mod simnet;
pub mod tcp;
pub mod tls;

pub use dns::DnsOutcome;
pub use http::{HttpOutcome, HttpResponse};
pub use ip::{Cidr, CidrTable};
pub use simnet::{HostConfig, SimNet};
pub use tcp::TcpOutcome;
pub use tls::{TlsClientConfig, TlsError, TlsServerConfig, TlsSession, TlsVersion};
