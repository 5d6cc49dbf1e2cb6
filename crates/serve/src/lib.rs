//! govscan-serve: a query daemon over snapshot archives.
//!
//! The paper's artifacts — Table 2, the Figure 1 choropleth, per-host
//! scan facts, longitudinal diffs — are all derivable from `GOVSNAP1`
//! archives, but re-decoding an archive per question makes interactive
//! exploration miserable. This crate keeps archives resident behind the
//! store's lazy [`govscan_store::Snapshot`] facade and answers over
//! HTTP:
//!
//! | route | answer |
//! |---|---|
//! | `GET /snapshots` | loaded archives: digests, counts, section tables |
//! | `GET /hosts/{name}` | one host's full scan record (lazy point query) |
//! | `GET /table2` | the paper's Table 2 slice |
//! | `GET /choropleth` | Figure 1's per-country layers |
//! | `GET /countries/{cc}` | one country's drill-down |
//! | `GET /diff?from=&to=` | everything that moved between two archives |
//! | `GET /trends?chain=` | longitudinal series over a delta-chain's epochs |
//!
//! Layering, bottom up:
//!
//! - [`json`] — a deterministic JSON tree and the crate's single
//!   encoder (plus a parser, used only to validate shapes in tests).
//! - [`http`] — a GET-only HTTP/1.1 layer over `std::net`, one
//!   exchange per connection, and the shared [`http::get`] client.
//! - [`api`] — typed response structs, one per endpoint; handlers
//!   build these and never format strings inline.
//! - [`server`] — archive registry, routing ([`ServeState::respond`]
//!   is a pure function, tested without sockets), a digest-keyed
//!   rendered-report cache, and the scoped threads that each accept
//!   from the one listener.
//!
//! Everything is `std`-only: no async runtime, no serde, no HTTP
//! framework.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod json;
pub mod server;

pub use server::{Archive, BrokenChain, ChainSpec, ServeState, Server};
