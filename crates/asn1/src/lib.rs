//! # govscan-asn1
//!
//! A small, strict DER (Distinguished Encoding Rules) reader and writer —
//! the wire format underneath every X.509 certificate this workspace
//! issues, parses, and validates.
//!
//! Supported universal types: BOOLEAN, INTEGER, BIT STRING, OCTET STRING,
//! NULL, OBJECT IDENTIFIER, UTF8String, PrintableString, IA5String,
//! UTCTime, GeneralizedTime, SEQUENCE, SET, plus context-specific tags
//! (`[n]`, constructed and primitive) as used by X.509 v3.
//!
//! Design notes:
//!
//! - **Definite lengths only** (DER forbids indefinite lengths).
//! - The reader is zero-copy: it hands out sub-slices of the input buffer,
//!   and [`DerReader::finish`] lets a decoder require that a SEQUENCE or
//!   SET ends exactly where its last field does.
//! - The writer keeps one buffer: a constructed element writes its content
//!   in place after a length placeholder and backpatches the length when
//!   it closes, and OIDs and times are written in place, so encoding a
//!   whole structure allocates only that buffer.
//! - Encoding is canonical: minimal length octets, minimal integer
//!   encodings, and UTCTime for years 1950–2049 / GeneralizedTime outside
//!   that window, per RFC 5280 §4.1.2.5.
//!
//! ```
//! use govscan_asn1::{DerWriter, DerReader, Oid};
//!
//! let mut w = DerWriter::new();
//! w.sequence(|w| {
//!     w.integer_i64(42);
//!     w.oid(&Oid::parse("1.2.840.113549.1.1.11").unwrap());
//!     w.utf8("hello");
//! });
//! let der = w.finish();
//!
//! let mut r = DerReader::new(&der);
//! let mut seq = r.sequence().unwrap();
//! assert_eq!(seq.integer_i64().unwrap(), 42);
//! assert_eq!(seq.oid().unwrap().to_string(), "1.2.840.113549.1.1.11");
//! assert_eq!(seq.utf8().unwrap(), "hello");
//! assert!(seq.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod oid;
mod reader;
mod tag;
mod time;
mod writer;

pub use error::{Asn1Error, Result};
pub use oid::Oid;
pub use reader::DerReader;
pub use tag::Tag;
pub use time::Time;
pub use writer::DerWriter;
