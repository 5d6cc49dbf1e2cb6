//! `GOVDLT1` delta snapshots: one epoch's changes against a base
//! archive, plus chain resolution back to a full [`Snapshot`].
//!
//! A year of weekly scans over a slowly-evolving world is mostly
//! repetition — a steady-state epoch changes a few percent of hosts.
//! Archiving 52 full `GOVSNAP1` files stores the unchanged 95+% fifty-two
//! times; a delta stores it never:
//!
//! ```text
//! header    (24 bytes)  magic "GOVDLT1\0" · version u32 · reserved u32 ·
//!                       section-table offset u64
//! meta      (65 bytes)  base archive SHA-256 · scan time ·
//!                       new-archive host count · patch count · removed count
//! removed               length-prefixed hostnames dropped from the base,
//!                       in base archive order
//! positions             u32 × patch count: each patch record's index in
//!                       the NEW archive, strictly ascending
//! patch                 a complete embedded GOVSNAP1 archive holding the
//!                       changed + added records (own pools, own checksums)
//! table                 per section: id · offset · length · FNV-1a64
//! ```
//!
//! The design leans on existing machinery instead of inventing new:
//!
//! * **The shared container** — header, section table, payload
//!   checksums and the string-list codec come from the crate-private
//!   `container` module, the same code `GOVSNAP1` runs, under the
//!   delta's own magic, version and section ids.
//! * **Canonical encoding** — the same dataset always encodes to the
//!   same bytes, so [`Snapshot::digest`] identifies an *epoch*, not a
//!   file. A delta names its base by digest and [`Delta::apply`] refuses
//!   anything else; a resolved chain's digest can be compared directly
//!   against a full rescan's archive (the monitor's `--self-check` does
//!   exactly that).
//! * **The patch is itself a snapshot** — changed records ride in an
//!   embedded `GOVSNAP1`, so the delta reuses the host-record codec,
//!   interning, and per-section checksums wholesale rather than
//!   duplicating a second record format.
//!
//! Application is a positional merge: walk the new archive's indices,
//! taking patch records at their stored positions and carried-forward
//! base records (minus removed and superseded ones) in base order
//! everywhere else. That requires unchanged records to keep their
//! relative order between epochs — true for the monitor's evolution
//! model, and checked at encode time ([`StoreError::Unrepresentable`]
//! otherwise). A chain resolves through [`Snapshot::resolve_chain`],
//! which hands each link's merged records straight to the next link
//! instead of decoding the archive it just encoded.

use std::collections::HashSet;
use std::io::Cursor;
use std::path::Path;

use govscan_crypto::Fingerprint;
use govscan_pki::Time;
use govscan_scanner::ScanDataset;

use crate::container::{
    assemble, decode_strings, decode_time, encode_strings, encode_time, Frame, Section, SectionKind,
};
use crate::error::{Result, StoreError};
use crate::lazy::Snapshot;
use crate::snapshot::{assemble_dataset, SnapshotWriter};
use crate::wire::{Decoder, Encoder};

/// File magic: the first eight bytes of every govscan delta.
pub const DELTA_MAGIC: [u8; 8] = *b"GOVDLT1\0";

/// Current delta format version.
pub const DELTA_VERSION: u32 = 1;

/// Meta payload size: digest + time flag/value + three counts.
const META_LEN: u64 = 32 + 1 + 8 + 8 + 8 + 8;

/// Delta section identifiers (a separate id space from `GOVSNAP1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
enum DeltaSectionId {
    Meta = 1,
    Removed = 2,
    Positions = 3,
    Patch = 4,
}

impl SectionKind for DeltaSectionId {
    const NAMES: &'static [&'static str] = &["delta meta", "removed", "positions", "patch"];

    fn id(self) -> u32 {
        self as u32
    }
}

/// A parsed (but not yet applied) delta file.
///
/// Construction ([`Delta::from_bytes`] / [`Delta::open`]) validates the
/// header, section table, and meta section — the same cheap-open
/// contract as [`Snapshot`]; the removed/positions/patch payloads are
/// checksum-verified when [`Delta::apply`] or [`Snapshot::resolve_chain`]
/// touches them.
pub struct Delta {
    bytes: Vec<u8>,
    frame: Frame,
    base_digest: Fingerprint,
    scan_time: Option<Time>,
    new_host_count: u64,
    patch_count: u64,
    removed_count: u64,
}

impl Delta {
    // --- Construction (read side).

    /// Parse `bytes` as a delta, validating header, table, and meta.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Delta> {
        let frame = Frame::parse::<DeltaSectionId>(&bytes, &DELTA_MAGIC, DELTA_VERSION)?;
        let meta_payload = frame.verified(&bytes, DeltaSectionId::Meta)?;
        if meta_payload.len() as u64 != META_LEN {
            return Err(StoreError::Corrupt {
                context: "delta meta",
                detail: format!("{} bytes, expected {META_LEN}", meta_payload.len()),
            });
        }
        let mut meta = Decoder::new(meta_payload, "delta meta");
        let base_digest = Fingerprint::from_digest(meta.bytes(32)?);
        let scan_time = decode_time(&mut meta)?;
        let new_host_count = meta.u64()?;
        let patch_count = meta.u64()?;
        let removed_count = meta.u64()?;
        meta.finish()?;
        // Cross-validate the fixed-width positions section.
        frame.check_width(DeltaSectionId::Positions, patch_count, 4)?;
        Ok(Delta {
            bytes,
            frame,
            base_digest,
            scan_time,
            new_host_count,
            patch_count,
            removed_count,
        })
    }

    /// Read and parse a delta file.
    pub fn open(path: impl AsRef<Path>) -> Result<Delta> {
        Delta::from_bytes(std::fs::read(path)?)
    }

    // --- Construction (write side).

    /// Encode the delta that carries `base` forward to `new`: decode
    /// `base` and call [`Delta::encode_from`].
    pub fn encode(base: &Snapshot, new: &ScanDataset) -> Result<Vec<u8>> {
        Delta::encode_from(base.digest(), &base.dataset()?, new)
    }

    /// Encode the delta that carries `base` forward to `new`, where
    /// `base` is the dataset in hand and `base_digest` the digest of its
    /// archive. Canonical encoding round-trips losslessly, so this is
    /// byte-equal to [`Delta::encode`] of that archive without decoding
    /// it.
    ///
    /// Records are matched by hostname: records absent from `new` are
    /// recorded as removed; records that are new or compare unequal
    /// ([`govscan_scanner::ScanRecord`] equality) go into the embedded
    /// patch archive with their position in `new`; everything else is
    /// carried implicitly. Unchanged records must keep their relative
    /// base order in `new` — the positional merge cannot express a
    /// reordering ([`StoreError::Unrepresentable`]).
    pub fn encode_from(
        base_digest: Fingerprint,
        base: &ScanDataset,
        new: &ScanDataset,
    ) -> Result<Vec<u8>> {
        let base_records = base.records();
        let new_records = new.records();
        let new_names: HashSet<&str> = new_records.iter().map(|r| r.hostname.as_str()).collect();

        let removed: Vec<&str> = base_records
            .iter()
            .filter(|r| !new_names.contains(r.hostname.as_str()))
            .map(|r| r.hostname.as_str())
            .collect();

        let mut positions: Vec<u32> = Vec::new();
        let mut patch = SnapshotWriter::new(Cursor::new(Vec::new()), new.scan_time)?;
        let mut last_carried: Option<usize> = None;
        for (pos, r) in new_records.iter().enumerate() {
            match base.position(&r.hostname) {
                Some(idx) if base_records[idx] == *r => {
                    if last_carried.is_some_and(|last| idx < last) {
                        return Err(StoreError::Unrepresentable {
                            field: "unchanged-record order",
                        });
                    }
                    last_carried = Some(idx);
                }
                _ => {
                    let pos = u32::try_from(pos).map_err(|_| StoreError::Unrepresentable {
                        field: "patch position",
                    })?;
                    positions.push(pos);
                    patch.add(r)?;
                }
            }
        }
        let patch_bytes = patch.finish()?.into_inner();

        let mut meta = Encoder::new();
        meta.bytes(base_digest.as_bytes());
        encode_time(&mut meta, new.scan_time);
        meta.u64(new_records.len() as u64);
        meta.u64(positions.len() as u64);
        meta.u64(removed.len() as u64);

        let mut removed_enc = Encoder::new();
        encode_strings(&mut removed_enc, removed.iter().copied());
        let mut positions_enc = Encoder::new();
        for p in &positions {
            positions_enc.u32(*p);
        }

        Ok(assemble(
            &DELTA_MAGIC,
            DELTA_VERSION,
            &[
                (DeltaSectionId::Meta, meta.as_bytes()),
                (DeltaSectionId::Removed, removed_enc.as_bytes()),
                (DeltaSectionId::Positions, positions_enc.as_bytes()),
                (DeltaSectionId::Patch, &patch_bytes),
            ],
        ))
    }

    /// Write the delta from `base` to `new` at `path`; returns its size.
    pub fn write_file(path: impl AsRef<Path>, base: &Snapshot, new: &ScanDataset) -> Result<u64> {
        let bytes = Delta::encode(base, new)?;
        std::fs::write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    // --- Header-level accessors.

    /// Format version of the file.
    pub fn version(&self) -> u32 {
        self.frame.version
    }

    /// Digest of the exact base archive this delta applies to.
    pub fn base_digest(&self) -> Fingerprint {
        self.base_digest
    }

    /// Scan time of the epoch this delta produces.
    pub fn scan_time(&self) -> Option<Time> {
        self.scan_time
    }

    /// Host count of the archive this delta resolves to.
    pub fn new_host_count(&self) -> u64 {
        self.new_host_count
    }

    /// Changed + added records carried in the patch.
    pub fn patch_count(&self) -> u64 {
        self.patch_count
    }

    /// Base records dropped by this delta.
    pub fn removed_count(&self) -> u64 {
        self.removed_count
    }

    /// The validated section table.
    pub fn sections(&self) -> &[Section] {
        &self.frame.sections
    }

    /// Total delta size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    // --- Application.

    /// Resolve this delta against `base` into the full next-epoch
    /// [`Snapshot`].
    ///
    /// `base` must be the exact archive the delta was encoded against
    /// (by content digest); anything else is a dangling chain and fails
    /// with [`StoreError::Corrupt`] naming both digests. The result is
    /// re-encoded canonically, so its digest equals the digest of a full
    /// archive of the same epoch. A chain of deltas resolves through
    /// [`Snapshot::resolve_chain`], which decodes no intermediate epoch.
    pub fn apply(&self, base: &Snapshot) -> Result<Snapshot> {
        self.check_base(base.digest())?;
        Ok(self.merge(|| base.dataset())?.1)
    }

    /// Fail unless this delta was encoded against the archive whose
    /// digest is `digest`.
    fn check_base(&self, digest: Fingerprint) -> Result<()> {
        if digest != self.base_digest {
            return Err(StoreError::Corrupt {
                context: "delta base",
                detail: format!(
                    "delta applies to base {} but was given {}",
                    self.base_digest, // Display prints full hex
                    digest
                ),
            });
        }
        Ok(())
    }

    /// The positional merge behind [`Delta::apply`] and
    /// [`Snapshot::resolve_chain`]: decode this delta's sections, then
    /// take the base records from `base` (called only once every section
    /// has decoded, so a corrupt delta fails before its base is touched)
    /// and merge, moving each record rather than cloning it. Returns the
    /// next epoch's records and its canonical archive.
    fn merge(&self, base: impl FnOnce() -> Result<ScanDataset>) -> Result<(ScanDataset, Snapshot)> {
        let removed = self.removed()?;
        let positions = self.positions()?;
        let patch = self.patch()?.dataset()?;
        if patch.len() as u64 != self.patch_count {
            return Err(StoreError::Corrupt {
                context: "patch",
                detail: format!(
                    "embedded archive holds {} records, meta promises {}",
                    patch.len(),
                    self.patch_count
                ),
            });
        }

        let base = base()?;
        // Base records dropped by the merge: the removed ones and the
        // ones a patch record supersedes.
        let mut skip = vec![false; base.len()];
        for name in &removed {
            let Some(i) = base.position(name) else {
                return Err(StoreError::Corrupt {
                    context: "removed",
                    detail: format!("removed host {name} is not in the base archive"),
                });
            };
            skip[i] = true;
        }
        for r in patch.records() {
            if let Some(i) = base.position(&r.hostname) {
                skip[i] = true;
            }
        }

        // The count is read from the file: reserve no more than the base
        // and patch records the merge can take.
        let mut records =
            Vec::with_capacity(self.new_host_count.min((base.len() + patch.len()) as u64) as usize);
        let mut carried = base
            .into_records()
            .into_iter()
            .zip(skip)
            .filter_map(|(r, skip)| (!skip).then_some(r));
        let mut patched = positions.into_iter().zip(patch.into_records()).peekable();
        for pos in 0..self.new_host_count {
            if patched.peek().is_some_and(|(p, _)| u64::from(*p) == pos) {
                let (_, r) = patched.next().expect("peeked");
                records.push(r);
            } else {
                match carried.next() {
                    Some(r) => records.push(r),
                    None => {
                        return Err(StoreError::Corrupt {
                            context: "delta base",
                            detail: format!(
                                "base records exhausted at position {pos} of {}",
                                self.new_host_count
                            ),
                        })
                    }
                }
            }
        }
        if let Some((p, _)) = patched.next() {
            return Err(StoreError::Corrupt {
                context: "positions",
                detail: format!(
                    "patch position {p} outside the new archive's {} hosts",
                    self.new_host_count
                ),
            });
        }
        if carried.next().is_some() {
            return Err(StoreError::Corrupt {
                context: "delta base",
                detail: "carried base records left over after the merge".to_string(),
            });
        }
        let merged = assemble_dataset(records, self.scan_time);
        let snap = Snapshot::from_bytes(Snapshot::encode(&merged)?)?;
        Ok((merged, snap))
    }

    /// A human-readable dump of the delta structure.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "govscan delta v{}", self.frame.version);
        let _ = writeln!(out, "  size: {} bytes", self.bytes.len());
        let _ = writeln!(out, "  base: {}", self.base_digest);
        let _ = writeln!(out, "  scan time: {:?}", self.scan_time.map(|t| t.0));
        let _ = writeln!(
            out,
            "  resolves to {} hosts ({} patched, {} removed)",
            self.new_host_count, self.patch_count, self.removed_count
        );
        let _ = writeln!(out, "  sections:");
        for s in &self.frame.sections {
            let _ = writeln!(
                out,
                "    {:<10} offset {:>8} len {:>8} fnv1a64 {:016x}",
                s.name, s.offset, s.len, s.checksum
            );
        }
        out
    }

    // --- Section decoders (each verifies its section on first touch).

    /// Decode the removed-hostname list.
    fn removed(&self) -> Result<Vec<String>> {
        let payload = self.frame.verified(&self.bytes, DeltaSectionId::Removed)?;
        decode_strings(payload, self.removed_count, "removed")
    }

    /// Decode the patch positions (verifies the section; must ascend).
    fn positions(&self) -> Result<Vec<u32>> {
        let mut d = Decoder::new(
            self.frame
                .verified(&self.bytes, DeltaSectionId::Positions)?,
            "positions",
        );
        let mut out = Vec::with_capacity(self.patch_count as usize);
        for _ in 0..self.patch_count {
            let p = d.u32()?;
            if out.last().is_some_and(|&last| p <= last) {
                return d.corrupt(format!("position {p} not strictly ascending"));
            }
            out.push(p);
        }
        d.finish()?;
        Ok(out)
    }

    /// Open the embedded patch archive (verifies the section).
    fn patch(&self) -> Result<Snapshot> {
        Snapshot::from_bytes(
            self.frame
                .verified(&self.bytes, DeltaSectionId::Patch)?
                .to_vec(),
        )
    }
}

impl Snapshot {
    /// Resolve a delta chain: open `base`, then resolve each delta in
    /// order through [`Snapshot::resolve_chain`] and return the last
    /// epoch. Every link is digest-checked, so a reordered, skipped, or
    /// wrong-family delta fails with a typed [`StoreError`] instead of
    /// resolving to a silently wrong epoch.
    pub fn open_chain<P: AsRef<Path>>(
        base: impl AsRef<Path>,
        deltas: impl IntoIterator<Item = P>,
    ) -> Result<Snapshot> {
        let base = Snapshot::open(base)?;
        let mut last = None;
        for snap in Snapshot::resolve_chain(&base, deltas) {
            last = Some(snap?);
        }
        Ok(last.unwrap_or(base))
    }

    /// Walk a delta chain link by link: open each delta file in order,
    /// resolve it against the epoch before it, and yield that epoch's
    /// [`Snapshot`]. The walk stops after the first error, which it
    /// yields in place of its epoch.
    ///
    /// Every check of [`Delta::apply`] runs on every link: the base
    /// digest, each section's checksum, ascending positions, the meta
    /// counts and the merge's leftovers. Unlike applying the deltas one
    /// by one, the walk decodes only `base`, at the first link, and
    /// carries each link's merged records forward to the next, so no
    /// intermediate archive is decoded.
    pub fn resolve_chain<'a, P: AsRef<Path>, I>(
        base: &'a Snapshot,
        deltas: I,
    ) -> impl Iterator<Item = Result<Snapshot>> + 'a
    where
        I: IntoIterator<Item = P>,
        I::IntoIter: 'a,
    {
        let mut deltas = deltas.into_iter();
        // The digest the next link must name as its base; `None` once
        // the walk has stopped.
        let mut digest = Some(base.digest());
        // The last resolved epoch's records; `None` until the first
        // link decodes `base`.
        let mut carried: Option<ScanDataset> = None;
        std::iter::from_fn(move || {
            let want = digest.take()?;
            let path = deltas.next()?;
            let link = Delta::open(path).and_then(|delta| {
                delta.check_base(want)?;
                delta.merge(|| match carried.take() {
                    Some(records) => Ok(records),
                    None => base.dataset(),
                })
            });
            Some(link.map(|(records, snap)| {
                digest = Some(snap.digest());
                carried = Some(records);
                snap
            }))
        })
    }
}
