//! String interning for the snapshot's string table.
//!
//! Every string a snapshot stores — hostnames, issuer names, serial
//! numbers, CAA values, country codes, hosting provider names — lives in
//! one deduplicated table and is referenced by a `u32` id. Hostnames are
//! unique so interning buys them nothing beyond the uniform reference
//! scheme, but issuers, serials, and country codes repeat tens of
//! thousands of times at the paper's 135,408-host scale.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::{Mutex, OnceLock};

use crate::error::{Result, StoreError};

/// The id of a string in the table.
pub type StringId = u32;

/// Sentinel for "no string" in optional references.
pub const NO_STRING: StringId = u32::MAX;

/// Write-side interner: assigns dense ids in first-seen order, so the
/// table (and with it the whole snapshot) is a deterministic function of
/// the record sequence.
///
/// The table's only copy of its text is the strings section payload
/// itself — each string as a little-endian u32 byte length then its
/// UTF-8, in id order — so [`Self::payload`] is what the archive stores,
/// and the text grows one buffer instead of costing an allocation per
/// string. The lookup index holds no string: it maps a string's hash to
/// its id, and a hit is confirmed against the payload bytes. The rare distinct strings
/// whose hashes collide go to an owned-key fallback map. `S` hashes the
/// strings; anything but the default exists to test that fallback.
#[derive(Debug, Default)]
pub struct StringTable<S = RandomState> {
    /// The strings section payload: the table's only copy of the text.
    payload: Vec<u8>,
    /// Payload offset of each string's length prefix, by id.
    starts: Vec<usize>,
    /// String hash → id of the first string interned with that hash.
    index: HashMap<u64, StringId, BuildHasherDefault<PreHashed>>,
    /// Strings whose hash was already taken by a different string.
    collided: HashMap<String, StringId>,
    hasher: S,
}

/// The identity hasher for [`StringTable::index`], whose keys are
/// already hashes.
#[derive(Debug, Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Unused: the index's `u64` keys hash through `write_u64`.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

impl StringTable {
    /// An empty table.
    pub fn new() -> StringTable {
        StringTable::default()
    }
}

impl<S: BuildHasher> StringTable<S> {
    /// An empty table hashing its strings with `hasher`.
    pub fn with_hasher(hasher: S) -> StringTable<S> {
        StringTable {
            payload: Vec::new(),
            starts: Vec::new(),
            index: HashMap::default(),
            collided: HashMap::new(),
            hasher,
        }
    }

    /// Intern `s`, returning its id. Fails when `s` is longer than a u32
    /// length prefix can say, or when the table already holds every id
    /// below [`NO_STRING`].
    pub fn intern(&mut self, s: &str) -> Result<StringId> {
        let hash = self.hasher.hash_one(s);
        let Some(&id) = self.index.get(&hash) else {
            let id = self.push(s)?;
            self.index.insert(hash, id);
            return Ok(id);
        };
        if self.text(id) == s.as_bytes() {
            return Ok(id);
        }
        if let Some(&id) = self.collided.get(s) {
            return Ok(id);
        }
        let id = self.push(s)?;
        self.collided.insert(s.to_owned(), id);
        Ok(id)
    }

    /// Append `s` to the payload under the next id.
    fn push(&mut self, s: &str) -> Result<StringId> {
        let id = StringId::try_from(self.starts.len())
            .ok()
            .filter(|&id| id != NO_STRING)
            .ok_or(StoreError::Unrepresentable {
                field: "string count",
            })?;
        let len = u32::try_from(s.len()).map_err(|_| StoreError::Unrepresentable {
            field: "string length",
        })?;
        self.starts.push(self.payload.len());
        self.payload.extend_from_slice(&len.to_le_bytes());
        self.payload.extend_from_slice(s.as_bytes());
        Ok(id)
    }

    /// The bytes of string `id`, read back from the payload.
    fn text(&self, id: StringId) -> &[u8] {
        let start = self.starts[id as usize];
        let (prefix, rest) = self.payload[start..].split_at(4);
        let len = u32::from_le_bytes(prefix.try_into().expect("4-byte length prefix"));
        &rest[..len as usize]
    }
}

impl<S> StringTable<S> {
    /// The strings section payload: every interned string, in id order,
    /// as a u32 LE byte length then its UTF-8.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Total text bytes interned (excluding length prefixes and index
    /// overhead) — the table's contribution to a streaming writer's
    /// bounded-memory accounting.
    pub fn text_bytes(&self) -> usize {
        self.payload.len() - 4 * self.starts.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }
}

/// Intern a string into the process-lifetime pool, returning a
/// `&'static str`.
///
/// [`govscan_scanner::ScanRecord`] carries its country code and hosting
/// provider as `&'static str` (they come from static tables in the
/// generator). A snapshot file outlives any such table, so the reader
/// materialises these through this pool instead. The leak is bounded by
/// the universe of country codes (~250) and provider names (~a dozen):
/// only those two fields go through here, never hostnames or issuers.
pub fn intern_static(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("interner lock never poisoned");
    if let Some(&interned) = pool.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::encode_strings;
    use crate::wire::Encoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The table as it was before it kept the payload: every distinct
    /// string owned twice, flattened into the section at finish. The
    /// reference the payload table must match id for id and byte for
    /// byte.
    #[derive(Default)]
    struct ReferenceTable {
        ids: HashMap<String, StringId>,
        strings: Vec<String>,
    }

    impl ReferenceTable {
        fn intern(&mut self, s: &str) -> StringId {
            if let Some(&id) = self.ids.get(s) {
                return id;
            }
            let id = self.strings.len() as StringId;
            self.ids.insert(s.to_owned(), id);
            self.strings.push(s.to_owned());
            id
        }

        fn payload(&self) -> Vec<u8> {
            let mut e = Encoder::new();
            encode_strings(&mut e, self.strings.iter().map(String::as_str));
            e.into_bytes()
        }

        fn text_bytes(&self) -> usize {
            self.strings.iter().map(String::len).sum()
        }
    }

    /// Hashes every string to the same value, so every string after the
    /// first goes through the collision fallback.
    struct Constant;

    impl BuildHasher for Constant {
        type Hasher = Constant;

        fn build_hasher(&self) -> Constant {
            Constant
        }
    }

    impl Hasher for Constant {
        fn finish(&self) -> u64 {
            0
        }

        fn write(&mut self, _: &[u8]) {}
    }

    /// A seeded corpus shaped like a snapshot's strings: mostly distinct
    /// hostnames, with issuers, country codes and providers repeating,
    /// plus the empty string and non-ASCII text.
    fn corpus() -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(0x57_81_4E);
        let repeats = [
            "Let's Encrypt",
            "DigiCert Inc",
            "br",
            "cn",
            "",
            "Cloudflare",
            "résumé.gov.fr",
        ];
        (0..5_000)
            .map(|i| {
                if rng.gen::<f64>() < 0.4 {
                    repeats[rng.gen_range(0..repeats.len())].to_string()
                } else {
                    format!(
                        "host{}-{i}.gov.{}",
                        rng.gen::<u32>() % 97,
                        ["br", "cn", "bd"][i % 3]
                    )
                }
            })
            .collect()
    }

    fn assert_matches_reference<S: BuildHasher>(mut table: StringTable<S>) {
        let mut reference = ReferenceTable::default();
        for s in corpus() {
            assert_eq!(
                table.intern(&s).unwrap(),
                reference.intern(&s),
                "id of {s:?}"
            );
        }
        // Every string again, now as a lookup.
        for s in corpus() {
            assert_eq!(
                table.intern(&s).unwrap(),
                reference.intern(&s),
                "re-intern of {s:?}"
            );
        }
        assert_eq!(table.len(), reference.strings.len());
        assert_eq!(table.text_bytes(), reference.text_bytes());
        assert_eq!(table.payload(), &reference.payload()[..]);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut t = StringTable::new();
        assert_eq!(t.intern("a").unwrap(), 0);
        assert_eq!(t.intern("b").unwrap(), 1);
        assert_eq!(t.intern("a").unwrap(), 0, "re-interning is a lookup");
        assert_eq!(t.payload(), b"\x01\0\0\0a\x01\0\0\0b");
        assert_eq!(t.len(), 2);
        assert_eq!(t.text_bytes(), 2);
    }

    #[test]
    fn payload_table_matches_the_reference_table() {
        assert_matches_reference(StringTable::new());
    }

    #[test]
    fn colliding_hashes_fall_back_to_owned_keys() {
        let table = StringTable::with_hasher(Constant);
        assert_matches_reference(table);
        // Every distinct string but the first took the fallback.
        let mut t = StringTable::with_hasher(Constant);
        for s in ["x", "y", "z", "y"] {
            t.intern(s).unwrap();
        }
        assert_eq!(t.index.len(), 1);
        assert_eq!(t.collided.len(), 2);
        assert_eq!(t.intern("z").unwrap(), 2);
    }

    #[test]
    fn static_interner_dedupes() {
        let a = intern_static("zz-test-country");
        let b = intern_static("zz-test-country");
        assert!(std::ptr::eq(a, b), "same leaked allocation");
        assert_eq!(a, "zz-test-country");
    }
}
