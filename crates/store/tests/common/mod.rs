//! Crafting damaged archives in the container `GOVSNAP1` and `GOVDLT1`
//! share: edit a section, then store its checksum as a writer would.

use govscan_store::wire::Checksum;

/// The little-endian u64 at `at`.
pub fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Overwrite the little-endian u64 at `at`.
pub fn put_u64(bytes: &mut [u8], at: usize, value: u64) {
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

/// Byte offset of section `id`'s table entry: id u32, offset u64,
/// length u64, checksum u64.
pub fn entry(bytes: &[u8], id: u32) -> usize {
    let table = u64_at(bytes, 16) as usize;
    let count = u32::from_le_bytes(bytes[table..table + 4].try_into().expect("4 bytes"));
    (0..count as usize)
        .map(|i| table + 4 + i * 28)
        .find(|&e| bytes[e..e + 4] == id.to_le_bytes())
        .expect("section present")
}

/// Let `edit` rewrite section `id`'s payload, then store its checksum.
pub fn reseal(bytes: &mut [u8], id: u32, edit: impl FnOnce(&mut [u8])) {
    let e = entry(bytes, id);
    let (offset, len) = (
        u64_at(bytes, e + 4) as usize,
        u64_at(bytes, e + 12) as usize,
    );
    edit(&mut bytes[offset..offset + len]);
    let checksum = Checksum::of(&bytes[offset..offset + len]);
    put_u64(bytes, e + 20, checksum);
}

/// A crafted input: its name, the edit that makes it, and the `Debug`
/// prefix of the typed error it must produce.
pub type Case = (&'static str, fn(&mut Vec<u8>), &'static str);
