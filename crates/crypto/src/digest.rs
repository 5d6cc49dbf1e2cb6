//! The streaming [`Digest`] trait shared by every hash in this crate, and
//! the one fixed-size block buffer behind all of them.

/// A streaming cryptographic hash function.
///
/// All digests in this crate follow the usual init / update / finalize
/// lifecycle. `OUT` is the output length in bytes.
///
/// ```
/// use govscan_crypto::{Digest, Sha256};
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let d = h.finalize();
/// assert_eq!(d, Sha256::digest(b"hello world"));
/// ```
pub trait Digest: Default {
    /// Output length in bytes.
    const OUT: usize;
    /// Internal block length in bytes (used by HMAC).
    const BLOCK: usize;
    /// The digest as a fixed-size array, `[u8; OUT]`.
    type Output: AsRef<[u8]>;

    /// Create a fresh hasher in its initial state.
    fn new() -> Self {
        Self::default()
    }

    /// Absorb `data` into the hash state.
    fn update(&mut self, data: &[u8]);

    /// Consume the hasher and produce the digest as a fixed-size array:
    /// no allocation, for digests whose bytes are hashed on, compared or
    /// truncated rather than kept.
    fn finalize_fixed(self) -> Self::Output;

    /// Consume the hasher and produce the digest.
    ///
    /// Returned as a `Vec<u8>` of length [`Digest::OUT`] so that the trait
    /// stays object-friendly for callers that select a hash at runtime.
    fn finalize(self) -> Vec<u8>
    where
        Self: Sized,
    {
        self.finalize_fixed().as_ref().to_vec()
    }

    /// One-shot convenience: hash `data` in a single call.
    fn digest(data: &[u8]) -> Vec<u8>
    where
        Self: Sized,
    {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// [`Self::digest`] into a fixed-size array.
    fn digest_fixed(data: &[u8]) -> Self::Output
    where
        Self: Sized,
    {
        let mut h = Self::new();
        h.update(data);
        h.finalize_fixed()
    }
}

/// The Merkle–Damgård front end every hash here shares: at most one
/// partial block of `B` bytes held inline, plus the message length.
///
/// [`update`](Self::update) and [`finish`](Self::finish) hand the
/// compression function whole runs of blocks (a slice whose length is a
/// non-zero multiple of `B`), taken straight from the caller's input
/// wherever the input is block-aligned, so a hasher never allocates.
#[derive(Clone)]
pub(crate) struct BlockBuffer<const B: usize> {
    block: [u8; B],
    /// Bytes of `block` in use; always less than `B` between calls.
    len: usize,
    /// Message bytes absorbed so far, modulo 2^64.
    total: u64,
}

impl<const B: usize> Default for BlockBuffer<B> {
    fn default() -> Self {
        BlockBuffer {
            block: [0; B],
            len: 0,
            total: 0,
        }
    }
}

impl<const B: usize> BlockBuffer<B> {
    /// Absorb `data`, passing every block it completes to `compress`.
    pub(crate) fn update(&mut self, mut data: &[u8], mut compress: impl FnMut(&[u8])) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.len > 0 {
            let take = (B - self.len).min(data.len());
            self.block[self.len..self.len + take].copy_from_slice(&data[..take]);
            self.len += take;
            data = &data[take..];
            if self.len < B {
                return;
            }
            compress(&self.block);
            self.len = 0;
        }
        let whole = data.len() - data.len() % B;
        if whole > 0 {
            compress(&data[..whole]);
        }
        let tail = &data[whole..];
        self.block[..tail.len()].copy_from_slice(tail);
        self.len = tail.len();
    }

    /// The message length in bits, for the length field.
    pub(crate) fn bit_len(&self) -> u128 {
        u128::from(self.total) * 8
    }

    /// Pad the message (`0x80`, zeros, then `length` in the last
    /// `length.len()` bytes of the final block) and pass the one or two
    /// blocks that completes to `compress`.
    pub(crate) fn finish(&mut self, length: &[u8], mut compress: impl FnMut(&[u8])) {
        let field = B - length.len();
        self.block[self.len] = 0x80;
        if self.len + 1 > field {
            self.block[self.len + 1..].fill(0);
            compress(&self.block);
            self.block[..field].fill(0);
        } else {
            self.block[self.len + 1..field].fill(0);
        }
        self.block[field..].copy_from_slice(length);
        compress(&self.block);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the buffer hands its compression function for `data` fed in
    /// pieces of `step` bytes, then padded with a big-endian 8-byte
    /// length: checked block-aligned, then concatenated.
    fn stream(data: &[u8], step: usize) -> Vec<u8> {
        let mut buf = BlockBuffer::<64>::default();
        let mut out = Vec::new();
        let mut absorb = |blocks: &[u8]| {
            assert!(!blocks.is_empty());
            assert_eq!(blocks.len() % 64, 0);
            out.extend_from_slice(blocks);
        };
        for piece in data.chunks(step.max(1)) {
            buf.update(piece, &mut absorb);
        }
        let length = (buf.bit_len() as u64).to_be_bytes();
        buf.finish(&length, &mut absorb);
        out
    }

    /// Textbook padding: `0x80`, zeros to 56 mod 64, the bit length.
    fn padded(data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        out.push(0x80);
        while out.len() % 64 != 56 {
            out.push(0);
        }
        out.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        out
    }

    #[test]
    fn blocks_are_the_padded_message_at_any_step() {
        for n in 0..300usize {
            let data: Vec<u8> = (0..n).map(|i| (i * 7 + 3) as u8).collect();
            for step in [1, 3, 55, 64, 65, 300] {
                assert_eq!(stream(&data, step), padded(&data), "n={n} step={step}");
            }
        }
    }

    /// The 301 messages `data[..n]` for `n` in `0..=300`.
    fn message_bytes() -> Vec<u8> {
        (0..=300usize)
            .map(|i| ((i * 167 + 13) >> 3) as u8)
            .collect()
    }

    /// Checks that `H` gives every message one digest however it is fed
    /// (one shot, byte by byte, or in two pieces split at any point),
    /// and returns the SHA-256 of the one-shot digests of every prefix
    /// `data[..n]`, concatenated in order of `n`. The 300-byte message
    /// is longer than two 128-byte blocks, so a split near its start
    /// also fills the buffered partial block and then hands on whole
    /// blocks from the same `update`, for either block size.
    fn split_invariant<H: Digest>() -> String {
        let data = message_bytes();
        let mut all = Vec::new();
        for n in 0..data.len() {
            let msg = &data[..n];
            let one_shot = H::digest(msg);
            let mut h = H::new();
            for byte in msg {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), one_shot, "byte by byte, n={n}");
            all.extend_from_slice(&one_shot);
        }
        for n in [55usize, 56, 63, 64, 65, 111, 112, 127, 128, 129, 300] {
            let msg = &data[..n];
            let one_shot = H::digest(msg);
            for split in 0..=n {
                let mut h = H::new();
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(h.finalize(), one_shot, "n={n} split={split}");
            }
        }
        crate::hex::encode(&crate::Sha256::digest(&all))
    }

    /// Each hash is split-invariant, and its digests of all 301 prefixes
    /// equal an independent implementation's (Python's `hashlib`, which
    /// computed the pinned values the same way).
    #[test]
    fn every_hash_is_split_invariant_and_matches_a_reference() {
        use crate::{Md5, Sha1, Sha224, Sha256, Sha384, Sha512};
        assert_eq!(
            split_invariant::<Md5>(),
            "88e5936b58b870e7ac960bbfd693ece8ac714aa705067ea17836f299b65d1fe4"
        );
        assert_eq!(
            split_invariant::<Sha1>(),
            "4d3cddc4c0b02361095bd8dc4525254ec0390195400a10519f2b6d97164154b0"
        );
        assert_eq!(
            split_invariant::<Sha224>(),
            "6340820356d89581b2db0645de42c53d5616a67ad25a055fd93f1a327a42f1df"
        );
        assert_eq!(
            split_invariant::<Sha256>(),
            "7962b5c11eee83677883f8620c373e18f468d7e62771c0aaf66c54b0b8c03bd9"
        );
        assert_eq!(
            split_invariant::<Sha384>(),
            "bc8c0ccdafbbb35383e0fffc25be432d6105bcf08945732c14488846d4983065"
        );
        assert_eq!(
            split_invariant::<Sha512>(),
            "53621d61a9c070f18f62e5593e2958f88730d228e736988d5b0d0e0a0072a271"
        );
    }

    #[test]
    fn length_field_is_the_caller_encoding() {
        let mut buf = BlockBuffer::<128>::default();
        buf.update(b"abc", |_| unreachable!("no whole block yet"));
        assert_eq!(buf.bit_len(), 24);
        let mut last = Vec::new();
        buf.finish(&buf.bit_len().to_be_bytes(), |b| last = b.to_vec());
        assert_eq!(last.len(), 128);
        assert_eq!(&last[..4], b"abc\x80");
        assert_eq!(&last[112..], &24u128.to_be_bytes());
    }
}
