//! SHA-224 and SHA-256 (FIPS 180-4 §6.2–6.3).
//!
//! Runs of whole blocks go through the x86 SHA extensions when the CPU
//! has them ([`kernel`] names the choice). The portable `compress`
//! below is the only path on other CPUs and the reference the
//! extension kernel is tested against.

use crate::digest::{BlockBuffer, Digest};

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The SHA-256 compression kernel this process runs: `"sha-ni"` when
/// the CPU has the x86 SHA extensions (with SSSE3 and SSE4.1),
/// otherwise `"portable"`. It is detected at run time, not configured.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::sha256_ni::available() {
        return "sha-ni";
    }
    "portable"
}

/// Compress a run of whole 64-byte blocks into `state`.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::sha256_ni::try_compress_blocks(state, blocks) {
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress(state, block);
    }
}

/// The portable compression function: one 64-byte block.
fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

macro_rules! sha2_32 {
    ($name:ident, $doc:literal, $out:expr, $iv:expr) => {
        #[doc = $doc]
        #[derive(Clone)]
        pub struct $name {
            state: [u32; 8],
            buf: BlockBuffer<64>,
        }

        impl Default for $name {
            fn default() -> Self {
                $name {
                    state: $iv,
                    buf: BlockBuffer::default(),
                }
            }
        }

        impl Digest for $name {
            const OUT: usize = $out;
            const BLOCK: usize = 64;
            type Output = [u8; $out];

            fn update(&mut self, data: &[u8]) {
                self.buf
                    .update(data, |blocks| compress_blocks(&mut self.state, blocks));
            }

            fn finalize_fixed(mut self) -> [u8; $out] {
                let length = (self.buf.bit_len() as u64).to_be_bytes();
                self.buf
                    .finish(&length, |blocks| compress_blocks(&mut self.state, blocks));
                let mut full = [0; 32];
                for (bytes, w) in full.chunks_exact_mut(4).zip(self.state) {
                    bytes.copy_from_slice(&w.to_be_bytes());
                }
                full[..$out].try_into().expect("a prefix of the state")
            }
        }
    };
}

sha2_32!(
    Sha256,
    "Streaming SHA-256 hasher.",
    32,
    [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19
    ]
);

sha2_32!(
    Sha224,
    "Streaming SHA-224 hasher (truncated SHA-256 with distinct IV).",
    28,
    [
        0xc1059ed8, 0x367cd507, 0x3070dd17, 0xf70e5939, 0xffc00b31, 0x68581511, 0x64f98fa7,
        0xbefa4fa4
    ]
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn fips_vectors_sha256() {
        assert_eq!(
            hex::encode(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex::encode(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex::encode(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vectors_sha224() {
        assert_eq!(
            hex::encode(&Sha224::digest(b"abc")),
            "23097d223405d8228642a477bda255b32aadbce4bda0b3f7e36c9da7"
        );
        assert_eq!(
            hex::encode(&Sha224::digest(b"")),
            "d14a028c2a3a2bc9476102bb288234c415a2b01f828ea62ac5b3e42f"
        );
    }

    #[test]
    fn million_a_sha256() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 10_000];
        for _ in 0..100 {
            h.update(&chunk);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(513).collect();
        for split in [0usize, 1, 64, 128, 129, 513] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    /// `len` seeded pseudo-random bytes (SplitMix64).
    fn pseudo_random(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// The SHA extension kernel and the portable `compress` reach the
    /// same state from the same state, on runs of 1 block up to 4 MiB.
    #[test]
    fn extension_kernel_matches_portable_compress() {
        #[cfg(target_arch = "x86_64")]
        {
            if !crate::sha256_ni::available() {
                eprintln!("note: this CPU lacks the SHA extensions; kernel comparison skipped");
                return;
            }
            for (seed, blocks) in [
                (1u64, 1usize),
                (2, 2),
                (3, 3),
                (4, 17),
                (5, 256),
                (6, 65_536),
            ] {
                let data = pseudo_random(seed, blocks * 64);
                let start_bytes = pseudo_random(!seed, 32);
                let mut start = [0u32; 8];
                for (word, bytes) in start.iter_mut().zip(start_bytes.chunks_exact(4)) {
                    *word = u32::from_le_bytes(bytes.try_into().unwrap());
                }
                let mut portable = start;
                for block in data.chunks_exact(64) {
                    compress(&mut portable, block);
                }
                let mut kernel = start;
                assert!(crate::sha256_ni::try_compress_blocks(&mut kernel, &data));
                assert_eq!(kernel, portable, "seed={seed} blocks={blocks}");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("note: not an x86_64 CPU; kernel comparison skipped");
    }
}
