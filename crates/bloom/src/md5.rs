//! MD5 message digest (RFC 1321), implemented from scratch.
//!
//! The paper selects MD5 "for its relatively fast implementation. The
//! value of an attribute is hashed into 128 bits by calculating its MD5
//! signature, which is then divided into four 32-bit values" (§5.1).
//! SmartStore uses those 32-bit words to derive Bloom-filter bit indexes;
//! nothing here is security-sensitive.
//!
//! The implementation is streaming: [`Md5State`] compresses full
//! 64-byte blocks as they arrive through a fixed on-stack buffer, so a
//! digest of `key ‖ salt` never materializes the concatenation on the
//! heap — the Bloom probe path calls this with zero allocations.

const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 over a fixed 64-byte block buffer — no heap.
#[derive(Clone)]
pub struct Md5State {
    h: [u32; 4],
    buf: [u8; 64],
    buf_len: usize,
    /// Total message bytes absorbed so far.
    total: u64,
}

impl Default for Md5State {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5State {
    pub fn new() -> Self {
        Self {
            h: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            buf: [0u8; 64],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorbs `data`, compressing each full 64-byte block as it fills.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return; // data exhausted before filling a block
            }
            let block = self.buf;
            compress(&mut self.h, &block);
            self.buf_len = 0;
        }
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            // chunks_exact guarantees 64 bytes; the try_into cannot fail.
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            compress(&mut self.h, &b);
        }
        let rest = chunks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Appends RFC 1321 padding (0x80, zeros, LE bit length) and
    /// returns the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.total.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf_len += 1;
        if self.buf_len > 56 {
            self.buf[self.buf_len..].fill(0);
            let block = self.buf;
            compress(&mut self.h, &block);
            self.buf_len = 0;
        }
        self.buf[self.buf_len..56].fill(0);
        self.buf[56..64].copy_from_slice(&bit_len.to_le_bytes());
        let block = self.buf;
        compress(&mut self.h, &block);
        let mut out = [0u8; 16];
        for (i, w) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        out
    }
}

/// One MD5 compression round over a 64-byte block.
fn compress(h: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (i, w) in m.iter_mut().enumerate() {
        *w = u32::from_le_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    let (mut a, mut b, mut c, mut d) = (h[0], h[1], h[2], h[3]);
    for i in 0..64 {
        let (f, g) = match i / 16 {
            0 => ((b & c) | (!b & d), i),
            1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
            2 => (b ^ c ^ d, (3 * i + 5) % 16),
            _ => (c ^ (b | !d), (7 * i) % 16),
        };
        let tmp = d;
        d = c;
        c = b;
        b = b.wrapping_add(
            a.wrapping_add(f)
                .wrapping_add(K[i])
                .wrapping_add(m[g])
                .rotate_left(S[i]),
        );
        a = tmp;
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
}

/// Computes the 16-byte MD5 digest of `data`.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut st = Md5State::new();
    st.update(data);
    st.finalize()
}

/// The paper's digest split: MD5's 128 bits as four little-endian u32
/// words.
pub fn md5_words(data: &[u8]) -> [u32; 4] {
    words_of(md5(data))
}

/// `md5_words(key ‖ round.to_le_bytes())` without materializing the
/// salted key — the Bloom filters' round-`r` word source for `r > 0`.
pub fn md5_words_salted(key: &[u8], round: u32) -> [u32; 4] {
    let mut st = Md5State::new();
    st.update(key);
    st.update(&round.to_le_bytes());
    words_of(st.finalize())
}

fn words_of(d: [u8; 16]) -> [u32; 4] {
    [
        u32::from_le_bytes([d[0], d[1], d[2], d[3]]),
        u32::from_le_bytes([d[4], d[5], d[6], d[7]]),
        u32::from_le_bytes([d[8], d[9], d[10], d[11]]),
        u32::from_le_bytes([d[12], d[13], d[14], d[15]]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hex string of a digest.
    fn to_hex(digest: &[u8; 16]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(&to_hex(&md5(input.as_bytes())), want, "md5({input:?})");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths straddling the 55/56/64-byte padding boundaries must
        // not panic and must differ from each other.
        let digests: Vec<String> = (53..70).map(|n| to_hex(&md5(&vec![b'x'; n]))).collect();
        for w in digests.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        // Every split point of a 3-block message must give the same
        // digest as the one-shot call.
        let msg: Vec<u8> = (0..180u32).map(|i| (i * 31 % 251) as u8).collect();
        let want = md5(&msg);
        for cut in 0..msg.len() {
            let mut st = Md5State::new();
            st.update(&msg[..cut]);
            st.update(&msg[cut..]);
            assert_eq!(st.finalize(), want, "split at {cut}");
        }
    }

    #[test]
    fn salted_words_match_concatenation() {
        for round in [0u32, 1, 2, 7, 0xdead_beef] {
            let mut concat = b"file_000123".to_vec();
            concat.extend_from_slice(&round.to_le_bytes());
            assert_eq!(
                md5_words_salted(b"file_000123", round),
                md5_words(&concat),
                "round {round}"
            );
        }
    }

    #[test]
    fn words_split_is_consistent() {
        let w = md5_words(b"abc");
        let d = md5(b"abc");
        assert_eq!(w[0].to_le_bytes(), [d[0], d[1], d[2], d[3]]);
        assert_eq!(w[3].to_le_bytes(), [d[12], d[13], d[14], d[15]]);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(md5(b"file_000001"), md5(b"file_000002"));
    }
}
