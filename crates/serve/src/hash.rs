//! SHA-256 and the [`ContentHash`] the artifact cache is addressed by.
//!
//! The cache's whole correctness story rests on the key function: two
//! requests share an artifact **iff** their canonicalized content hashes
//! collide, and an artifact read back from disk is served **iff** it still
//! hashes to what was stored next to it. FNV/xxhash-style mixers are fine
//! for hash maps but collide under adversarial input, and shell-serve feeds
//! this from the network — so the crate carries a small, dependency-free
//! SHA-256 (FIPS 180-4), verified against the NIST test vectors below.

use shell_util::Json;
use std::fmt;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher (FIPS 180-4).
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_bytes: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_bytes = self.total_bytes.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_bytes.wrapping_mul(8);
        // Padding: 0x80, zeros to 56 mod 64, then the 64-bit bit length.
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // The two updates above also bumped total_bytes; the length word was
        // captured before padding, as the spec requires.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
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
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// A SHA-256 digest in lowercase hex — the cache key and the artifact
/// integrity stamp. Constructed only through hashing or validated parsing,
/// so a `ContentHash` is always 64 hex characters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContentHash(String);

impl ContentHash {
    /// Hash of raw bytes.
    pub fn of_bytes(data: &[u8]) -> Self {
        let digest = sha256(data);
        let mut hex = String::with_capacity(64);
        for b in digest {
            hex.push_str(&format!("{b:02x}"));
        }
        ContentHash(hex)
    }

    /// Hash of a JSON value's *compact* rendering. Compact text is the
    /// canonical form: two structurally equal values (same key order —
    /// `Json::Obj` preserves insertion order by design) hash identically
    /// regardless of how they were pretty-printed on disk or on the wire.
    pub fn of_json(json: &Json) -> Self {
        ContentHash::of_bytes(json.to_string_compact().as_bytes())
    }

    /// Parses a stored hex digest, validating shape.
    ///
    /// # Errors
    ///
    /// Rejects anything that is not exactly 64 lowercase hex characters.
    pub fn from_hex(s: &str) -> Result<Self, String> {
        if s.len() == 64 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            Ok(ContentHash(s.to_string()))
        } else {
            Err(format!("not a sha256 hex digest: `{s}`"))
        }
    }

    /// The digest as lowercase hex.
    pub fn as_hex(&self) -> &str {
        &self.0
    }

    /// The two-character shard prefix the cache fans directories out by.
    pub fn shard(&self) -> &str {
        &self.0[..2]
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        ContentHash::of_bytes(data).as_hex().to_string()
    }

    #[test]
    fn nist_test_vectors() {
        // FIPS 180-4 / NIST CAVP reference digests.
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        // The classic one-million-'a' vector exercises multi-block update
        // paths and the length counter.
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        let digest = h.finalize();
        let got: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            got,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let want = sha256(&data);
        for split in [0, 1, 63, 64, 65, 128, 255, 256, 257] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn json_hash_is_render_independent() {
        let v = Json::obj([
            ("b", Json::from(1u64)),
            ("a", Json::arr([Json::from("x"), Json::Null])),
        ]);
        let h1 = ContentHash::of_json(&v);
        let reparsed = Json::parse(&v.to_string_pretty()).unwrap();
        assert_eq!(h1, ContentHash::of_json(&reparsed));
        // ...but key *order* is content: {"a":..,"b":..} is a different doc.
        let reordered = Json::obj([
            ("a", Json::arr([Json::from("x"), Json::Null])),
            ("b", Json::from(1u64)),
        ]);
        assert_ne!(h1, ContentHash::of_json(&reordered));
    }

    #[test]
    fn from_hex_validates() {
        let h = ContentHash::of_bytes(b"abc");
        assert_eq!(ContentHash::from_hex(h.as_hex()).unwrap(), h);
        assert_eq!(h.shard(), &h.as_hex()[..2]);
        assert!(ContentHash::from_hex("abc").is_err());
        assert!(ContentHash::from_hex(&"G".repeat(64)).is_err());
        assert!(
            ContentHash::from_hex(&"A".repeat(64)).is_err(),
            "uppercase rejected"
        );
    }
}
