//! Seeded workload generation.
//!
//! Everything a workload does — which files exist, their sizes and bytes,
//! the order of operations — is a pure function of the command-line seed.
//! The system under test only ever sees the generated files and calls.
//!
//! Seeds move *which* files and *which* order, never the shape: every
//! workload keeps its file-count, byte and operation totals within a few
//! percent across seeds, so run-to-run spread measures the system rather
//! than the generator.

/// SplitMix64: small, fast and good enough to pick sizes and orders.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BA5E_0DDB_A11D)
    }

    /// A generator for one named stream of `seed`, independent of the others.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The bytes of generated file `id` under `seed`: a keyed stream, so a file's
/// content can be regenerated for verification without keeping a copy.
pub fn content(seed: u64, id: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::stream(seed, 0xC0_0000 + id);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A running digest of a byte stream fed in pieces of any size, so a
/// reader can check what it read without keeping it. Equal streams give
/// equal digests however they were cut.
#[derive(Debug, Clone)]
pub struct Digest {
    hash: u64,
    len: u64,
    /// Bytes of an unfinished 8-byte word.
    tail: [u8; 8],
    pending: usize,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xCBF2_9CE4_8422_2325,
            len: 0,
            tail: [0; 8],
            pending: 0,
        }
    }
}

/// FNV-1a over 8-byte words, with a shift that carries high bits down.
fn mix(hash: u64, word: u64) -> u64 {
    let h = (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    h ^ (h >> 32)
}

impl Digest {
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending > 0 {
            let take = (8 - self.pending).min(bytes.len());
            self.tail[self.pending..self.pending + take].copy_from_slice(&bytes[..take]);
            self.pending += take;
            bytes = &bytes[take..];
            if self.pending < 8 {
                return;
            }
            self.hash = mix(self.hash, u64::from_le_bytes(self.tail));
            self.pending = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.hash = mix(
                self.hash,
                u64::from_le_bytes(w.try_into().expect("8 bytes")),
            );
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.pending = rest.len();
    }

    /// Bytes fed so far.
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// The digest and the length of everything fed so far.
    pub fn finish(&self) -> (u64, u64) {
        let mut hash = self.hash;
        if self.pending > 0 {
            let mut last = [0u8; 8];
            last[..self.pending].copy_from_slice(&self.tail[..self.pending]);
            hash = mix(hash, u64::from_le_bytes(last));
        }
        (mix(hash, self.len), self.len)
    }
}

/// The digest of `bytes` in one piece.
pub fn digest(bytes: &[u8]) -> (u64, u64) {
    let mut d = Digest::default();
    d.update(bytes);
    d.finish()
}

/// Splits `total` bytes into `parts` sizes, each within ±`jitter_pct`% of
/// the mean and summing to exactly `total`: pairs of files get opposite
/// offsets, so the seed moves individual sizes but never the class total.
pub fn split_sizes(rng: &mut Rng, total: u64, parts: usize, jitter_pct: u64) -> Vec<u64> {
    let mean = total / parts as u64;
    let span = mean * jitter_pct / 100;
    let mut sizes: Vec<u64> = Vec::with_capacity(parts);
    for _ in 0..parts / 2 {
        let d = rng.range(0, span);
        sizes.push(mean - d);
        sizes.push(mean + d);
    }
    if parts % 2 == 1 {
        sizes.push(mean);
    }
    let sum: u64 = sizes.iter().sum();
    sizes[0] += total - sum;
    rng.shuffle(&mut sizes);
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(content(7, 3, 100), content(7, 3, 100));
        assert_ne!(content(7, 3, 100), content(8, 3, 100));
        assert_ne!(content(7, 3, 100), content(7, 4, 100));
    }

    #[test]
    fn digest_ignores_how_the_stream_is_cut() {
        let data = content(5, 1, 1001);
        let mut d = Digest::default();
        for piece in [
            &data[..3],
            &data[3..8],
            &data[8..8],
            &data[8..517],
            &data[517..],
        ] {
            d.update(piece);
        }
        assert_eq!(d.finish(), digest(&data));
        assert_eq!(d.bytes(), 1001);
        let mut flipped = data.clone();
        flipped[700] ^= 0x80;
        assert_ne!(digest(&flipped), digest(&data));
        assert_ne!(digest(&data[..1000]), digest(&data));
        // A zero byte appended differs from the zero padding of the tail.
        let mut longer = data.clone();
        longer.push(0);
        assert_ne!(digest(&longer), digest(&data));
    }

    #[test]
    fn split_sizes_sums_to_total() {
        let mut rng = Rng::new(1);
        let s = split_sizes(&mut rng, 1 << 20, 7, 25);
        assert_eq!(s.iter().sum::<u64>(), 1 << 20);
        assert_eq!(s.len(), 7);
    }
}
