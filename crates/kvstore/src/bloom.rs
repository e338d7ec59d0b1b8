//! Bloom filters for SSTable read-path short-circuiting.

/// A fixed-size bloom filter with double hashing (Kirsch–Mitzenmacher).
///
/// # Example
///
/// ```
/// use bdb_kvstore::BloomFilter;
/// let mut bf = BloomFilter::for_items(1000, 0.01);
/// bf.insert(b"hello");
/// assert!(bf.contains(b"hello"));
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    hashes: u32,
}

impl BloomFilter {
    /// Sizes a filter for `items` expected insertions at the given target
    /// false-positive rate using the standard optimal formulas.
    ///
    /// # Panics
    ///
    /// Panics if `fp_rate` is not in `(0, 1)`.
    pub fn for_items(items: usize, fp_rate: f64) -> Self {
        assert!(fp_rate > 0.0 && fp_rate < 1.0, "fp rate must be in (0,1)");
        let items = items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let num_bits = (-(items * fp_rate.ln()) / (ln2 * ln2)).ceil().max(64.0) as u64;
        let hashes = ((num_bits as f64 / items) * ln2).round().clamp(1.0, 16.0) as u32;
        Self { bits: vec![0u64; (num_bits as usize).div_ceil(64)], num_bits, hashes }
    }

    /// Number of hash probes per operation.
    pub fn hash_count(&self) -> u32 {
        self.hashes
    }

    /// Size of the bit array in bits.
    pub fn bit_count(&self) -> u64 {
        self.num_bits
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = hash_pair(key);
        for i in 0..self.hashes {
            let bit = self.bit_index(h1, h2, i);
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// Tests membership; false positives possible, false negatives not.
    pub fn contains(&self, key: &[u8]) -> bool {
        let (h1, h2) = hash_pair(key);
        (0..self.hashes).all(|i| {
            let bit = self.bit_index(h1, h2, i);
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// The bit positions a lookup of `key` would probe — exposed so
    /// traced runs can replay the exact probe addresses.
    pub fn probe_bits(&self, key: &[u8]) -> Vec<u64> {
        let (h1, h2) = hash_pair(key);
        (0..self.hashes).map(|i| self.bit_index(h1, h2, i)).collect()
    }

    /// Serialized size in bytes (bit array only).
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }

    /// Serializes to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.bits.len() * 8);
        out.extend_from_slice(&self.num_bits.to_le_bytes());
        out.extend_from_slice(&self.hashes.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes from [`BloomFilter::to_bytes`] output.
    ///
    /// Returns `None` on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 12 {
            return None;
        }
        let num_bits = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let hashes = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
        let words = (num_bits as usize).div_ceil(64);
        let rest = &bytes[12..];
        if rest.len() != words * 8 || hashes == 0 || num_bits == 0 {
            return None;
        }
        let bits = rest
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        Some(Self { bits, num_bits, hashes })
    }

    fn bit_index(&self, h1: u64, h2: u64, i: u32) -> u64 {
        h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.num_bits
    }
}

/// Two independent 64-bit hashes of `key` (FNV-1a variants).
fn hash_pair(key: &[u8]) -> (u64, u64) {
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h2: u64 = 0x9e37_79b9_7f4a_7c15;
    for &b in key {
        h1 = (h1 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        h2 = (h2 ^ b as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    (h1, h2 | 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::for_items(1000, 0.01);
        for i in 0..1000u32 {
            bf.insert(&i.to_le_bytes());
        }
        for i in 0..1000u32 {
            assert!(bf.contains(&i.to_le_bytes()));
        }
    }

    #[test]
    fn false_positive_rate_roughly_met() {
        let mut bf = BloomFilter::for_items(10_000, 0.01);
        for i in 0..10_000u32 {
            bf.insert(&i.to_le_bytes());
        }
        let fps = (10_000u32..60_000).filter(|i| bf.contains(&i.to_le_bytes())).count();
        let rate = fps as f64 / 50_000.0;
        assert!(rate < 0.03, "observed fp rate {rate}");
    }

    #[test]
    fn empty_filter_rejects() {
        let bf = BloomFilter::for_items(100, 0.01);
        assert!(!bf.contains(b"anything"));
    }

    #[test]
    fn probe_bits_match_hash_count() {
        let bf = BloomFilter::for_items(100, 0.01);
        let bits = bf.probe_bits(b"key");
        assert_eq!(bits.len(), bf.hash_count() as usize);
        assert!(bits.iter().all(|&b| b < bf.bit_count()));
    }

    #[test]
    fn serde_roundtrip() {
        let mut bf = BloomFilter::for_items(500, 0.02);
        for i in 0..500u32 {
            bf.insert(&i.to_le_bytes());
        }
        let back = BloomFilter::from_bytes(&bf.to_bytes()).unwrap();
        for i in 0..500u32 {
            assert!(back.contains(&i.to_le_bytes()));
        }
        assert_eq!(back.hash_count(), bf.hash_count());
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(BloomFilter::from_bytes(&[]).is_none());
        assert!(BloomFilter::from_bytes(&[0; 11]).is_none());
        let mut empty = [0; 12];
        empty[8] = 1; // one hash over zero bits
        assert!(BloomFilter::from_bytes(&empty).is_none());
        let mut ok = BloomFilter::for_items(10, 0.1).to_bytes();
        ok.pop();
        assert!(BloomFilter::from_bytes(&ok).is_none());
    }

    #[test]
    #[should_panic(expected = "fp rate")]
    fn invalid_fp_rate_panics() {
        BloomFilter::for_items(10, 1.5);
    }
}
