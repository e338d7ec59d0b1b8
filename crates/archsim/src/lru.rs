//! The tag store shared by every cache and TLB level.
//!
//! One flat `sets × ways` array of tags holds each set as a contiguous
//! slice kept in most-recently-used-first order, with `EMPTY` filling
//! the ways not yet used. A lookup scans its set from the MRU end and stops
//! at the first match, so the common re-touch of the last-used block costs
//! one comparison; a hit moves the tag to the front and a miss shifts the
//! set down one way (dropping the LRU tag) and inserts at the front. That
//! is exactly true LRU.

use crate::cache::CacheStats;
use std::ops::Range;

/// Tag of a way that holds nothing. A real tag is a block number divided
/// by the set count, and block numbers are byte addresses shifted right by
/// the line or page size, so a real tag only reaches `u64::MAX` for a
/// one-set store over one-byte blocks.
const EMPTY: u64 = u64::MAX;

/// Set-associative, true-LRU tag store with access counters.
#[derive(Debug, Clone)]
pub(crate) struct LruSets {
    /// `sets × ways` tags; set `s` is `tags[s * ways..(s + 1) * ways]`,
    /// most recently used first.
    tags: Vec<u64>,
    ways: usize,
    sets: u64,
    /// `log2(sets)` when the set count is a power of two, so set and tag
    /// split with a mask and a shift instead of a division.
    set_shift: Option<u32>,
    stats: CacheStats,
}

impl LruSets {
    /// An empty store of `sets` sets of `ways` ways each.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        Self {
            tags: vec![EMPTY; sets * ways],
            ways,
            sets: sets as u64,
            set_shift: sets.is_power_of_two().then(|| sets.trailing_zeros()),
            stats: CacheStats::default(),
        }
    }

    /// Looks up `block`, making it the set's most recently used entry.
    /// Returns `true` on a hit; on a miss the block is inserted and the
    /// set's least recently used tag, if the set is full, is dropped.
    #[inline]
    pub(crate) fn access(&mut self, block: u64) -> bool {
        let (set, tag) = match self.set_shift {
            Some(shift) => (block & (self.sets - 1), block >> shift),
            None => (block % self.sets, block / self.sets),
        };
        debug_assert_ne!(tag, EMPTY, "tag collides with the empty-way sentinel");
        self.stats.accesses += 1;
        let base = set as usize * self.ways;
        let set = &mut self.tags[base..base + self.ways];
        if set[0] == tag {
            return true;
        }
        match set.iter().position(|&t| t == tag) {
            Some(pos) => {
                set[..=pos].rotate_right(1);
                true
            }
            None => {
                self.stats.misses += 1;
                set.rotate_right(1);
                set[0] = tag;
                false
            }
        }
    }

    /// Access counters accumulated so far.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the counters, keeping the contents.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Empties every way and zeroes the counters.
    pub(crate) fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.stats = CacheStats::default();
    }

    /// Number of ways holding a tag.
    pub(crate) fn resident(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

/// Numbers (`address >> shift`) of the blocks of `1 << shift` bytes that
/// overlap `[addr, addr + bytes)`. Empty when `bytes` is zero; a range
/// running past the top of the address space stops there.
pub(crate) fn blocks(addr: u64, bytes: u64, shift: u32) -> Range<u64> {
    let first = addr >> shift;
    match bytes.checked_sub(1) {
        Some(extra) => first..(addr.saturating_add(extra) >> shift).saturating_add(1),
        None => first..first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_cover_the_range() {
        assert_eq!(blocks(60, 8, 6), 0..2);
        assert_eq!(blocks(64, 64, 6), 1..2);
        assert_eq!(blocks(64, 65, 6), 1..3);
        assert_eq!(blocks(u64::MAX - 3, 100, 6), (u64::MAX >> 6)..(u64::MAX >> 6) + 1);
    }

    #[test]
    fn zero_bytes_cover_no_block() {
        assert_eq!(blocks(0, 0, 6).count(), 0);
        assert_eq!(blocks(128, 0, 6).count(), 0);
        assert_eq!(blocks(u64::MAX, 0, 12).count(), 0);
    }

    #[test]
    fn sets_stay_mru_first() {
        // 3 sets (not a power of two) x 2 ways: blocks 0, 3, 6 share set 0.
        let mut s = LruSets::new(3, 2);
        assert!(!s.access(0));
        assert!(!s.access(3));
        assert!(s.access(0));
        assert!(!s.access(6)); // evicts 3, the LRU way
        assert!(s.access(0));
        assert!(!s.access(3));
        assert_eq!(s.resident(), 2);
        assert_eq!(s.stats(), CacheStats { accesses: 6, misses: 4 });
        s.reset();
        assert_eq!(s.resident(), 0);
        assert_eq!(s.stats(), CacheStats::default());
    }
}
