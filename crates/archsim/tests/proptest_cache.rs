//! Property-based invariants of the cache/TLB/machine simulators.

use bdb_archsim::{Cache, CacheConfig, CacheStats, MachineConfig, MachineSim, Tlb, TlbConfig};
use proptest::prelude::*;

fn small_cache() -> Cache {
    Cache::new(CacheConfig::new("t", 4096, 4, 64))
}

/// Oracle for the differential tests: the tag store archsim used before
/// its flat one, one heap `Vec` per set holding tags most recently used
/// first.
struct VecLru {
    sets: Vec<Vec<u64>>,
    ways: usize,
    block_shift: u32,
    stats: CacheStats,
}

impl VecLru {
    fn new(sets: usize, ways: usize, block_size: usize) -> Self {
        Self {
            sets: vec![Vec::new(); sets],
            ways,
            block_shift: block_size.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let block = addr >> self.block_shift;
        let num_sets = self.sets.len() as u64;
        let tag = block / num_sets;
        let set = &mut self.sets[(block % num_sets) as usize];
        self.stats.accesses += 1;
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.insert(0, t);
            true
        } else {
            self.stats.misses += 1;
            set.insert(0, tag);
            if set.len() > self.ways {
                set.pop();
            }
            false
        }
    }

    fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Address traces for the differential tests: mostly offsets inside a
/// window of `window` bytes (so sets fill, hit and evict), some anywhere
/// below `u64::MAX / 2`, all shifted by a base that is zero or far out.
fn trace(window: u64) -> impl Strategy<Value = Vec<u64>> {
    let base = prop_oneof![Just(0u64), 0u64..u64::MAX / 4];
    let offset = prop_oneof![8 => 0..window, 1 => 0u64..u64::MAX / 4];
    (base, proptest::collection::vec(offset, 1..1500))
        .prop_map(|(base, offsets)| offsets.into_iter().map(|o| base + o).collect())
}

/// Replays `addrs` through `cache` and a [`VecLru`] of the same geometry,
/// requiring the same hit/miss sequence, counters and occupancy.
fn cache_matches_oracle(config: CacheConfig, addrs: &[u64]) -> Result<(), TestCaseError> {
    let mut oracle = VecLru::new(config.sets(), config.associativity, config.line_size);
    let mut cache = Cache::new(config);
    for (i, &a) in addrs.iter().enumerate() {
        prop_assert_eq!(cache.access(a), oracle.access(a), "access {} to {:#x}", i, a);
    }
    prop_assert_eq!(cache.stats(), oracle.stats);
    prop_assert_eq!(cache.resident_lines(), oracle.resident());
    Ok(())
}

/// As [`cache_matches_oracle`], for a TLB.
fn tlb_matches_oracle(config: TlbConfig, addrs: &[u64]) -> Result<(), TestCaseError> {
    let mut oracle = VecLru::new(config.sets(), config.associativity, config.page_size);
    let mut tlb = Tlb::new(config);
    for (i, &a) in addrs.iter().enumerate() {
        prop_assert_eq!(tlb.access(a), oracle.access(a), "access {} to {:#x}", i, a);
    }
    prop_assert_eq!(tlb.stats(), oracle.stats);
    Ok(())
}

proptest! {
    /// Misses never exceed accesses, and stats add up.
    #[test]
    fn misses_bounded_by_accesses(addrs in proptest::collection::vec(0u64..1_000_000, 1..500)) {
        let mut c = small_cache();
        for a in &addrs {
            c.access(*a);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert!(s.misses <= s.accesses);
        prop_assert_eq!(s.hits() + s.misses, s.accesses);
    }

    /// Resident lines never exceed the configured capacity.
    #[test]
    fn capacity_is_respected(addrs in proptest::collection::vec(0u64..10_000_000, 1..2000)) {
        let mut c = small_cache();
        for a in &addrs {
            c.access(*a);
        }
        prop_assert!(c.resident_lines() <= 4096 / 64);
    }

    /// An address accessed twice in a row always hits the second time.
    #[test]
    fn immediate_rehit(addr in 0u64..u64::MAX / 2) {
        let mut c = small_cache();
        c.access(addr);
        prop_assert!(c.access(addr));
    }

    /// Replaying the same trace yields identical statistics.
    #[test]
    fn deterministic_replay(addrs in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let run = |addrs: &[u64]| {
            let mut c = small_cache();
            for a in addrs {
                c.access(*a);
            }
            c.stats()
        };
        prop_assert_eq!(run(&addrs), run(&addrs));
    }

    /// A working set no bigger than the cache has only cold misses.
    #[test]
    fn small_working_set_only_cold_misses(
        lines in proptest::collection::vec(0u64..64, 1..64),
        rounds in 1usize..6,
    ) {
        let mut c = small_cache();
        let distinct: std::collections::HashSet<u64> = lines.iter().copied().collect();
        for _ in 0..rounds {
            for &l in &lines {
                c.access(l * 64);
            }
        }
        prop_assert_eq!(c.stats().misses, distinct.len() as u64);
    }

    /// The flat tag store behaves exactly like the per-set `Vec` LRU on a
    /// power-of-two geometry (16 sets x 4 ways).
    #[test]
    fn cache_matches_vec_lru_pow2_sets(addrs in trace(4 * 4096)) {
        cache_matches_oracle(CacheConfig::new("pow2", 4096, 4, 64), &addrs)?;
    }

    /// ... and on a set count that is not a power of two (12 sets x 4
    /// ways, shaped like the E5645 L3's 12,288 x 16), which splits set
    /// and tag by division.
    #[test]
    fn cache_matches_vec_lru_non_pow2_sets(addrs in trace(4 * 3072)) {
        cache_matches_oracle(CacheConfig::new("l3-shaped", 12 * 4 * 64, 4, 64), &addrs)?;
    }

    /// TLBs share the store: power-of-two (16 sets) and not (12 sets).
    #[test]
    fn tlb_matches_vec_lru(addrs in trace(4 * 64 * 4096)) {
        tlb_matches_oracle(TlbConfig::new("pow2", 64, 4, 4096), &addrs)?;
        tlb_matches_oracle(TlbConfig::new("non-pow2", 48, 4, 4096), &addrs)?;
    }

    /// TLB: misses bounded, page-granular hits.
    #[test]
    fn tlb_invariants(pages in proptest::collection::vec(0u64..1000, 1..400)) {
        let mut t = Tlb::new(TlbConfig::new("t", 64, 4, 4096));
        for &p in &pages {
            t.access(p * 4096);
            // Same page again: must hit.
            assert!(t.access(p * 4096 + 123));
        }
        let s = t.stats();
        prop_assert_eq!(s.accesses, pages.len() as u64 * 2);
        prop_assert!(s.misses <= pages.len() as u64);
    }

    /// MachineSim: a random event stream keeps the report internally
    /// consistent (per-level monotonicity, cycles > 0 for nonempty runs).
    #[test]
    fn machine_report_consistent(
        ops in proptest::collection::vec((0u64..10_000_000, 1u32..128, any::<bool>()), 1..300),
    ) {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        for (addr, bytes, store) in &ops {
            m.data_access(*addr, *bytes, *store);
        }
        let r = m.report();
        prop_assert_eq!(r.mix.loads + r.mix.stores, ops.len() as u64);
        // The hierarchy filters: L2 sees at most L1D misses, L3 at most L2 misses.
        prop_assert!(r.l2.stats.accesses <= r.l1d.stats.misses + r.l1i.stats.misses);
        let l3 = r.l3.expect("E5645 has L3");
        prop_assert!(l3.stats.accesses <= r.l2.stats.misses);
        prop_assert!(r.cycles > 0);
        prop_assert!(r.dram_bytes.is_multiple_of(64), "DRAM traffic is line-granular");
    }

    /// reset_stats zeroes counters but preserves cache warmth.
    #[test]
    fn reset_preserves_warmth(addrs in proptest::collection::vec(0u64..100_000, 1..200)) {
        let mut m = MachineSim::new(MachineConfig::xeon_e5310());
        for a in &addrs {
            m.data_access(*a, 8, false);
        }
        m.reset_stats();
        let zero = m.report();
        prop_assert_eq!(zero.instructions(), 0);
        // Re-access the last address: it must be warm (L1 hit, no DRAM).
        m.data_access(*addrs.last().expect("nonempty"), 8, false);
        let r = m.report();
        prop_assert_eq!(r.l1d.stats.misses, 0);
    }
}
