//! Model-based testing: the LSM store against a `BTreeMap` reference
//! under random operation sequences including flushes and compactions.

use bdb_kvstore::{BloomFilter, Store, StoreConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
    Get(u16),
    Scan(u16, u16),
    Flush,
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(k, v)| Op::Put(k, v)),
        1 => any::<u16>().prop_map(Op::Delete),
        3 => any::<u16>().prop_map(Op::Get),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Scan(a.min(b), a.max(b))),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

/// Operations over rows large enough that a table spans many 4 KiB
/// blocks: keys `1..=48` (so versions and tombstones shadow each other
/// across tables), values of 200–1500 bytes, and scan bounds in
/// `0..=50`, which start before the first key and end past the last.
fn multi_block_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1u16..=48, 200usize..1500, any::<u8>())
            .prop_map(|(k, len, byte)| Op::Put(k, vec![byte; len])),
        1 => (1u16..=48).prop_map(Op::Delete),
        3 => (1u16..=48).prop_map(Op::Get),
        2 => (0u16..=50, 0u16..=50).prop_map(|(a, b)| Op::Scan(a.min(b), a.max(b))),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn key_bytes(k: u16) -> Vec<u8> {
    format!("k{k:05}").into_bytes()
}

/// Replays `ops` against a store opened with `config` and a `BTreeMap`
/// model, checking every get and scan, then every model key and one
/// scan over `[key_bytes(0), key_bytes(u16::MAX))`.
fn check_against_model(ops: &[Op], config: StoreConfig, tag: &str) -> Result<(), TestCaseError> {
    let dir = std::env::temp_dir().join(format!(
        "bdb-prop-{tag}-{}-{:x}",
        std::process::id(),
        rand_tag(ops)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = Store::open_with(&dir, config).expect("open");
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let model_range = |model: &BTreeMap<Vec<u8>, Vec<u8>>, a: u16, b: u16| {
        model
            .range(key_bytes(a)..key_bytes(b))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect::<Vec<_>>()
    };
    for op in ops {
        match op {
            Op::Put(k, v) => {
                store.put(key_bytes(*k), v.clone()).expect("put");
                model.insert(key_bytes(*k), v.clone());
            }
            Op::Delete(k) => {
                store.delete(&key_bytes(*k)).expect("delete");
                model.remove(&key_bytes(*k));
            }
            Op::Get(k) => {
                let got = store.get(&key_bytes(*k)).expect("get");
                prop_assert_eq!(got.as_ref(), model.get(&key_bytes(*k)));
            }
            Op::Scan(a, b) => {
                let got = store.scan(&key_bytes(*a), &key_bytes(*b)).expect("scan");
                prop_assert_eq!(got, model_range(&model, *a, *b));
            }
            Op::Flush => store.flush().expect("flush"),
            Op::Compact => store.compact().expect("compact"),
        }
    }
    // Final sweep: every model key agrees, and so does a scan of all.
    for (k, v) in &model {
        let got = store.get(k).expect("get");
        prop_assert_eq!(got.as_ref(), Some(v));
    }
    let got = store.scan(&key_bytes(0), &key_bytes(u16::MAX)).expect("scan");
    prop_assert_eq!(got, model_range(&model, 0, u16::MAX));
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The store agrees with a BTreeMap model on every read, across any
    /// interleaving of mutations, flushes and compactions.
    #[test]
    fn store_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let config = StoreConfig { memtable_flush_bytes: 512, max_tables: 3, ..Default::default() };
        check_against_model(&ops, config, "small")?;
    }

    /// The same check with multi-block tables: a 16 KiB memtable of
    /// 200–1500-byte values, so scans span blocks, start mid-block and
    /// cross tables whose versions shadow each other.
    #[test]
    fn store_matches_model_across_blocks(
        ops in proptest::collection::vec(multi_block_op_strategy(), 1..200)
    ) {
        let config =
            StoreConfig { memtable_flush_bytes: 16 << 10, max_tables: 3, ..Default::default() };
        check_against_model(&ops, config, "blocks")?;
    }

    /// Recovery: reopening after arbitrary mutations preserves content.
    #[test]
    fn reopen_preserves_state(
        puts in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..60),
        flush_at in 0usize..60,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "bdb-prop-re-{}-{:x}",
            std::process::id(),
            puts.iter().map(|&(k, v)| k as u64 + v as u64).sum::<u64>()
                ^ (puts.len() as u64) << 32 ^ (flush_at as u64) << 48
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        {
            let mut store = Store::open(&dir).expect("open");
            for (i, (k, v)) in puts.iter().enumerate() {
                store.put(key_bytes(*k), vec![*v]).expect("put");
                model.insert(key_bytes(*k), vec![*v]);
                if i == flush_at {
                    store.flush().expect("flush");
                }
            }
        }
        let mut store = Store::open(&dir).expect("reopen");
        for (k, v) in &model {
            let got = store.get(k).expect("get");
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Bloom filters never report false negatives for any key set.
    #[test]
    fn bloom_no_false_negatives(keys in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..32), 1..200)
    ) {
        let mut bf = BloomFilter::for_items(keys.len(), 0.01);
        for k in &keys {
            bf.insert(k);
        }
        for k in &keys {
            prop_assert!(bf.contains(k));
        }
    }
}

/// Cheap deterministic tag so parallel proptest cases use distinct dirs.
fn rand_tag(ops: &[Op]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, op) in ops.iter().enumerate() {
        let x = match op {
            Op::Put(k, v) => *k as u64 ^ ((v.len() as u64) << 20),
            Op::Delete(k) | Op::Get(k) => *k as u64 | 1 << 40,
            Op::Scan(a, b) => (*a as u64) << 16 | *b as u64,
            Op::Flush => 0xF1,
            Op::Compact => 0xC0,
        };
        h = (h ^ x.wrapping_add(i as u64)).wrapping_mul(0x100_0000_01B3);
    }
    h
}
