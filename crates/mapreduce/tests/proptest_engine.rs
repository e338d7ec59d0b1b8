//! Property-based tests: the engine against naive reference
//! implementations, the codec against round-tripping, and the merge
//! against plain sorting.

use bdb_archsim::Probe;
use bdb_mapreduce::jobs::WordCount;
use bdb_mapreduce::spill::merge_runs;
use bdb_mapreduce::{Datum, Emitter, Engine, Job};
use proptest::prelude::*;
use std::collections::HashMap;

struct SortJob;
impl Job for SortJob {
    type Input = u64;
    type Key = u64;
    type Value = ();
    type Output = u64;
    fn map<P: Probe + ?Sized>(&self, x: &u64, emit: &mut Emitter<u64, ()>, _p: &mut P) {
        emit.emit(*x, ());
    }
    fn reduce<P: Probe + ?Sized>(&self, k: u64, vs: Vec<()>, out: &mut Vec<u64>, _p: &mut P) {
        out.extend(std::iter::repeat_n(k, vs.len()));
    }
}

fn word_lines() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::collection::vec("[a-e]{1,3}", 0..12).prop_map(|ws| ws.join(" ")),
        0..40,
    )
}

proptest! {
    /// WordCount through the engine equals a naive HashMap count,
    /// regardless of thread/reducer configuration.
    #[test]
    fn wordcount_matches_naive(
        lines in word_lines(),
        threads in 1usize..5,
        reducers in 1usize..5,
    ) {
        let engine = Engine::builder().threads(threads).reducers(reducers).build();
        let (out, _) = engine.run(&WordCount, &lines);
        let mut got: HashMap<String, u64> = HashMap::new();
        for (k, v) in out {
            // Each key appears exactly once across all partitions.
            prop_assert!(got.insert(k, v).is_none());
        }
        let mut expect: HashMap<String, u64> = HashMap::new();
        for line in &lines {
            for w in line.split_whitespace() {
                *expect.entry(w.to_owned()).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(got, expect);
    }

    /// Sort with a single reducer totally sorts any input, even when the
    /// buffer is tiny enough to force spilling.
    #[test]
    fn sort_is_total_and_complete(
        input in proptest::collection::vec(any::<u64>(), 0..300),
        buffer in 256usize..4096,
    ) {
        let engine = Engine::builder().threads(2).reducers(1).map_buffer_bytes(buffer).build();
        let (out, stats) = engine.run(&SortJob, &input);
        let mut expect = input.clone();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
        prop_assert_eq!(stats.map_records, input.len() as u64);
        prop_assert_eq!(stats.output_records, input.len() as u64);
    }

    /// Spilling and non-spilling configurations agree.
    #[test]
    fn spill_invariance(input in proptest::collection::vec(any::<u32>(), 1..200)) {
        let input: Vec<u64> = input.into_iter().map(u64::from).collect();
        let spilly = Engine::builder().threads(1).reducers(2).map_buffer_bytes(1024).build();
        let roomy = Engine::builder().threads(1).reducers(2).map_buffer_bytes(64 << 20).build();
        let (mut a, sa) = spilly.run(&SortJob, &input);
        let (mut b, sb) = roomy.run(&SortJob, &input);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        prop_assert!(sa.spills >= sb.spills);
    }

    /// merge_runs over pre-sorted runs equals sorting the concatenation.
    #[test]
    fn merge_equals_sort(runs in proptest::collection::vec(
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..50), 0..6)
    ) {
        let runs: Vec<Vec<(u32, u32)>> = runs
            .into_iter()
            .map(|mut r| {
                r.sort_by_key(|p| p.0);
                r
            })
            .collect();
        let mut expect: Vec<(u32, u32)> = runs.iter().flatten().copied().collect();
        let merged = merge_runs(runs);
        expect.sort_by_key(|p| p.0);
        let merged_keys: Vec<u32> = merged.iter().map(|p| p.0).collect();
        let expect_keys: Vec<u32> = expect.iter().map(|p| p.0).collect();
        prop_assert_eq!(merged_keys, expect_keys);
    }

    /// Codec: tuples of common types round-trip through encode/decode.
    #[test]
    fn codec_roundtrip(
        k in "[a-z]{0,20}",
        v in any::<u64>(),
        f in any::<f64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = Vec::new();
        (k.clone(), v).encode(&mut buf);
        f.encode(&mut buf);
        bytes.encode(&mut buf);
        let mut s = buf.as_slice();
        let pair = <(String, u64)>::decode(&mut s).expect("pair");
        prop_assert_eq!(pair.0, k);
        prop_assert_eq!(pair.1, v);
        let f2 = f64::decode(&mut s).expect("float");
        prop_assert_eq!(f.to_bits(), f2.to_bits());
        prop_assert_eq!(Vec::<u8>::decode(&mut s).expect("bytes"), bytes);
        prop_assert!(s.is_empty());
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn decode_garbage_is_safe(garbage in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut s = garbage.as_slice();
        let _ = String::decode(&mut s);
        let mut s = garbage.as_slice();
        let _ = <(u64, Vec<u8>)>::decode(&mut s);
        let mut s = garbage.as_slice();
        let _ = Vec::<u32>::decode(&mut s);
    }
}
