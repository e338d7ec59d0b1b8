//! Ready-made jobs over text lines: the plain WordCount and Sort that
//! tests, examples, the fault campaigns and the `reproduce` trace pass
//! share. The characterization workloads keep their own probed jobs
//! (`bigdatabench::workloads::micro`), whose kernels report simulated
//! loads and stores.

use crate::job::{Emitter, Job};
use bdb_archsim::Probe;

/// WordCount: splits each line on whitespace, emits `(word, 1)`, and
/// sums per word in both the combiner and the reducer.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordCount;

impl Job for WordCount {
    type Input = String;
    type Key = String;
    type Value = u64;
    type Output = (String, u64);

    fn input_size(&self, line: &String) -> usize {
        line.len()
    }

    fn map<P: Probe + ?Sized>(&self, line: &String, emit: &mut Emitter<String, u64>, _p: &mut P) {
        for w in line.split_whitespace() {
            emit.emit(w.to_owned(), 1);
        }
    }

    fn combine(&self, _key: &String, values: Vec<u64>) -> Vec<u64> {
        vec![values.into_iter().sum()]
    }

    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<u64>,
        out: &mut Vec<(String, u64)>,
        _p: &mut P,
    ) {
        out.push((key, values.into_iter().sum()));
    }
}

/// TeraSort-style Sort: each line is emitted as a key, and the reducer
/// writes the key back once per occurrence, so every partition comes
/// out sorted and duplicates survive.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sort;

impl Job for Sort {
    type Input = String;
    type Key = String;
    type Value = ();
    type Output = String;

    fn input_size(&self, line: &String) -> usize {
        line.len()
    }

    fn map<P: Probe + ?Sized>(&self, line: &String, emit: &mut Emitter<String, ()>, _p: &mut P) {
        emit.emit(line.clone(), ());
    }

    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<()>,
        out: &mut Vec<String>,
        _p: &mut P,
    ) {
        out.extend(std::iter::repeat_n(key, values.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    #[test]
    fn sort_keeps_duplicates_in_order() {
        let engine = Engine::builder().threads(2).reducers(1).build();
        let input: Vec<String> = ["b", "a", "c", "a"].map(str::to_owned).to_vec();
        let (out, _) = engine.run(&Sort, &input);
        assert_eq!(out, ["a", "a", "b", "c"]);
    }
}
