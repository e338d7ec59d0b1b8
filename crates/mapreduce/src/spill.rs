//! Spill files: sorted runs of intermediate pairs serialized to disk.
//!
//! Hadoop map tasks spill their sort buffer to local disk whenever it
//! fills; reducers then merge the sorted runs. We reproduce the same
//! mechanism with real temporary files so that, exactly as in the paper,
//! out-of-memory-scale inputs pay genuine I/O and Sort-style jobs slow
//! down past the memory threshold (Figure 3-2).

use crate::codec::Datum;
use bdb_faults::FaultPlan;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide spill file counter; see [`SpillFile::write_with`].
static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

/// A sorted run of `(key, value)` pairs persisted to a temporary file.
///
/// The file is deleted when the `SpillFile` is dropped.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    /// Number of pairs in the run.
    pub pairs: usize,
    /// Serialized size in bytes.
    pub bytes: u64,
}

impl SpillFile {
    /// Writes `pairs` (already sorted by key) to a new spill file in
    /// `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file creation or writing.
    pub fn write<K: Datum, V: Datum>(
        dir: &Path,
        task: usize,
        seq: usize,
        pairs: &[(K, V)],
    ) -> std::io::Result<Self> {
        Self::write_with(dir, task, 0, seq, pairs, &FaultPlan::disabled())
    }

    /// [`SpillFile::write`] for a specific task attempt, writing through
    /// the fault plan's [`crate::sites::SPILL_WRITE`] site. Attempts get
    /// distinct file names so a speculative re-execution never collides
    /// with the attempt it races. A failed write removes the partial
    /// file before returning.
    ///
    /// # Errors
    ///
    /// Propagates real and injected I/O errors from creation or writing.
    pub fn write_with<K: Datum, V: Datum>(
        dir: &Path,
        task: usize,
        attempt: u32,
        seq: usize,
        pairs: &[(K, V)],
        faults: &FaultPlan,
    ) -> std::io::Result<Self> {
        // Engines running concurrently in one process (parallel tests,
        // campaign rounds) share `dir`; the counter keeps their files apart.
        let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
        let path =
            dir.join(format!("bdb-spill-{}-{n}-{task}a{attempt}-{seq}.run", std::process::id()));
        let mut buf = Vec::new();
        for (k, v) in pairs {
            k.encode(&mut buf);
            v.encode(&mut buf);
        }
        let written = (|| {
            let mut w = faults.wrap_write(crate::sites::SPILL_WRITE, File::create(&path)?);
            w.write_all(&buf)?;
            w.flush()
        })();
        if let Err(e) = written {
            let _ = std::fs::remove_file(&path);
            return Err(e);
        }
        Ok(Self { path, pairs: pairs.len(), bytes: buf.len() as u64 })
    }

    /// Reads the whole run back.
    ///
    /// # Errors
    ///
    /// Returns an I/O error on read failure, or `InvalidData` if the file
    /// does not decode to exactly `pairs` entries.
    pub fn read<K: Datum, V: Datum>(&self) -> std::io::Result<Vec<(K, V)>> {
        self.read_with(&FaultPlan::disabled())
    }

    /// [`SpillFile::read`] through the fault plan's
    /// [`crate::sites::SPILL_READ`] site.
    ///
    /// # Errors
    ///
    /// Propagates real and injected I/O errors; `InvalidData` if the
    /// file does not decode to exactly `pairs` entries.
    pub fn read_with<K: Datum, V: Datum>(
        &self,
        faults: &FaultPlan,
    ) -> std::io::Result<Vec<(K, V)>> {
        let mut bytes = Vec::with_capacity(self.bytes as usize);
        faults
            .wrap_read(crate::sites::SPILL_READ, BufReader::new(File::open(&self.path)?))
            .read_to_end(&mut bytes)?;
        let mut slice = bytes.as_slice();
        let mut out = Vec::with_capacity(self.pairs);
        for _ in 0..self.pairs {
            let k = K::decode(&mut slice).ok_or_else(corrupt)?;
            let v = V::decode(&mut slice).ok_or_else(corrupt)?;
            out.push((k, v));
        }
        if !slice.is_empty() {
            return Err(corrupt());
        }
        Ok(out)
    }
}

fn corrupt() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, "corrupt spill file")
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// K-way merge of sorted runs into one sorted vector.
///
/// Each input run must be sorted by key; ties across runs keep run order
/// (stable for deterministic output).
pub fn merge_runs<K: Datum + Ord, V: Datum>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    let slices: Vec<&[(K, V)]> = runs.iter().map(Vec::as_slice).collect();
    merge_run_slices(&slices)
}

/// [`merge_runs`] over borrowed runs, so a retried reduce attempt can
/// re-merge the same inputs without the engine cloning them up front
/// (the merge already clones per element).
pub fn merge_run_slices<K: Datum + Ord, V: Datum>(runs: &[&[(K, V)]]) -> Vec<(K, V)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Heap entries: (key, run index, position). We avoid cloning values
    // by indexing into the runs and taking items out in order.
    struct Entry<K> {
        key: K,
        run: usize,
        pos: usize,
    }
    impl<K: Ord> PartialEq for Entry<K> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key && self.run == other.run
        }
    }
    impl<K: Ord> Eq for Entry<K> {}
    impl<K: Ord> PartialOrd for Entry<K> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<K: Ord> Ord for Entry<K> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key).then(self.run.cmp(&other.run))
        }
    }

    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        if let Some((k, _)) = run.first() {
            heap.push(Reverse(Entry { key: k.clone(), run: i, pos: 0 }));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse(e)) = heap.pop() {
        let run = runs[e.run];
        let v = run[e.pos].1.clone();
        out.push((e.key, v));
        let next = e.pos + 1;
        if next < run.len() {
            heap.push(Reverse(Entry { key: run[next].0.clone(), run: e.run, pos: next }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_roundtrip() {
        let dir = std::env::temp_dir();
        let pairs: Vec<(u64, String)> = (0..100).map(|i| (i, format!("v{i}"))).collect();
        let spill = SpillFile::write(&dir, 0, 0, &pairs).unwrap();
        assert_eq!(spill.pairs, 100);
        assert!(spill.bytes > 0);
        let back: Vec<(u64, String)> = spill.read().unwrap();
        assert_eq!(back, pairs);
    }

    #[test]
    fn spill_file_removed_on_drop() {
        let dir = std::env::temp_dir();
        let pairs: Vec<(u64, u64)> = vec![(1, 2)];
        let spill = SpillFile::write(&dir, 1, 7, &pairs).unwrap();
        let path = spill.path.clone();
        assert!(path.exists());
        drop(spill);
        assert!(!path.exists());
    }

    #[test]
    fn merge_two_sorted_runs() {
        let a: Vec<(u64, u64)> = vec![(1, 10), (3, 30), (5, 50)];
        let b: Vec<(u64, u64)> = vec![(2, 20), (3, 31), (4, 40)];
        let merged = merge_runs(vec![a, b]);
        let keys: Vec<u64> = merged.iter().map(|p| p.0).collect();
        assert_eq!(keys, vec![1, 2, 3, 3, 4, 5]);
        // Stability: run 0's (3,30) precedes run 1's (3,31).
        assert_eq!(merged[2], (3, 30));
        assert_eq!(merged[3], (3, 31));
    }

    #[test]
    fn merge_handles_empty_runs() {
        let merged: Vec<(u64, u64)> = merge_runs(vec![vec![], vec![(1, 1)], vec![]]);
        assert_eq!(merged, vec![(1, 1)]);
        let empty: Vec<(u64, u64)> = merge_runs(Vec::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn merge_many_runs_is_sorted() {
        let mut runs = Vec::new();
        for r in 0..8u64 {
            runs.push((0..50).map(|i| (i * 8 + r, r)).collect::<Vec<_>>());
        }
        let merged = merge_runs(runs);
        assert_eq!(merged.len(), 400);
        assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
