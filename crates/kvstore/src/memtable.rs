//! The in-memory sorted write buffer.
//!
//! Like HBase's MemStore: an ordered map from row key to the newest
//! value (or a tombstone), with byte accounting that drives flush
//! decisions.

use std::collections::BTreeMap;
use std::ops::Bound;

/// A value or a deletion marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A live value.
    Value(Vec<u8>),
    /// A tombstone shadowing older versions in SSTables.
    Tombstone,
}

impl Entry {
    /// The live value, if any.
    pub fn value(&self) -> Option<&[u8]> {
        match self {
            Entry::Value(v) => Some(v),
            Entry::Tombstone => None,
        }
    }

    /// The live value, if any, moved out.
    pub fn into_value(self) -> Option<Vec<u8>> {
        match self {
            Entry::Value(v) => Some(v),
            Entry::Tombstone => None,
        }
    }

    fn byte_size(&self) -> usize {
        match self {
            Entry::Value(v) => v.len(),
            Entry::Tombstone => 1,
        }
    }
}

/// The sorted in-memory buffer.
///
/// # Example
///
/// ```
/// use bdb_kvstore::Memtable;
/// let mut m = Memtable::new();
/// m.put(b"k".to_vec(), b"v".to_vec());
/// assert_eq!(m.get(b"k").and_then(|e| e.value()), Some(&b"v"[..]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memtable {
    map: BTreeMap<Vec<u8>, Entry>,
    bytes: usize,
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or overwrites a value. Returns the previous entry.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) -> Option<Entry> {
        self.insert(key, Entry::Value(value))
    }

    /// Inserts a tombstone. Returns the previous entry.
    pub fn delete(&mut self, key: Vec<u8>) -> Option<Entry> {
        self.insert(key, Entry::Tombstone)
    }

    fn insert(&mut self, key: Vec<u8>, entry: Entry) -> Option<Entry> {
        self.bytes += key.len() + entry.byte_size();
        let old = self.map.insert(key, entry);
        if let Some(old) = &old {
            self.bytes = self.bytes.saturating_sub(old.byte_size());
        }
        old
    }

    /// Looks up the newest entry for `key` (value or tombstone).
    pub fn get(&self, key: &[u8]) -> Option<&Entry> {
        self.map.get(key)
    }

    /// Iterates entries with keys in `[start, end)` in order.
    pub fn range<'a>(
        &'a self,
        start: &[u8],
        end: &[u8],
    ) -> impl Iterator<Item = (&'a [u8], &'a Entry)> + 'a {
        self.map
            .range::<[u8], _>((Bound::Included(start), Bound::Excluded(end)))
            .map(|(k, v)| (k.as_slice(), v))
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the memtable holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate resident bytes (keys + values + tombstones).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Drains all entries in key order, leaving the memtable empty.
    pub fn drain_sorted(&mut self) -> Vec<(Vec<u8>, Entry)> {
        self.bytes = 0;
        std::mem::take(&mut self.map).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_overwrite() {
        let mut m = Memtable::new();
        assert!(m.put(b"a".to_vec(), b"1".to_vec()).is_none());
        let old = m.put(b"a".to_vec(), b"2".to_vec());
        assert_eq!(old, Some(Entry::Value(b"1".to_vec())));
        assert_eq!(m.get(b"a"), Some(&Entry::Value(b"2".to_vec())));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tombstone_shadowing() {
        let mut m = Memtable::new();
        m.put(b"a".to_vec(), b"1".to_vec());
        m.delete(b"a".to_vec());
        assert_eq!(m.get(b"a"), Some(&Entry::Tombstone));
        assert_eq!(m.get(b"a").and_then(|e| e.value()), None);
    }

    #[test]
    fn range_is_ordered_and_bounded() {
        let mut m = Memtable::new();
        for k in ["d", "a", "c", "b", "e"] {
            m.put(k.as_bytes().to_vec(), b"x".to_vec());
        }
        let keys: Vec<&[u8]> = m.range(b"b", b"e").map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"b".as_slice(), b"c", b"d"]);
    }

    #[test]
    fn byte_accounting_tracks_overwrites() {
        let mut m = Memtable::new();
        m.put(b"key".to_vec(), vec![0; 100]);
        let after_first = m.bytes();
        assert_eq!(after_first, 103);
        m.put(b"key".to_vec(), vec![0; 10]);
        assert_eq!(m.bytes(), 103 + 13 - 100);
    }

    #[test]
    fn drain_returns_sorted_and_clears() {
        let mut m = Memtable::new();
        m.put(b"b".to_vec(), b"2".to_vec());
        m.put(b"a".to_vec(), b"1".to_vec());
        let drained = m.drain_sorted();
        assert_eq!(drained.len(), 2);
        assert!(drained[0].0 < drained[1].0);
        assert!(m.is_empty());
        assert_eq!(m.bytes(), 0);
    }
}
