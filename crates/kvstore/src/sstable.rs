//! Immutable sorted string tables with block index and bloom filter.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! [data block]*  [index]  [bloom]  [footer]
//! data block  = (klen u32, key, tomb u8, vlen u32, value)*   ≈ 4 KiB each
//! index       = count u32, (klen u32, first_key, offset u64, len u32)*
//! footer      = index_off u64, index_len u64, bloom_off u64,
//!               bloom_len u64, entries u64, magic u64
//! ```

use crate::bloom::BloomFilter;
use crate::memtable::Entry;
use bdb_faults::FaultPlan;
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

const MAGIC: u64 = 0x0042_4442_5353_5442; // "BDB SSTB"
const BLOCK_TARGET: usize = 4096;
/// Blocks per read when [`SsTable::iter_all`] walks the data section,
/// about 256 KiB. Reading a whole table at once holds a second copy of
/// its data while compaction copies the rows out; on the `oltp`
/// benchmark that raised peak RSS by 2 MiB.
const ITER_RUN_BLOCKS: usize = 64;
/// Encoded size of the smallest record: empty key, tombstone.
const MIN_RECORD: u64 = 4 + 1 + 4;

/// One index entry: the first key of a block plus its file extent.
#[derive(Debug, Clone)]
struct IndexEntry {
    first_key: Vec<u8>,
    offset: u64,
    len: u32,
}

/// A read handle to one SSTable file.
///
/// The table keeps the file open for its whole life and serves every
/// data read as one positional read (`pread`) of a run of contiguous
/// blocks.
#[derive(Debug)]
pub struct SsTable {
    path: PathBuf,
    file: File,
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
    entries: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

impl SsTable {
    /// Builds an SSTable at `path` from key-sorted entries (values or
    /// tombstones).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `entries` is not sorted by key.
    pub fn build(path: &Path, entries: &[(Vec<u8>, Entry)]) -> std::io::Result<Self> {
        Self::build_with(path, entries, &FaultPlan::disabled(), "kvstore.sstable.build")
    }

    /// [`SsTable::build`] writing through the fault plan's `site`, with
    /// crash-safe publication: the table is written to `<path>.tmp` and
    /// atomically renamed into place only once every byte (including
    /// the footer) is on disk — HBase's tmp-then-move commit for store
    /// files. A failed build removes the partial tmp file, so a reader
    /// never observes a half-written table.
    ///
    /// # Errors
    ///
    /// Propagates real and injected I/O errors.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `entries` is not sorted by key.
    pub fn build_with(
        path: &Path,
        entries: &[(Vec<u8>, Entry)],
        faults: &FaultPlan,
        site: &'static str,
    ) -> std::io::Result<Self> {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries must be sorted");
        let tmp = tmp_path(path);
        let written = (|| {
            let mut w = faults.wrap_write(site, File::create(&tmp)?);
            let sections = write_table(&mut w, entries)?;
            w.flush()?;
            // Opened before the rename, so a failure publishes nothing;
            // the handle follows the file to its final name.
            let file = File::open(&tmp)?;
            std::fs::rename(&tmp, path)?;
            Ok((file, sections))
        })();
        match written {
            Ok((file, (index, bloom, file_bytes))) => Ok(Self {
                path: path.to_owned(),
                file,
                index,
                bloom,
                entries: entries.len() as u64,
                file_bytes,
            }),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Opens an existing SSTable, reading its index, bloom and footer.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the footer magic, the section extents,
    /// the index or the bloom filter are corrupt; nothing is allocated
    /// from a length the file cannot hold.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = File::open(path)?;
        let file_bytes = file.metadata()?.len();
        let Some(footer_off) = file_bytes.checked_sub(48) else {
            return Err(invalid("file too small"));
        };
        let mut footer = [0u8; 48];
        file.read_exact_at(&mut footer, footer_off)?;
        let u64_at = |i: usize| u64::from_le_bytes(footer[i..i + 8].try_into().expect("8 bytes"));
        if u64_at(40) != MAGIC {
            return Err(invalid("bad magic"));
        }
        let (index_off, index_len) = (u64_at(0), u64_at(8));
        let (bloom_off, bloom_len) = (u64_at(16), u64_at(24));
        let entries = u64_at(32);
        if index_off.checked_add(index_len).is_none_or(|end| end > bloom_off)
            || bloom_off.checked_add(bloom_len) != Some(footer_off)
            || entries > index_off / MIN_RECORD
        {
            return Err(invalid("bad section extents"));
        }

        let mut index_bytes = vec![0u8; index_len as usize];
        file.read_exact_at(&mut index_bytes, index_off)?;
        let index = parse_index(&index_bytes, index_off).ok_or_else(|| invalid("bad index"))?;

        let mut bloom_bytes = vec![0u8; bloom_len as usize];
        file.read_exact_at(&mut bloom_bytes, bloom_off)?;
        let bloom = BloomFilter::from_bytes(&bloom_bytes).ok_or_else(|| invalid("bad bloom"))?;

        Ok(Self { path: path.to_owned(), file, index, bloom, entries, file_bytes })
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of data blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// The file this table reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The table's bloom filter (for read-path tracing).
    pub fn bloom(&self) -> &BloomFilter {
        &self.bloom
    }

    /// Whether the bloom filter may contain `key`.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.bloom.contains(key)
    }

    /// The block index position a lookup of `key` would search
    /// (`None` if the key precedes the first block).
    pub fn block_for(&self, key: &[u8]) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        match self.index.binary_search_by(|e| e.first_key.as_slice().cmp(key)) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }

    /// Point lookup. Returns the entry (value or tombstone) if the key is
    /// present in this table.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors reading the data block, and returns
    /// `InvalidData` if the block does not decode.
    pub fn get(&self, key: &[u8]) -> std::io::Result<Option<Entry>> {
        if !self.may_contain(key) {
            return Ok(None);
        }
        let Some(block) = self.block_for(key) else {
            return Ok(None);
        };
        let bytes = self.read_blocks(block..block + 1)?;
        for record in Records(&bytes) {
            let (k, tomb, value) = record?;
            if k == key {
                return Ok(Some(entry(tomb, value)));
            }
        }
        Ok(None)
    }

    /// Iterates every entry in key order, reading the data section in
    /// runs of 64 blocks.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, and returns `InvalidData` if a data block
    /// does not decode.
    pub fn iter_all(&self) -> std::io::Result<Vec<(Vec<u8>, Entry)>> {
        let mut out = Vec::with_capacity(self.entries as usize);
        let blocks = self.index.len();
        for first in (0..blocks).step_by(ITER_RUN_BLOCKS) {
            let bytes = self.read_blocks(first..(first + ITER_RUN_BLOCKS).min(blocks))?;
            for record in Records(&bytes) {
                let (k, tomb, v) = record?;
                out.push((k.to_vec(), entry(tomb, v)));
            }
        }
        Ok(out)
    }

    /// Range scan over `[start, end)`: one read of the blocks that can
    /// hold the range.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, and returns `InvalidData` if a data block
    /// does not decode.
    pub fn scan(&self, start: &[u8], end: &[u8]) -> std::io::Result<Vec<(Vec<u8>, Entry)>> {
        let first = self.block_for(start).unwrap_or(0);
        let last = first + self.index[first..].partition_point(|e| e.first_key.as_slice() < end);
        let bytes = self.read_blocks(first..last)?;
        let mut out = Vec::new();
        for record in Records(&bytes) {
            let (k, tomb, value) = record?;
            if k >= end {
                break;
            }
            if k >= start {
                out.push((k.to_vec(), entry(tomb, value)));
            }
        }
        Ok(out)
    }

    /// Reads the contiguous data blocks `blocks` with one positional read.
    fn read_blocks(&self, blocks: Range<usize>) -> std::io::Result<Vec<u8>> {
        if blocks.is_empty() {
            return Ok(Vec::new());
        }
        let from = self.index[blocks.start].offset;
        let last = &self.index[blocks.end - 1];
        let mut buf = vec![0u8; (last.offset + u64::from(last.len) - from) as usize];
        self.file.read_exact_at(&mut buf, from)?;
        Ok(buf)
    }

    /// Deletes the backing file (after compaction supersedes the table).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn remove_file(self) -> std::io::Result<()> {
        std::fs::remove_file(&self.path)
    }
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

/// The staging path a table is written to before its atomic rename.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Streams data blocks, index, bloom and footer to `file`, returning
/// the in-memory index, the bloom filter and the total byte count.
fn write_table<W: Write>(
    file: &mut W,
    entries: &[(Vec<u8>, Entry)],
) -> std::io::Result<(Vec<IndexEntry>, BloomFilter, u64)> {
    let mut bloom = BloomFilter::for_items(entries.len().max(1), 0.01);
    let mut index = Vec::new();
    let mut block = Vec::with_capacity(BLOCK_TARGET * 2);
    let mut block_first: Option<Vec<u8>> = None;
    let mut offset = 0u64;

    let flush_block = |file: &mut W,
                       block: &mut Vec<u8>,
                       first: &mut Option<Vec<u8>>,
                       offset: &mut u64,
                       index: &mut Vec<IndexEntry>|
     -> std::io::Result<()> {
        if let Some(first_key) = first.take() {
            file.write_all(block)?;
            index.push(IndexEntry { first_key, offset: *offset, len: block.len() as u32 });
            *offset += block.len() as u64;
            block.clear();
        }
        Ok(())
    };

    for (key, entry) in entries {
        bloom.insert(key);
        if block_first.is_none() {
            block_first = Some(key.clone());
        }
        block.extend_from_slice(&(key.len() as u32).to_le_bytes());
        block.extend_from_slice(key);
        match entry {
            Entry::Tombstone => {
                block.push(1);
                block.extend_from_slice(&0u32.to_le_bytes());
            }
            Entry::Value(v) => {
                block.push(0);
                block.extend_from_slice(&(v.len() as u32).to_le_bytes());
                block.extend_from_slice(v);
            }
        }
        if block.len() >= BLOCK_TARGET {
            flush_block(file, &mut block, &mut block_first, &mut offset, &mut index)?;
        }
    }
    flush_block(file, &mut block, &mut block_first, &mut offset, &mut index)?;

    // Index section.
    let index_off = offset;
    let mut index_bytes = Vec::new();
    index_bytes.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for e in &index {
        index_bytes.extend_from_slice(&(e.first_key.len() as u32).to_le_bytes());
        index_bytes.extend_from_slice(&e.first_key);
        index_bytes.extend_from_slice(&e.offset.to_le_bytes());
        index_bytes.extend_from_slice(&e.len.to_le_bytes());
    }
    file.write_all(&index_bytes)?;

    // Bloom section.
    let bloom_off = index_off + index_bytes.len() as u64;
    let bloom_bytes = bloom.to_bytes();
    file.write_all(&bloom_bytes)?;

    // Footer.
    let mut footer = Vec::with_capacity(48);
    footer.extend_from_slice(&index_off.to_le_bytes());
    footer.extend_from_slice(&(index_bytes.len() as u64).to_le_bytes());
    footer.extend_from_slice(&bloom_off.to_le_bytes());
    footer.extend_from_slice(&(bloom_bytes.len() as u64).to_le_bytes());
    footer.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    footer.extend_from_slice(&MAGIC.to_le_bytes());
    file.write_all(&footer)?;
    file.flush()?;
    let file_bytes = bloom_off + bloom_bytes.len() as u64 + 48;
    Ok((index, bloom, file_bytes))
}

/// Parses the index section. The block extents must tile the data
/// section `[0, data_bytes)` in order, so that any run of blocks is one
/// contiguous read.
fn parse_index(bytes: &[u8], data_bytes: u64) -> Option<Vec<IndexEntry>> {
    /// Encoded size of an index entry with an empty key.
    const MIN_ENTRY: usize = 4 + 8 + 4;
    let mut s = bytes;
    let count = read_u32(&mut s)? as usize;
    let mut index = Vec::with_capacity(count.min(s.len() / MIN_ENTRY));
    let mut next_offset = 0u64;
    for _ in 0..count {
        let klen = read_u32(&mut s)? as usize;
        let first_key = take(&mut s, klen)?.to_vec();
        let offset = read_u64(&mut s)?;
        let len = read_u32(&mut s)?;
        if offset != next_offset || len == 0 {
            return None;
        }
        next_offset = next_offset.checked_add(u64::from(len))?;
        index.push(IndexEntry { first_key, offset, len });
    }
    (s.is_empty() && next_offset == data_bytes).then_some(index)
}

/// Splits the first `n` bytes off `s`.
fn take<'a>(s: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if s.len() < n {
        return None;
    }
    let (head, tail) = s.split_at(n);
    *s = tail;
    Some(head)
}

fn read_u32(s: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(s, 4)?.try_into().ok()?))
}

fn read_u64(s: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take(s, 8)?.try_into().ok()?))
}

/// The records of a run of data blocks, decoded in place as
/// `(key, tombstone, value)`. A record that does not decode ends the
/// iteration with `InvalidData`, so a run either decodes to exactly its
/// byte length or fails.
struct Records<'a>(&'a [u8]);

impl<'a> Iterator for Records<'a> {
    type Item = std::io::Result<(&'a [u8], bool, &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.0.is_empty() {
            return None;
        }
        let record = decode_record(&mut self.0);
        if record.is_none() {
            self.0 = &[];
        }
        Some(record.ok_or_else(|| invalid("corrupt data block")))
    }
}

fn decode_record<'a>(s: &mut &'a [u8]) -> Option<(&'a [u8], bool, &'a [u8])> {
    let klen = read_u32(s)? as usize;
    let key = take(s, klen)?;
    let tomb = match take(s, 1)?[0] {
        0 => false,
        1 => true,
        _ => return None,
    };
    let vlen = read_u32(s)? as usize;
    Some((key, tomb, take(s, vlen)?))
}

fn entry(tomb: bool, value: &[u8]) -> Entry {
    if tomb {
        Entry::Tombstone
    } else {
        Entry::Value(value.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bdb-sst-{}-{name}.sst", std::process::id()))
    }

    fn sample_entries(n: usize) -> Vec<(Vec<u8>, Entry)> {
        (0..n)
            .map(|i| {
                let key = format!("key{i:08}").into_bytes();
                if i % 10 == 3 {
                    (key, Entry::Tombstone)
                } else {
                    (key, Entry::Value(format!("value-{i}").into_bytes()))
                }
            })
            .collect()
    }

    #[test]
    fn build_get_roundtrip() {
        let path = tmp("roundtrip");
        let entries = sample_entries(1000);
        let table = SsTable::build(&path, &entries).unwrap();
        assert_eq!(table.len(), 1000);
        assert!(table.block_count() > 1, "should span multiple blocks");
        for (k, e) in entries.iter().step_by(37) {
            assert_eq!(table.get(k).unwrap().as_ref(), Some(e));
        }
        assert_eq!(table.get(b"nope").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rereads_metadata() {
        let path = tmp("open");
        let entries = sample_entries(500);
        let built = SsTable::build(&path, &entries).unwrap();
        let opened = SsTable::open(&path).unwrap();
        assert_eq!(opened.len(), built.len());
        assert_eq!(opened.block_count(), built.block_count());
        assert_eq!(opened.get(b"key00000042").unwrap(), built.get(b"key00000042").unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_corrupt_footer() {
        let path = tmp("corrupt");
        SsTable::build(&path, &sample_entries(10)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // clobber magic
        std::fs::write(&path, &bytes).unwrap();
        assert!(SsTable::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Builds a multi-block table, lets `forge` edit its bytes, and
    /// returns the error `SsTable::open` gives for the result.
    fn open_forged(name: &str, forge: impl FnOnce(&mut Vec<u8>, &SsTable)) -> std::io::Error {
        let path = tmp(name);
        let table = SsTable::build(&path, &sample_entries(300)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        forge(&mut bytes, &table);
        std::fs::write(&path, &bytes).unwrap();
        let err = SsTable::open(&path).expect_err("a forged table must not open");
        std::fs::remove_file(&path).ok();
        err
    }

    /// Footer field numbers, in file order.
    const INDEX_OFF: usize = 0;
    const INDEX_LEN: usize = 1;
    const BLOOM_OFF: usize = 2;
    const BLOOM_LEN: usize = 3;
    const ENTRIES: usize = 4;

    fn footer_field(bytes: &mut [u8], field: usize) -> &mut [u8] {
        let at = bytes.len() - 48 + field * 8;
        &mut bytes[at..at + 8]
    }

    fn set_footer(bytes: &mut [u8], field: usize, value: u64) {
        footer_field(bytes, field).copy_from_slice(&value.to_le_bytes());
    }

    fn get_footer(bytes: &mut [u8], field: usize) -> u64 {
        u64::from_le_bytes(footer_field(bytes, field).try_into().unwrap())
    }

    #[test]
    fn open_rejects_forged_index_len() {
        let err = open_forged("forged-index-len", |b, _| set_footer(b, INDEX_LEN, u64::MAX));
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn open_rejects_forged_index_off() {
        let err = open_forged("forged-index-off", |b, _| set_footer(b, INDEX_OFF, 1 << 40));
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn open_rejects_forged_bloom_off() {
        let err = open_forged("forged-bloom-off", |b, _| {
            let off = get_footer(b, BLOOM_OFF);
            set_footer(b, BLOOM_OFF, off + 1);
        });
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn open_rejects_forged_bloom_len() {
        let err = open_forged("forged-bloom-len", |b, _| set_footer(b, BLOOM_LEN, 1 << 40));
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn open_rejects_forged_entries() {
        let err = open_forged("forged-entries", |b, _| set_footer(b, ENTRIES, u64::MAX));
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn open_rejects_forged_index_count() {
        let err = open_forged("forged-count", |b, _| {
            let at = get_footer(b, INDEX_OFF) as usize;
            b[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn open_rejects_non_contiguous_index() {
        let err = open_forged("forged-extent", |b, table| {
            // Point block 1 back at offset 0: its `offset` field follows
            // the count, entry 0 and entry 1's key.
            let [e0, e1] = [&table.index[0], &table.index[1]];
            let at = get_footer(b, INDEX_OFF) as usize
                + 4
                + (4 + e0.first_key.len() + 8 + 4)
                + (4 + e1.first_key.len());
            assert_eq!(b[at..at + 8], e1.offset.to_le_bytes());
            b[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        });
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_data_block_is_an_error_not_a_miss() {
        let path = tmp("corrupt-block");
        let table = SsTable::build(&path, &sample_entries(300)).unwrap();
        let (offset, first_key) = (table.index[1].offset, table.index[1].first_key.clone());
        let mut bytes = std::fs::read(&path).unwrap();
        // The low byte of the key length of block 1's first record.
        bytes[offset as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let table = SsTable::open(&path).unwrap();
        assert_eq!(table.get(&first_key).unwrap_err().kind(), ErrorKind::InvalidData);
        assert_eq!(table.scan(&first_key, b"z").unwrap_err().kind(), ErrorKind::InvalidData);
        assert_eq!(table.iter_all().unwrap_err().kind(), ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn iter_all_is_ordered_and_complete() {
        let path = tmp("iter");
        let entries = sample_entries(300);
        let table = SsTable::build(&path, &entries).unwrap();
        let all = table.iter_all().unwrap();
        assert_eq!(all, entries);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_respects_bounds() {
        let path = tmp("scan");
        let entries = sample_entries(200);
        let table = SsTable::build(&path, &entries).unwrap();
        let out = table.scan(b"key00000050", b"key00000060").unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].0, b"key00000050".to_vec());
        assert_eq!(out[9].0, b"key00000059".to_vec());
        // Scan before all keys and after all keys.
        assert!(table.scan(b"a", b"b").unwrap().is_empty());
        assert!(table.scan(b"z", b"zz").unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_table() {
        let path = tmp("empty");
        let table = SsTable::build(&path, &[]).unwrap();
        assert!(table.is_empty());
        assert_eq!(table.get(b"x").unwrap(), None);
        assert!(table.iter_all().unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn keys_before_first_block_miss() {
        let path = tmp("before");
        let entries = sample_entries(100);
        let table = SsTable::build(&path, &entries).unwrap();
        assert_eq!(table.block_for(b"aaa"), None);
        assert_eq!(table.get(b"aaa").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_build_publishes_nothing() {
        let path = tmp("atomic");
        let _ = std::fs::remove_file(&path);
        let plan = bdb_faults::FaultPlan::builder(11).torn_write_nth("sst.test.write", 0).build();
        let err = SsTable::build_with(&path, &sample_entries(1000), &plan, "sst.test.write")
            .expect_err("torn write must fail the build");
        assert!(bdb_faults::is_injected(&err));
        assert!(!path.exists(), "no partial table at the final path");
        assert!(!tmp_path(&path).exists(), "partial tmp file removed");
        // A later, fault-free attempt at the same path succeeds cleanly.
        let table = SsTable::build(&path, &sample_entries(1000)).unwrap();
        assert_eq!(table.len(), 1000);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn remove_file_deletes() {
        let path = tmp("remove");
        let table = SsTable::build(&path, &sample_entries(10)).unwrap();
        assert!(path.exists());
        table.remove_file().unwrap();
        assert!(!path.exists());
    }
}
