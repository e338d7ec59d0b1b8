//! Criterion benches for the LSM store: the raw operation costs behind
//! the Cloud OLTP workloads (paper Table 6 rows 5–7).
//!
//! `read` and `scan100` use 100-byte values; `read_1k` and `scan100_1k`
//! use 1 KiB values, the size of the résumé rows the Cloud OLTP
//! workloads store, so a 100-row scan spans about 25 data blocks.

use bdb_kvstore::{Store, StoreConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fresh_store(tag: &str, preload: u32, value_len: usize) -> (Store, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("bdb-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = Store::open_with(
        &dir,
        StoreConfig { memtable_flush_bytes: 4 << 20, max_tables: 8, ..Default::default() },
    )
    .expect("open store");
    for i in 0..preload {
        store.put(format!("row{i:08}").into_bytes(), vec![b'v'; value_len]).expect("preload");
    }
    store.flush().expect("flush");
    (store, dir)
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("oltp");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));

    for (suffix, value_len) in [("", 100), ("_1k", 1024)] {
        let (mut store, dir) = fresh_store(&format!("read{suffix}"), 20_000, value_len);
        let mut rng = StdRng::seed_from_u64(1);
        group.bench_function(format!("read{suffix}"), |b| {
            b.iter(|| {
                let key = format!("row{:08}", rng.gen_range(0..20_000u32));
                store.get(key.as_bytes()).expect("get")
            })
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let (mut store, dir) = fresh_store("write", 1000, 100);
    let mut i = 1_000_000u64;
    group.bench_function("write", |b| {
        b.iter(|| {
            i += 1;
            store.put(format!("row{i:012}").into_bytes(), vec![b'w'; 100]).expect("put")
        })
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    group.throughput(Throughput::Elements(100));
    for (suffix, value_len) in [("", 100), ("_1k", 1024)] {
        let (mut store, dir) = fresh_store(&format!("scan{suffix}"), 20_000, value_len);
        let mut rng = StdRng::seed_from_u64(3);
        group.bench_function(format!("scan100{suffix}"), |b| {
            b.iter(|| {
                let start = rng.gen_range(0..19_000u32);
                store
                    .scan(
                        format!("row{start:08}").as_bytes(),
                        format!("row{:08}", start + 100).as_bytes(),
                    )
                    .expect("scan")
            })
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
