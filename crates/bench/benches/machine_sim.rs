//! Criterion benches for the architecture simulator itself: events per
//! second through the cache hierarchy (the cost of characterization).

use bdb_archsim::{MachineConfig, MachineSim};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("archsim");
    group.sample_size(20);
    group.throughput(Throughput::Elements(10_000));

    group.bench_function("sequential_loads_10k", |b| {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        let mut base = 0u64;
        b.iter(|| {
            for i in 0..10_000u64 {
                m.data_access(base + i * 64, 8, false);
            }
            base += 10_000 * 64;
        })
    });

    group.bench_function("random_loads_10k", |b| {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        let mut x = 0x12345u64;
        b.iter(|| {
            for _ in 0..10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                m.data_access(x % (1 << 30), 8, false);
            }
        })
    });

    // An 8 MiB window is 32x the L2 but fits the 12 MiB L3: once warm,
    // most loads miss L2 and hit the L3, whose 12,288 sets are not a
    // power of two.
    group.bench_function("l3_resident_random_10k", |b| {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        let mut x = 0x12345u64;
        b.iter(|| {
            for _ in 0..10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                m.data_access((x >> 16) % (8 << 20), 8, false);
            }
        })
    });

    group.bench_function("ifetch_10k", |b| {
        let mut m = MachineSim::new(MachineConfig::xeon_e5645());
        let region = bdb_archsim::CodeRegion::sized(0x400000, 4096);
        b.iter(|| {
            for _ in 0..10_000 {
                m.ifetch(region);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
