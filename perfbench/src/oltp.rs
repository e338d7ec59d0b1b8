//! `oltp`: one closed-loop client against a `bdb_kvstore::Store`
//! preloaded with résumé rows.
//!
//! Each pass opens a fresh store in a private directory (the suite's
//! Cloud OLTP config: 2 MiB memtable, at most 6 tables), preloads it,
//! then replays a seeded script of about 80% Zipf(0.7) point gets, 15%
//! puts of new rows and 5% 100-row scans, timing every call. kvstore does
//! all the work; mapreduce, graph, sql and archsim do none. Every record
//! value is generated during set-up, before any call is timed. Every get
//! and scan is checked against a shadow copy of the rows.

use crate::procfs::{read_io, IoCounters};
use crate::report::{ratio, Metrics};
use crate::scratch::PrivateDir;
use crate::spans::Recorder;
use crate::stats::{tail_percentile, Samples};
use crate::{sub_seed, Ctx, Outcome};
use bdb_datagen::convert::resumes_to_kv;
use bdb_datagen::table::zipf_sample;
use bdb_datagen::ResumeGenerator;
use bdb_kvstore::{Store, StoreConfig, StoreStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Duration;

/// Rows loaded before the measured phase: about 12 MB of résumés, so
/// the preloaded store already holds five or six tables and the puts of
/// every pass flush and compact.
const PRELOAD_ROWS: u64 = 13_000;
/// Operations per pass.
const OPS_PER_PASS: usize = 60_000;
/// Share of point gets; then puts up to `GET_SHARE + PUT_SHARE`; the
/// rest are scans.
const GET_SHARE: f64 = 0.80;
const PUT_SHARE: f64 = 0.15;
/// Zipf exponent of get popularity over the rows present.
const ZIPF_S: f64 = 0.7;
/// Rows per scan.
const SCAN_ROWS: u64 = 100;

fn config() -> StoreConfig {
    StoreConfig { memtable_flush_bytes: 2 << 20, max_tables: 6, ..StoreConfig::default() }
}

fn row_key(id: u64) -> Vec<u8> {
    format!("resume{id:012}").into_bytes()
}

/// One client operation; row ids are 1-based.
#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u64),
    /// Puts the next new row.
    Put,
    /// Scans `[start, start + SCAN_ROWS)`.
    Scan(u64),
}

/// A pass's inputs: every row value (preloaded rows first, then the
/// rows the script puts, in order) and the operation script.
struct Script {
    values: Vec<Vec<u8>>,
    ops: Vec<Op>,
}

fn script(seed: u64) -> Script {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 11));
    let mut rows = PRELOAD_ROWS;
    let ops: Vec<Op> = (0..OPS_PER_PASS)
        .map(|_| {
            let u: f64 = rng.gen();
            if u < GET_SHARE {
                Op::Get(zipf_sample(&mut rng, rows, ZIPF_S))
            } else if u < GET_SHARE + PUT_SHARE {
                rows += 1;
                Op::Put
            } else {
                Op::Scan(rng.gen_range(1..=rows))
            }
        })
        .collect();
    let resumes = ResumeGenerator::new(sub_seed(seed, 10)).generate(rows);
    let values = resumes_to_kv(&resumes).into_iter().map(|(_, v)| v.into_bytes()).collect();
    Script { values, ops }
}

/// What one pass's replay measured.
#[derive(Debug, Default)]
struct PassCounters {
    /// Call latencies in microseconds, by operation kind.
    get_us: Vec<f64>,
    put_us: Vec<f64>,
    scan_us: Vec<f64>,
    get: Duration,
    put: Duration,
    scan: Duration,
    /// Time in puts during which a flush or compaction ran.
    stall: Duration,
    stalled_puts: u64,
    get_hits: u64,
    /// Key and value bytes put.
    put_bytes: u64,
    /// Store counters and process I/O before and after the replay.
    stats: (StoreStats, StoreStats),
    io: IoCounters,
}

fn open_and_preload(dir: &Path, values: &[Vec<u8>]) -> std::io::Result<Store> {
    let mut store = Store::open_with(dir, config())?;
    for (i, v) in values.iter().take(PRELOAD_ROWS as usize).enumerate() {
        store.put(row_key(i as u64 + 1), v.clone())?;
    }
    store.flush()?;
    Ok(store)
}

/// Replays the script against `store`, timing every call and checking
/// every result against the script's rows.
///
/// # Errors
///
/// Fails when `/proc/self/io` cannot be read.
fn replay(
    store: &mut Store,
    script: &Script,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> std::io::Result<PassCounters> {
    let mut c = PassCounters::default();
    let stats_before = store.stats();
    let io_before = read_io()?;
    let mut rows = PRELOAD_ROWS;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    for op in &script.ops {
        match *op {
            Op::Get(id) => {
                let key = row_key(id);
                let (got, d) = rec.call("kvstore.get", || store.get(&key));
                c.get += d;
                c.get_us.push(us(d));
                let expected = &script.values[id as usize - 1];
                c.get_hits += u64::from(matches!(got, Ok(Some(_))));
                let ok = matches!(&got, Ok(Some(v)) if v == expected);
                out.check(ok, || format!("get {id}: {:?}", got.map(|v| v.map(|v| v.len()))));
            }
            Op::Put => {
                rows += 1;
                let key = row_key(rows);
                let value = script.values[rows as usize - 1].clone();
                c.put_bytes += (key.len() + value.len()) as u64;
                let before = store.stats();
                let (put, d) = rec.call("kvstore.put", || store.put(key, value));
                let after = store.stats();
                c.put += d;
                c.put_us.push(us(d));
                if after.flushes > before.flushes || after.compactions > before.compactions {
                    c.stalled_puts += 1;
                    c.stall += d;
                }
                out.check(put.is_ok(), || format!("put {rows}: {put:?}"));
            }
            Op::Scan(start) => {
                let (got, d) = rec.call("kvstore.scan", || {
                    store.scan(&row_key(start), &row_key(start + SCAN_ROWS))
                });
                c.scan += d;
                c.scan_us.push(us(d));
                let last = (start + SCAN_ROWS - 1).min(rows);
                let ok = got.as_ref().is_ok_and(|got| {
                    got.len() as u64 == last + 1 - start
                        && got.iter().zip(start..).all(|((k, v), id)| {
                            *k == row_key(id) && *v == script.values[id as usize - 1]
                        })
                });
                out.check(ok, || format!("scan from {start}: {:?}", got.map(|r| r.len())));
            }
        }
    }
    c.io = read_io()?.since(&io_before);
    c.stats = (stats_before, store.stats());
    Ok(c)
}

/// Records one pass's figures; `tables` and `dir_bytes` describe the
/// store after the replay.
fn push_pass(s: &mut Samples, c: &PassCounters, tables: usize, dir_bytes: u64, script: &Script) {
    let (before, after, io) = (&c.stats.0, &c.stats.1, &c.io);
    let ops = script.ops.len() as f64;
    let gets = (after.gets - before.gets) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    s.push("run_s", (c.get + c.put + c.scan).as_secs_f64());
    s.push("kvstore.get_ms", ms(c.get));
    s.push("kvstore.put_ms", ms(c.put));
    s.push("kvstore.scan_ms", ms(c.scan));
    s.push("kvstore.stall_ms", ms(c.stall));
    s.push("kvstore.stalled_puts", c.stalled_puts as f64);
    s.push("kvstore.flushes", (after.flushes - before.flushes) as f64);
    s.push("kvstore.compactions", (after.compactions - before.compactions) as f64);
    s.push("kvstore.tables", tables as f64);
    s.push(
        "kvstore.bloom_skips_per_get",
        ratio((after.bloom_skips - before.bloom_skips) as f64, gets),
    );
    s.push("kvstore.get_hit_frac", ratio(c.get_hits as f64, gets));
    s.push("kvstore.read_bytes_per_op", io.rchar as f64 / ops);
    s.push("kvstore.read_syscalls_per_op", io.syscr as f64 / ops);
    s.push("kvstore.write_amp", ratio(io.wchar as f64, c.put_bytes as f64));
    // Every row of the script is live at the end of the pass.
    let live: usize = script.values.iter().map(|v| v.len() + row_key(1).len()).sum();
    s.push("kvstore.space_amp", ratio(dir_bytes as f64, live as f64));
    for (name, series, p) in [
        ("get_p50_us", &c.get_us, 50.0),
        ("get_p99_us", &c.get_us, 99.0),
        ("put_p50_us", &c.put_us, 50.0),
        ("put_p99_us", &c.put_us, 99.0),
        ("scan_p50_us", &c.scan_us, 50.0),
    ] {
        match tail_percentile(series, p) {
            Some(v) => s.push(name, v),
            None => println!("{name}: fewer than ten samples beyond it in a pass, not reported"),
        }
    }
}

/// Runs the workload: passes for `ctx.seconds`, each on a fresh store
/// with its own set-up.
///
/// # Errors
///
/// Propagates store-open, preload, procfs and scratch-directory errors.
pub fn run(ctx: &mut Ctx) -> std::io::Result<Outcome> {
    let (seed, scratch) = (ctx.seed, ctx.scratch);
    let mut out = Outcome::default();
    let mut setups = Samples::default();
    // Pass samples of the plain and the layer-timed run.
    let mut passes: [Samples; 2] = Default::default();
    ctx.repeat(|rec| {
        rec.enter("bench.setup");
        let (script, t_gen) = rec.call("datagen.resume", || script(seed));
        // Declared before the store, so the store is closed first.
        let dir = PrivateDir::new(scratch, "kv")?;
        let (store, t_preload) =
            rec.call("kvstore.preload", || open_and_preload(dir.path(), &script.values));
        rec.exit();
        let mut store = store?;
        setups.push("setup_s", (t_gen + t_preload).as_secs_f64());
        setups.push("datagen.resume_ms", t_gen.as_secs_f64() * 1e3);
        setups.push("kvstore.preload_ms", t_preload.as_secs_f64() * 1e3);

        let c = replay(&mut store, &script, rec, &mut out)?;
        let ps = &mut passes[rec.run() as usize];
        push_pass(ps, &c, store.table_count(), dir.file_bytes()?, &script);
        Ok(())
    })?;
    println!("{}", setups.describe("setup_s", "s"));

    let mut shared = Metrics::default();
    shared.set("peak_rss_mib", crate::procfs::peak_rss_mib()?);
    for name in ["setup_s", "datagen.resume_ms", "kvstore.preload_ms"] {
        shared.set(name, setups.median(name));
    }
    let percentiles = ["get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us", "scan_p50_us"];
    out.set_runs(ctx.rec.runs(), &passes, |label, ps| {
        println!("-- {label}: {} passes of {OPS_PER_PASS} operations", ps.series("run_s").len());
        println!("{}", ps.describe("run_s", "s"));
        for name in percentiles {
            println!("{}", ps.describe(name, "us"));
        }
        println!("{}", ps.describe("kvstore.compactions", "per pass"));
        let mut m = shared.clone();
        for name in [
            "run_s",
            "kvstore.get_ms",
            "kvstore.put_ms",
            "kvstore.scan_ms",
            "kvstore.stall_ms",
            "kvstore.stalled_puts",
            "kvstore.flushes",
            "kvstore.compactions",
            "kvstore.tables",
            "kvstore.bloom_skips_per_get",
            "kvstore.get_hit_frac",
            "kvstore.read_bytes_per_op",
            "kvstore.read_syscalls_per_op",
            "kvstore.write_amp",
            "kvstore.space_amp",
        ] {
            m.set(name, ps.median(name));
        }
        // Per-pass percentiles; a pass without ten samples beyond one adds
        // none, and a metric no pass could give is left out (reads 0).
        for name in percentiles {
            if !ps.series(name).is_empty() {
                m.set(name, ps.median(name));
            }
        }
        // Operations per second of store-call time, in the median pass.
        let ops_s = ratio(OPS_PER_PASS as f64, ps.median("run_s"));
        m.set("throughput", ops_s);
        m.set("oltp_ops_s", ops_s);
        Ok(m)
    })?;
    Ok(out)
}
