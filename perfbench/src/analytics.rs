//! `analytics`: native offline and realtime analytics over BDGS inputs.
//!
//! Each pass runs WordCount and Sort through `bdb_mapreduce::Engine::run`
//! on Wikipedia-model text, label-propagation connected components on an
//! R-MAT social graph, and the columnar hash join of e-commerce orders
//! with their items. Mapreduce, graph and sql do almost all the work;
//! kvstore and archsim do none. Inputs are generated during set-up,
//! outside every timed call.

use crate::report::{ratio, Metrics};
use crate::scratch::PrivateDir;
use crate::spans::Recorder;
use crate::stats::{geomean, Samples};
use crate::{sub_seed, Ctx, Outcome};
use bdb_archsim::Probe;
use bdb_datagen::text::TextGenerator;
use bdb_datagen::{GraphGenerator, RmatParams};
use bdb_graph::{cc, CsrGraph};
use bdb_mapreduce::{Emitter, Engine, Job, JobStats};
use bdb_sql::{kernel, ColumnarTable, Table, Value};
use bigdatabench::workloads::query::build_tables;
use bigdatabench::RunScale;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Generated text; Sort reads all of it.
const TEXT_BYTES: usize = 16 << 20;
/// WordCount reads the leading lines of the text up to this size.
const WORDCOUNT_BYTES: usize = 4 << 20;
/// Sort's map-side buffer per task, as in the suite's Sort. The text is
/// four times this, so every pass spills and merges.
const SORT_BUFFER_BYTES: usize = 4 << 20;
/// R-MAT vertices (the suite's CC baseline of 2^15, times four).
const GRAPH_VERTICES: u32 = 1 << 17;
/// ORDER rows (about 6.3 ORDER_ITEM rows each).
const ORDERS: u64 = 32_000;
/// Set-ups per run, spread over it; `setup_s` is their median.
const SETUPS: usize = 3;

/// Word frequency counting with a combiner (the suite's WordCount job).
struct WordCount;

impl Job for WordCount {
    type Input = String;
    type Key = String;
    type Value = u64;
    type Output = (String, u64);
    fn input_size(&self, line: &String) -> usize {
        line.len()
    }
    fn map<P: Probe + ?Sized>(&self, line: &String, emit: &mut Emitter<String, u64>, _: &mut P) {
        for w in line.split_whitespace() {
            emit.emit(w.trim_matches('.').to_owned(), 1);
        }
    }
    fn combine(&self, _: &String, values: Vec<u64>) -> Vec<u64> {
        vec![values.into_iter().sum()]
    }
    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<u64>,
        out: &mut Vec<(String, u64)>,
        _: &mut P,
    ) {
        out.push((key, values.into_iter().sum()));
    }
}

/// Sorts lines by content (the suite's Sort job).
struct Sort;

impl Job for Sort {
    type Input = String;
    type Key = String;
    type Value = ();
    type Output = String;
    fn input_size(&self, line: &String) -> usize {
        line.len()
    }
    fn map<P: Probe + ?Sized>(&self, line: &String, emit: &mut Emitter<String, ()>, _: &mut P) {
        emit.emit(line.clone(), ());
    }
    fn reduce<P: Probe + ?Sized>(
        &self,
        key: String,
        values: Vec<()>,
        out: &mut Vec<String>,
        _: &mut P,
    ) {
        out.extend(values.into_iter().map(|()| key.clone()));
    }
}

struct Inputs {
    lines: Vec<String>,
    /// WordCount reads `lines[..wordcount_lines]`.
    wordcount_lines: usize,
    wordcount_bytes: usize,
    text_bytes: usize,
    graph: CsrGraph,
    orders_rows: Table,
    items_rows: Table,
    orders: ColumnarTable,
    items: ColumnarTable,
}

fn setup(seed: u64, rec: &mut Recorder, samples: &mut Samples) -> Inputs {
    let (text, t_text) =
        rec.call("datagen.text", || TextGenerator::wikipedia(sub_seed(seed, 1)).corpus(TEXT_BYTES));
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    drop(text);
    let (edges, t_graph) = rec.call("datagen.graph", || {
        GraphGenerator::new(RmatParams::facebook_social(), sub_seed(seed, 2))
            .generate(GRAPH_VERTICES)
    });
    let (graph, t_csr) =
        rec.call("graph.csr_build", || CsrGraph::from_edges(edges.nodes, &edges.edges));
    drop(edges);
    let ((orders_rows, items_rows), t_orders) = rec.call("datagen.orders", || {
        build_tables(&RunScale::baseline().with_seed(sub_seed(seed, 3)), ORDERS)
    });
    let ((orders, items), t_columnar) = rec.call("sql.columnar_build", || {
        (ColumnarTable::from_table(&orders_rows), ColumnarTable::from_table(&items_rows))
    });

    let mut wordcount_lines = 0;
    let mut wordcount_bytes = 0;
    while wordcount_bytes < WORDCOUNT_BYTES && wordcount_lines < lines.len() {
        wordcount_bytes += lines[wordcount_lines].len();
        wordcount_lines += 1;
    }
    let text_bytes = lines.iter().map(String::len).sum();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    samples.push("datagen.text_ms", ms(t_text));
    samples.push("datagen.graph_ms", ms(t_graph));
    samples.push("graph.csr_build_ms", ms(t_csr));
    samples.push("datagen.orders_ms", ms(t_orders));
    samples.push("setup_s", (t_text + t_graph + t_csr + t_orders + t_columnar).as_secs_f64());
    Inputs {
        lines,
        wordcount_lines,
        wordcount_bytes,
        text_bytes,
        graph,
        orders_rows,
        items_rows,
        orders,
        items,
    }
}

fn hash_of<T: Hash>(value: T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Order-independent digest of a multiset of hashable items.
fn multiset_digest<T: Hash>(items: impl IntoIterator<Item = T>) -> u64 {
    items.into_iter().fold(0u64, |acc, x| acc.wrapping_add(hash_of(x)))
}

/// Order-dependent digest of join output rows.
fn rows_digest(rows: &[Vec<Value>]) -> u64 {
    rows.iter().flatten().fold(0u64, |acc, v| acc.rotate_left(5) ^ v.hash64())
}

/// Single-threaded reference word count.
fn reference_wordcount(lines: &[String]) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for line in lines {
        for w in line.split_whitespace() {
            *counts.entry(w.trim_matches('.').to_owned()).or_insert(0) += 1;
        }
    }
    counts
}

/// Input sizes, the same for every set-up of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sizes {
    wordcount_bytes: f64,
    text_bytes: f64,
    graph_bytes: f64,
    edges: f64,
    /// The join's input, counted as the suite counts it (row tables).
    join_bytes: f64,
}

impl Sizes {
    fn of(inputs: &Inputs) -> Self {
        Self {
            wordcount_bytes: inputs.wordcount_bytes as f64,
            text_bytes: inputs.text_bytes as f64,
            graph_bytes: inputs.graph.byte_size() as f64,
            edges: inputs.graph.edges() as f64,
            join_bytes: (inputs.orders_rows.byte_size() + inputs.items_rows.byte_size()) as f64,
        }
    }
}

/// Reference answers from independent implementations: a single-threaded
/// `HashMap` word count, union-find components and the row engine's join.
struct Expected {
    wordcount: u64,
    wordcount_len: usize,
    components: Vec<u32>,
    join: u64,
    /// Order-independent digest of Sort's input lines.
    sort: u64,
}

impl Expected {
    fn of(inputs: &Inputs) -> Self {
        let counts = reference_wordcount(&inputs.lines[..inputs.wordcount_lines]);
        let join = bdb_sql::exec::hash_join(
            &inputs.orders_rows,
            "ORDER_ID",
            &inputs.items_rows,
            "ORDER_ID",
        )
        .expect("valid join");
        Self {
            wordcount: multiset_digest(&counts),
            wordcount_len: counts.len(),
            components: cc::connected_components(&inputs.graph),
            join: rows_digest(&join),
            sort: multiset_digest(&inputs.lines),
        }
    }

    /// Sort output must hold every input line once and be sorted within
    /// each of the engine's `partitions` (output is concatenated by
    /// partition).
    fn sort_ok(&self, sorted: &[String], lines: usize, partitions: usize) -> bool {
        let descents = sorted.windows(2).filter(|w| w[0] > w[1]).count();
        sorted.len() == lines && descents < partitions && multiset_digest(sorted) == self.sort
    }
}

/// Records the per-pass totals of the pass's two jobs.
fn push_job_stats(s: &mut Samples, jobs: [&JobStats; 2]) {
    let total = |f: fn(&JobStats) -> f64| jobs.iter().map(|j| f(j)).sum::<f64>();
    s.push("mapreduce.map_ms", total(|j| j.map_time.as_secs_f64() * 1e3));
    s.push("mapreduce.reduce_ms", total(|j| j.reduce_time.as_secs_f64() * 1e3));
    s.push("mapreduce.shuffle_bytes", total(|j| j.shuffle_bytes as f64));
    s.push("mapreduce.spills", total(|j| j.spills as f64));
    s.push("mapreduce.spill_bytes", total(|j| j.spill_bytes as f64));
    s.push("mapreduce.speculative_tasks", total(|j| j.speculative_tasks as f64));
    s.push("mapreduce.retries", total(|j| (j.map_retries + j.reduce_retries) as f64));
}

/// One set-up's inputs with the engines that read them.
struct Segment {
    inputs: Inputs,
    wordcount: Engine,
    sort: Engine,
    /// Spill files live here until the segment ends.
    _spill_dir: PrivateDir,
}

/// What a run gathers across its segments.
#[derive(Default)]
struct RunState {
    setups: Samples,
    /// Pass samples of the plain and the layer-timed run.
    passes: [Samples; 2],
    out: Outcome,
    sizes: Option<Sizes>,
    expected: Option<Expected>,
}

/// Runs the workload: [`SETUPS`] segments of set-up then passes, over
/// `ctx.seconds`.
///
/// # Errors
///
/// Propagates scratch-directory and procfs errors.
pub fn run(ctx: &mut Ctx) -> std::io::Result<Outcome> {
    let (seed, scratch) = (ctx.seed, ctx.scratch);
    let mut state = RunState::default();
    ctx.segments(
        SETUPS,
        &mut state,
        |rec, st| {
            let inputs = setup(seed, rec, &mut st.setups);
            let these = Sizes::of(&inputs);
            let same = *st.sizes.get_or_insert(these) == these;
            st.out.check(same, || "set-ups generated different inputs".into());
            st.expected.get_or_insert_with(|| Expected::of(&inputs));
            let spill_dir = PrivateDir::new(scratch, "spill")?;
            let engine = || Engine::builder().spill_dir(spill_dir.path().to_owned());
            Ok(Segment {
                wordcount: engine().build(),
                sort: engine().map_buffer_bytes(SORT_BUFFER_BYTES).build(),
                inputs,
                _spill_dir: spill_dir,
            })
        },
        |rec, st, seg| {
            let expected = st.expected.as_ref().expect("set up before the first pass");
            let run = rec.run() as usize;
            pass(rec, seg, expected, &mut st.passes[run], &mut st.out);
            Ok(())
        },
    )?;
    let RunState { setups, passes, mut out, sizes, .. } = state;
    let sizes = sizes.expect("at least one set-up");
    println!("{}", setups.describe("setup_s", "s"));

    let mut shared = Metrics::default();
    shared.set("setup_s", setups.median("setup_s"));
    shared.set("peak_rss_mib", crate::procfs::peak_rss_mib()?);
    for name in ["datagen.text_ms", "datagen.graph_ms", "graph.csr_build_ms", "datagen.orders_ms"] {
        shared.set(name, setups.median(name));
    }
    shared.set("graph.edges", sizes.edges);
    out.set_runs(ctx.rec.runs(), &passes, |label, ps| {
        println!("-- {label}");
        for name in
            ["run_s", "mapreduce.wordcount_ms", "mapreduce.sort_ms", "graph.cc_ms", "sql.join_ms"]
        {
            println!("{}", ps.describe(name, if name == "run_s" { "s" } else { "ms" }));
        }
        let mut m = shared.clone();
        run_metrics(&mut m, ps, &sizes);
        Ok(m)
    })?;
    Ok(out)
}

/// Sets the metrics one run's passes give.
fn run_metrics(m: &mut Metrics, ps: &Samples, sizes: &Sizes) {
    // Input MB per second of each job's median call; the end-to-end
    // figure is their geometric mean, so that no one job's share of the
    // pass decides it.
    let rate = |bytes: f64, series: &str| ratio(bytes / 1e6, ps.median(series) / 1e3);
    let rates = [
        rate(sizes.wordcount_bytes, "mapreduce.wordcount_ms"),
        rate(sizes.text_bytes, "mapreduce.sort_ms"),
        rate(sizes.graph_bytes, "graph.cc_ms"),
        rate(sizes.join_bytes, "sql.join_ms"),
    ];
    m.set("throughput", geomean(&rates));
    m.set("wordcount_mb_s", rates[0]);
    m.set("sort_mb_s", rates[1]);
    m.set("join_mb_s", rates[3]);
    m.set("cc_medges_s", rate(sizes.edges, "graph.cc_ms"));
    for name in [
        "run_s",
        "mapreduce.wordcount_ms",
        "mapreduce.sort_ms",
        "graph.cc_ms",
        "sql.join_ms",
        "graph.cc_iterations",
        "sql.join_rows",
        "mapreduce.combine_ratio",
        "mapreduce.map_ms",
        "mapreduce.reduce_ms",
        "mapreduce.shuffle_bytes",
        "mapreduce.spills",
        "mapreduce.spill_bytes",
    ] {
        m.set(name, ps.median(name));
    }
    // Wasted work is rare: report the run's total, not a median.
    m.set("mapreduce.speculative_tasks", ps.sum("mapreduce.speculative_tasks"));
    m.set("mapreduce.retries", ps.sum("mapreduce.retries"));
}

/// One pass over the four jobs. Each output is checked and dropped
/// before the next call, so that outputs do not pile up in memory.
fn pass(
    rec: &mut Recorder,
    seg: &Segment,
    expected: &Expected,
    s: &mut Samples,
    out: &mut Outcome,
) {
    let inputs = &seg.inputs;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let wordcount_input = &inputs.lines[..inputs.wordcount_lines];
    let (wordcount, t_wc) =
        rec.call("mapreduce.wordcount", || seg.wordcount.try_run(&WordCount, wordcount_input));
    let (wordcount, wc_stats) = wordcount.unwrap_or_else(|e| {
        eprintln!("perfbench: wordcount job failed: {e}");
        (Vec::new(), JobStats::default())
    });
    let wc_ok = wordcount.len() == expected.wordcount_len
        && multiset_digest(&wordcount) == expected.wordcount;
    out.check(wc_ok, || "wordcount output differs from the reference count".into());
    drop(wordcount);

    let (sorted, t_sort) = rec.call("mapreduce.sort", || seg.sort.try_run(&Sort, &inputs.lines));
    let (sorted, sort_stats) = sorted.unwrap_or_else(|e| {
        eprintln!("perfbench: sort job failed: {e}");
        (Vec::new(), JobStats::default())
    });
    let sort_ok = expected.sort_ok(&sorted, inputs.lines.len(), seg.sort.reducers());
    out.check(sort_ok, || "sort output is not a sorted permutation of its input".into());
    drop(sorted);

    let ((labels, iterations), t_cc) =
        rec.call("graph.cc", || cc::label_propagation(&inputs.graph));
    out.check(labels == expected.components, || "label propagation differs from union-find".into());
    drop(labels);

    let (join, t_join) = rec.call("sql.join", || {
        kernel::hash_join(&inputs.orders, "ORDER_ID", &inputs.items, "ORDER_ID")
    });
    let join = join.unwrap_or_else(|e| {
        eprintln!("perfbench: join failed: {e:?}");
        Vec::new()
    });
    out.check(rows_digest(&join) == expected.join, || {
        "columnar join differs from the row-engine join".into()
    });

    s.push("run_s", (t_wc + t_sort + t_cc + t_join).as_secs_f64());
    s.push("mapreduce.wordcount_ms", ms(t_wc));
    s.push("mapreduce.sort_ms", ms(t_sort));
    s.push("graph.cc_ms", ms(t_cc));
    s.push("sql.join_ms", ms(t_join));
    s.push("graph.cc_iterations", f64::from(iterations));
    s.push("sql.join_rows", join.len() as f64);
    push_job_stats(s, [&wc_stats, &sort_stats]);
    s.push(
        "mapreduce.combine_ratio",
        ratio(wc_stats.combined_pairs as f64, wc_stats.map_output_pairs as f64),
    );
}
