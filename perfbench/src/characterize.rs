//! `characterize`: `Suite::run_traced` on the simulated Xeon E5645.
//!
//! Each pass traces WordCount, Connected Components, K-means, Read and
//! Join Query, which between them cover every substrate trace model
//! (MapReduce, graph, ML, LSM store, columnar SQL). archsim's
//! cache/TLB/timing model dominates host time here. The simulated counts
//! are exact: they must equal the reference values in
//! `reference_counts.txt` for the seeds listed there, and repeat exactly
//! from pass to pass for any other seed.

use crate::report::{ratio, Metrics};
use crate::stats::{geomean, Samples};
use crate::{Ctx, Outcome};
use bigdatabench::{CharacterizationReport, MachineConfig, Suite, WorkloadId};

/// Suite shrink fraction for the measured passes.
const FRACTION: f64 = 0.5;
/// Set-up warms the simulator and allocator with the same five traced
/// workloads at this smaller fraction; `setup_s` is the median of
/// [`SETUPS`] such warm-ups, spread over the run.
const WARMUP_FRACTION: f64 = FRACTION / 8.0;
const SETUPS: usize = 5;

/// The traced workloads, with the name of their span and of their
/// host-time metric.
const WORKLOADS: [(WorkloadId, &str, &str); 5] = [
    (WorkloadId::WordCount, "archsim.wordcount", "archsim.wordcount_ms"),
    (WorkloadId::ConnectedComponents, "archsim.cc", "archsim.cc_ms"),
    (WorkloadId::KMeans, "archsim.kmeans", "archsim.kmeans_ms"),
    (WorkloadId::Read, "archsim.read", "archsim.read_ms"),
    (WorkloadId::JoinQuery, "archsim.join", "archsim.join_ms"),
];

/// Reference counts: `seed workload <COUNT_NAMES...>` per line.
const REFERENCE: &str = include_str!("../reference_counts.txt");

/// The exact simulated counts checked and reported, in reference-file
/// column order.
const COUNT_NAMES: [&str; 7] = [
    "archsim.instructions",
    "archsim.cycles",
    "archsim.l1d_misses",
    "archsim.l2_misses",
    "archsim.llc_misses",
    "archsim.dtlb_misses",
    "archsim.dram_bytes",
];

fn counts(r: &CharacterizationReport) -> [u64; 7] {
    let llc = r.l3.as_ref().unwrap_or(&r.l2).stats.misses;
    [
        r.instructions(),
        r.cycles,
        r.l1d.stats.misses,
        r.l2.stats.misses,
        llc,
        r.dtlb.stats.misses,
        r.dram_bytes,
    ]
}

/// The reference counts of `workload` at `seed`, if recorded.
fn reference(text: &str, seed: u64, workload: &str) -> Option<[u64; 7]> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()?.parse::<u64>().ok()? != seed || fields.next()? != workload {
            return None;
        }
        let mut out = [0; 7];
        for slot in &mut out {
            *slot = fields.next()?.parse().ok()?;
        }
        fields.next().is_none().then_some(out)
    })
}

/// One reference-file line.
fn reference_line(seed: u64, workload: &str, c: &[u64; 7]) -> String {
    let values: Vec<String> = c.iter().map(u64::to_string).collect();
    format!("{seed} {workload} {}", values.join(" "))
}

/// What a run gathers across its segments.
#[derive(Default)]
struct RunState {
    setups: Samples,
    /// Pass samples of the plain and the layer-timed run.
    passes: [Samples; 2],
    out: Outcome,
    /// Each traced workload's counts in the first pass.
    first: Vec<[u64; 7]>,
    /// L1I + L1D accesses of the first pass.
    accesses: u64,
}

/// Runs the workload: [`SETUPS`] segments of warm-up then passes, over
/// `ctx.seconds`.
///
/// # Errors
///
/// Fails when `/proc/self/status` cannot be read.
pub fn run(ctx: &mut Ctx) -> std::io::Result<Outcome> {
    let machine = MachineConfig::xeon_e5645();
    let seed = ctx.seed;
    let warmup = Suite::with_fraction(WARMUP_FRACTION).with_seed(seed);
    let suite = Suite::with_fraction(FRACTION).with_seed(seed);
    let mut state = RunState::default();
    ctx.segments(
        SETUPS,
        &mut state,
        |rec, st| {
            let (_, t) = rec.call("archsim.warmup", || {
                for (id, _, _) in WORKLOADS {
                    warmup.run_traced(id, 1, machine.clone());
                }
            });
            st.setups.push("setup_s", t.as_secs_f64());
            Ok(())
        },
        |rec, st, ()| {
            let ps = &mut st.passes[rec.run() as usize];
            let mut total = 0.0;
            for (i, (id, span, metric)) in WORKLOADS.into_iter().enumerate() {
                let (report, t) = rec.call(span, || suite.run_traced(id, 1, machine.clone()));
                ps.push(metric, t.as_secs_f64() * 1e3);
                total += t.as_secs_f64();
                let c = counts(&report);
                if st.first.len() == i {
                    st.first.push(c);
                    st.accesses += report.l1i.stats.accesses + report.l1d.stats.accesses;
                }
                let expected =
                    reference(REFERENCE, seed, &format!("{id:?}")).unwrap_or(st.first[i]);
                st.out
                    .check(c == expected, || format!("{id:?} counts {c:?}, expected {expected:?}"));
            }
            ps.push("run_s", total);
            Ok(())
        },
    )?;
    let RunState { setups, passes, mut out, first, accesses } = state;
    for ((id, _, _), c) in WORKLOADS.iter().zip(&first) {
        println!("counts {}", reference_line(seed, &format!("{id:?}"), c));
    }
    println!("{}", setups.describe("setup_s", "s"));

    let mut shared = Metrics::default();
    shared.set("setup_s", setups.median("setup_s"));
    shared.set("peak_rss_mib", crate::procfs::peak_rss_mib()?);
    for (k, name) in COUNT_NAMES.into_iter().enumerate() {
        shared.set(name, first.iter().map(|c| c[k] as f64).sum());
    }
    out.set_runs(ctx.rec.runs(), &passes, |label, ps| {
        println!("-- {label}");
        println!("{}", ps.describe("run_s", "s"));
        for (_, _, metric) in WORKLOADS {
            println!("{}", ps.describe(metric, "ms"));
        }
        let mut m = shared.clone();
        m.set("run_s", ps.median("run_s"));
        for (_, _, metric) in WORKLOADS {
            m.set(metric, ps.median(metric));
        }
        // Simulated Minst per second of the median traced call: for the
        // whole pass, and as the geometric mean over the five workloads,
        // which a seed that shifts work between them moves less.
        let minst = |c: &[u64; 7]| c[0] as f64 / 1e6;
        let rates: Vec<f64> = WORKLOADS
            .iter()
            .zip(&first)
            .map(|((_, _, metric), c)| ratio(minst(c), ps.median(metric) / 1e3))
            .collect();
        m.set("throughput", geomean(&rates));
        let total: f64 = first.iter().map(minst).sum();
        m.set("sim_minst_s", ratio(total, ps.median("run_s")));
        m.set("archsim.ns_per_access", ratio(ps.median("run_s") * 1e9, accesses as f64));
        Ok(m)
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DEFAULT_SEED, HELD_OUT_SEED};

    #[test]
    fn reference_lines_round_trip() {
        let c = [1, 2, 3, 4, 5, 6, 7];
        let text = format!("# header\n{}\n", reference_line(9, "Read", &c));
        assert_eq!(reference(&text, 9, "Read"), Some(c));
        assert_eq!(reference(&text, 9, "WordCount"), None);
        assert_eq!(reference(&text, 8, "Read"), None);
        assert_eq!(reference("9 Read 1 2 3\n", 9, "Read"), None, "short lines are refused");
    }

    #[test]
    fn both_kept_seeds_have_reference_counts_for_every_workload() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for (id, _, _) in WORKLOADS {
                assert!(reference(REFERENCE, seed, &format!("{id:?}")).is_some(), "{seed} {id:?}");
            }
        }
    }
}
