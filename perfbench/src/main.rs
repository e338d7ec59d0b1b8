//! Host-clock benchmark of BigDataBench-RS.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <analytics|oltp|characterize> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed`;
//! each workload repeats its measured pass for `--seconds`, checks every
//! output and prints, as its last line, one JSON object with the outcome
//! counts and its metrics: the end-to-end ones with `--trace 0`, the
//! per-layer ones with `--trace 1`. Scratch files and the Chrome trace of
//! a layer-timed run stay under `.perfbench-run/` in the current
//! directory. See `perfbench/README.md` for the design.

mod analytics;
mod characterize;
mod oltp;
mod procfs;
mod report;
mod scratch;
mod spans;
mod stats;

use report::{Metric, Metrics, END_TO_END, FROM_PLAIN_RUN, PER_LAYER};
use spans::Recorder;
use stats::Samples;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Seed used when `--seed` is not given; characterize's reference counts
/// are kept for it.
pub const DEFAULT_SEED: u64 = 42;
/// A second seed with its own reference counts, kept out of tuning so
/// that claims can be re-checked on it.
pub const HELD_OUT_SEED: u64 = 7919;
/// A run measures at least this many passes, however long they take.
const MIN_PASSES: usize = 3;
/// Where runs keep scratch files and traces, relative to the checkout.
const RUN_DIR: &str = ".perfbench-run";

const USAGE: &str =
    "usage: perfbench --workload <analytics|oltp|characterize> [--seed N] [--seconds S] [--trace 0|1]";

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Analytics,
    Oltp,
    Characterize,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "analytics" => Some(Self::Analytics),
            "oltp" => Some(Self::Oltp),
            "characterize" => Some(Self::Characterize),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Analytics => "analytics",
            Self::Oltp => "oltp",
            Self::Characterize => "characterize",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Self { workload, seed, seconds, trace })
    }
}

/// What a workload gets to run with.
pub struct Ctx<'a> {
    /// Input seed.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Directory for the run's private scratch directories.
    pub scratch: &'a Path,
    /// Times the layer calls.
    pub rec: Recorder,
}

impl Ctx<'_> {
    /// Calls `pass` until `seconds` have gone by, and at least
    /// [`MIN_PASSES`] times per run; stops only after a pass of every
    /// run. Returns the number of passes.
    ///
    /// # Errors
    ///
    /// Stops at the first error `pass` returns.
    pub fn repeat(
        &mut self,
        mut pass: impl FnMut(&mut Recorder) -> std::io::Result<()>,
    ) -> std::io::Result<usize> {
        let runs = self.rec.runs();
        let start = Instant::now();
        let mut n = 0;
        while n < MIN_PASSES * runs || n % runs != 0 || start.elapsed().as_secs_f64() < self.seconds
        {
            self.rec.begin_pass();
            let done = pass(&mut self.rec);
            self.rec.end_pass();
            done?;
            n += 1;
        }
        Ok(n)
    }

    /// Splits the measured time into `setups` segments. Each segment
    /// builds fresh inputs with `setup`, then calls `pass` on them until
    /// its share of `seconds` has gone by, at least once per run and
    /// ending after a pass of every run; both get the run's `state`. Spreading the set-ups over the whole run keeps one
    /// slow spell of the host from deciding the set-up median. Returns
    /// the number of passes.
    ///
    /// # Errors
    ///
    /// Stops at the first error `setup` or `pass` returns.
    pub fn segments<S, T>(
        &mut self,
        setups: usize,
        state: &mut S,
        mut setup: impl FnMut(&mut Recorder, &mut S) -> std::io::Result<T>,
        mut pass: impl FnMut(&mut Recorder, &mut S, &T) -> std::io::Result<()>,
    ) -> std::io::Result<usize> {
        let runs = self.rec.runs();
        let share = self.seconds / setups as f64;
        let mut n = 0;
        for _ in 0..setups {
            self.rec.enter("bench.setup");
            let inputs = setup(&mut self.rec, state);
            self.rec.exit();
            let inputs = inputs?;
            let start = Instant::now();
            let mut k = 0;
            while k < runs || k % runs != 0 || start.elapsed().as_secs_f64() < share {
                self.rec.begin_pass();
                let done = pass(&mut self.rec, state, &inputs);
                self.rec.end_pass();
                done?;
                k += 1;
            }
            n += k;
        }
        Ok(n)
    }
}

/// A sub-seed for input stream `tag`, so that generators stay
/// independent of each other.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    (seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// The result of running a workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Metric values of the plain run.
    pub metrics: Metrics,
    /// Metric values of the layer-timed run, when there was one.
    pub layer_timed: Option<Metrics>,
}

impl Outcome {
    /// Sets the metrics of each run from its pass samples: `passes[0]`
    /// for the plain run and, when `runs` is 2, `passes[1]` for the
    /// layer-timed one. `metrics` also prints each run's summary.
    ///
    /// # Errors
    ///
    /// Propagates the errors of `metrics`.
    pub fn set_runs(
        &mut self,
        runs: usize,
        passes: &[Samples; 2],
        mut metrics: impl FnMut(&str, &Samples) -> std::io::Result<Metrics>,
    ) -> std::io::Result<()> {
        self.metrics = metrics("plain run", &passes[0])?;
        if runs == 2 {
            self.layer_timed = Some(metrics("layer-timed run", &passes[1])?);
        }
        Ok(())
    }

    /// Counts one operation, failed unless `ok`; `what` names it in the
    /// error output when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
    }
}

fn run_workload(
    args: &Args,
    scratch: &Path,
    rec: Recorder,
) -> std::io::Result<(Outcome, Recorder)> {
    let mut ctx = Ctx { seed: args.seed, seconds: args.seconds, scratch, rec };
    let outcome = match args.workload {
        Workload::Analytics => analytics::run(&mut ctx)?,
        Workload::Oltp => oltp::run(&mut ctx)?,
        Workload::Characterize => characterize::run(&mut ctx)?,
    };
    Ok((outcome, ctx.rec))
}

fn run(args: &Args) -> std::io::Result<String> {
    let run_dir = PathBuf::from(RUN_DIR);
    let scratch = scratch::PrivateDir::new(&run_dir, "run")?;
    // Code that falls back on the system temp directory (the spill files
    // of an engine left at its default, the suite's OLTP stores) writes
    // inside the checkout too. Set before any thread starts.
    std::env::set_var("TMPDIR", scratch.path());

    println!("perfbench {} seed={} seconds={}", args.workload.name(), args.seed, args.seconds);
    // With --trace 1 the plain and the layer-timed run alternate pass by
    // pass, so that a slow spell of the host hits both alike.
    let rec = if args.trace { Recorder::interleaved() } else { Recorder::plain() };
    let (outcome, rec) = run_workload(args, scratch.path(), rec)?;
    let (mut attempted, mut failed) = (outcome.attempted, outcome.failed);
    let (listed, values): (&[Metric], Metrics) = match outcome.layer_timed {
        Some(mut values) => {
            let trace = run_dir.join(format!("{}.trace.json", args.workload.name()));
            rec.write_chrome_trace(&trace)?;
            println!("{} spans written to {}", rec.span_count(), trace.display());
            let run_s = |m: &Metrics| m.get("run_s").expect("every workload reports run_s");
            values.set("bench.span_overhead_frac", run_s(&values) / run_s(&outcome.metrics) - 1.0);
            for name in FROM_PLAIN_RUN {
                if let Some(v) = outcome.metrics.get(name) {
                    values.set(name, v);
                }
            }
            (PER_LAYER, values)
        }
        None => (END_TO_END, outcome.metrics),
    };

    // Every private directory must be gone by now.
    let left = scratch::leftovers(scratch.path())?;
    attempted += 1;
    if !left.is_empty() {
        failed += 1;
        eprintln!("perfbench: FAILED scratch directories left behind: {left:?}");
    }
    drop(scratch);
    let _ = std::fs::remove_dir(&run_dir); // only if no trace or other run remains
    Ok(report::result_line(attempted, failed, listed, &values))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&["--workload", "oltp", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .expect("valid");
        assert_eq!(a, Args { workload: Workload::Oltp, seed: 7, seconds: 10.0, trace: true });
        let a = parse(&["--workload", "characterize"]).expect("valid");
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(!a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "oltp", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "oltp", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "oltp", "--seed"]).is_err());
        assert!(parse(&["--workload", "oltp", "--verbose", "1"]).is_err());
    }

    #[test]
    fn sub_seeds_differ_by_tag_and_seed() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(5, 3), sub_seed(5, 3));
    }
}
