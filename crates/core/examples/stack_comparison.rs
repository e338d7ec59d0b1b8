//! The paper's future-work experiment, as a runnable example: the same
//! WordCount on the MapReduce stack and on the Spark-style in-memory
//! dataflow stack, characterized side by side on the simulated Xeon
//! E5645.
//!
//! ```text
//! cargo run --release -p bigdatabench --example stack_comparison
//! ```

use bdb_archsim::{MachineConfig, SimProbe};
use bdb_dataflow::Dataset;
use bdb_mapreduce::jobs::WordCount;
use bdb_mapreduce::{Engine, FrameworkModel};
use bigdatabench::CharacterizationReport;

fn main() {
    let lines: Vec<String> = bdb_datagen::text::TextGenerator::wikipedia(11)
        .corpus(512 << 10)
        .lines()
        .map(str::to_owned)
        .collect();
    let machine = MachineConfig::xeon_e5645();
    let warm = lines.len() / 5;

    // --- MapReduce (Hadoop-like) stack ---
    let mut probe = SimProbe::new(machine.clone());
    let engine = Engine::builder().build();
    let mut fw = FrameworkModel::new();
    fw.warm(&mut probe);
    engine.run_traced_with(&WordCount, &lines[..warm], &mut probe, &mut fw);
    probe.reset_stats();
    let (hadoop_out, _) = engine.run_traced_with(&WordCount, &lines, &mut probe, &mut fw);
    let hadoop = probe.finish();

    // --- In-memory dataflow (Spark-like) stack ---
    let wordcount = |ds: &Dataset<String>| {
        ds.flat_map(|l| l.split_whitespace().map(str::to_owned).collect())
            .key_by(|w| w.clone())
            .map_values(|_| 1u64)
            .reduce_by_key(|a, b| a + b)
    };
    let mut probe = SimProbe::new(machine);
    wordcount(&Dataset::from_vec(lines[..warm].to_vec())).collect_traced(&mut probe);
    probe.reset_stats();
    let (flow_out, _) = wordcount(&Dataset::from_vec(lines)).collect_traced(&mut probe);
    let dataflow = probe.finish();

    assert_eq!(
        {
            let mut a = hadoop_out.clone();
            a.sort();
            a
        },
        {
            let mut b = flow_out.clone();
            b.sort();
            b
        },
        "both stacks compute the same answer"
    );

    println!(
        "WordCount over 512 KiB of Wikipedia-style text ({} distinct words)\n",
        flow_out.len()
    );
    println!("{:<14} {:>12} {:>12}", "", "MapReduce", "dataflow");
    let row = |name: &str, f: fn(&CharacterizationReport) -> f64| {
        println!("{name:<14} {:>12.3} {:>12.3}", f(&hadoop), f(&dataflow));
    };
    row("L1I MPKI", |r| r.l1i_mpki());
    row("L2 MPKI", |r| r.l2_mpki());
    row("L3 MPKI", |r| r.l3_mpki());
    row("ITLB MPKI", |r| r.itlb_mpki());
    row("DTLB MPKI", |r| r.dtlb_mpki());
    row("IPC", |r| r.ipc());
    println!(
        "\nThe paper's Section 6.3.2 conjecture — that the deep software\n\
         stack causes the front-end stalls — checks out: the in-memory\n\
         engine runs the same job with {:.0}x fewer L1I misses per\n\
         kilo-instruction.",
        hadoop.l1i_mpki() / dataflow.l1i_mpki().max(1e-9)
    );
}
