//! Golden-file tests for the workload characterization artifacts: the
//! JSON emission must be byte-stable for a fixed input and seed, the
//! text heatmap must keep its grid aligned under hostile workload
//! names, and the committed repo-root `charmap.json` must stay
//! consistent with the committed `BENCH_RESULTS.json`.

use bdb_charmap::{analyze, report::Baseline, AnalysisInput, MetricVector, DEFAULT_SEED};
use std::path::{Path, PathBuf};

/// A fixed synthetic 8-workload input (three obvious families), so the
/// golden file does not depend on simulator internals: simulator
/// changes legitimately reshape the live map, but the analysis +
/// emission pipeline itself must stay byte-stable.
fn fixed_input() -> AnalysisInput {
    let mk = |name: &str, ipc: f64, l2: f64, fp: f64| MetricVector {
        name: name.into(),
        values: vec![ipc, l2, fp, ipc * 1900.0, 7.0],
    };
    AnalysisInput {
        machine: "Golden Machine".into(),
        fraction: 0.5,
        features: vec![
            "ipc".into(),
            "l2_mpki".into(),
            "fp_frac".into(),
            "mips".into(),
            "constant".into(),
        ],
        vectors: vec![
            mk("WordCount", 1.30, 9.5, 0.001),
            mk("Grep", 1.25, 9.9, 0.002),
            mk("Sort", 0.30, 27.0, 0.001),
            mk("Scan", 0.33, 26.0, 0.002),
            mk("K-means", 1.05, 10.9, 0.076),
            mk("PageRank", 1.06, 12.1, 0.010),
            mk("Join Query", 0.95, 15.5, 0.002),
            mk("Read", 0.90, 16.0, 0.003),
        ],
    }
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/charmap.json")
}

#[test]
fn json_artifact_byte_matches_the_committed_golden() {
    let map = analyze(&fixed_input(), DEFAULT_SEED).expect("analyzes");
    let fresh = map.to_json();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path().parent().unwrap()).expect("mkdir golden/");
        std::fs::write(golden_path(), &fresh).expect("write golden");
    }
    let committed = std::fs::read_to_string(golden_path())
        .expect("tests/golden/charmap.json committed (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        fresh, committed,
        "charmap.json emission drifted from the golden; if intentional, \
         regenerate with: UPDATE_GOLDEN=1 cargo test -p bdb-integration charmap"
    );
    // The golden is also a valid baseline under the stability rule.
    bdb_charmap::validate_baseline(&map, &committed).expect("golden validates against itself");
}

#[test]
fn heatmap_grid_is_stable_under_hostile_workload_names() {
    let mut input = fixed_input();
    input.vectors[0].name = "Word Count \"v2\" (テスト) — a very, very long hostile name".into();
    input.vectors[1].name = "x".into();
    input.vectors[2].name = "tabs\tand\nnewlines".into();
    let map = analyze(&input, DEFAULT_SEED).expect("analyzes");
    let text = map.to_text();

    // Heatmap rows (header + one per workload) all share one rendered
    // width: labels are indices, names live only in the legend.
    let rows: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.contains("Pairwise distance heatmap"))
        .skip(1)
        .take_while(|l| !l.contains("legend"))
        .collect();
    assert_eq!(rows.len(), map.workloads.len() + 1, "header + n rows:\n{text}");
    let widths: std::collections::BTreeSet<usize> =
        rows.iter().map(|r| r.chars().count()).collect();
    assert_eq!(widths.len(), 1, "uniform heatmap width, got {widths:?}:\n{text}");
    // Every workload appears in the legend, hostile or not.
    for (i, _) in map.workloads.iter().enumerate() {
        assert!(text.contains(&format!("[{i}]")), "legend entry [{i}] present");
    }
    // And the JSON artifact round-trips those names exactly.
    let baseline = Baseline::parse(&map.to_json()).expect("hostile names re-parse");
    assert_eq!(baseline.workloads, map.workloads);
}

#[test]
fn committed_repo_artifacts_are_mutually_consistent() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().to_path_buf();
    let charmap = std::fs::read_to_string(root.join("charmap.json"))
        .expect("repo-root charmap.json committed");
    let bench = std::fs::read_to_string(root.join("BENCH_RESULTS.json"))
        .expect("repo-root BENCH_RESULTS.json committed");
    let baseline = Baseline::parse(&charmap).expect("committed charmap parses");

    assert_eq!(baseline.seed, DEFAULT_SEED, "committed map uses the default seed");
    assert!(!baseline.subset.is_empty());
    assert!(baseline.subset.len() < baseline.workloads.len(), "subset is a strict subset");
    assert_eq!(baseline.k, baseline.subset.len(), "one representative per cluster");
    for name in &baseline.subset {
        assert!(baseline.workloads.contains(name), "{name} is a tracked workload");
        // Every representative must be gateable against the committed
        // bench baseline: compare_json with a subset requires it there.
        assert!(
            bench.contains(&format!("\"name\":\"{name}\"")),
            "{name} present in BENCH_RESULTS.json"
        );
    }
    // Both artifacts describe the same run configuration.
    let bench_doc: serde_json::Value = serde_json::from_str(&bench).expect("bench JSON");
    assert_eq!(
        bench_doc.get("machine").and_then(|m| m.as_str()),
        Some(baseline.machine.as_str()),
        "same simulated machine"
    );
    assert_eq!(
        bench_doc.get("fraction").and_then(serde_json::Value::as_f64),
        Some(baseline.fraction),
        "same input fraction"
    );
}
