//! # bdb-charmap — workload characterization, PCA + clustering, and
//! representative-subset selection
//!
//! Reproduces the analysis pipeline of Jia et al., *"Characterizing
//! and Subsetting Big Data Workloads"* (IISWC'14), on top of archsim's
//! simulated counters instead of real PMU data:
//!
//! 1. every benchmarked workload is summarized as one fixed, documented
//!    **metric vector** ([`MetricVector`]; base features from
//!    `bdb_archsim::BASE_FEATURES` plus phase-weighted derived ratios);
//! 2. vectors are **z-score normalized** and reduced with **PCA**
//!    (Jacobi eigendecomposition of the covariance matrix, no external
//!    linear-algebra crate), retaining the minimal leading components
//!    covering at least [`VARIANCE_TARGET`] of total variance;
//! 3. **seeded k-means** clusters the workloads in the reduced space,
//!    with `k` swept and chosen by mean silhouette (the paper uses
//!    BIC; both pick the knee of the same tradeoff) and single-linkage
//!    hierarchical clustering as an agreement cross-check;
//! 4. the workload **nearest each centroid** becomes that cluster's
//!    representative; the representatives form the committed subset
//!    that `ci.sh --subset` runs as the cheap per-PR regression gate.
//!
//! The whole pipeline is deterministic and permutation-invariant for a
//! fixed seed (see [`cluster`]), which is what makes the subset safe
//! to commit. [`Charmap::to_json`] / [`Charmap::to_text`] render the
//! artifact pair (`charmap.json`, `charmap.txt`), and
//! [`report::validate_baseline`] enforces the **subset stability
//! rule** the full CI gate uses (see that function's docs).
//!
//! ```
//! use bdb_charmap::{analyze, AnalysisInput, MetricVector, DEFAULT_SEED};
//!
//! let input = AnalysisInput {
//!     machine: "Xeon E5645".into(),
//!     fraction: 1.0,
//!     features: vec!["ipc".into(), "l2_mpki".into()],
//!     vectors: vec![
//!         MetricVector { name: "A".into(), values: vec![1.9, 2.0] },
//!         MetricVector { name: "B".into(), values: vec![2.0, 2.1] },
//!         MetricVector { name: "C".into(), values: vec![0.3, 30.0] },
//!         MetricVector { name: "D".into(), values: vec![0.2, 31.0] },
//!     ],
//! };
//! let map = analyze(&input, DEFAULT_SEED).unwrap();
//! assert!(map.variance_retained >= 0.85);
//! assert_eq!(map.subset.len(), map.k);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod pca;
pub mod report;

pub use cluster::{kmeans, rand_index, silhouette, single_linkage, KMeansResult};
pub use pca::{covariance, jacobi_eigen, zscore, Pca};
pub use report::validate_baseline;

/// Seed for the committed artifact; changing it regenerates a
/// different (equally valid) subset, so treat it like a schema field.
pub const DEFAULT_SEED: u64 = 42;

/// Minimum share of total variance the retained components must cover
/// (the paper keeps components to ~85–90%).
pub const VARIANCE_TARGET: f64 = 0.85;

/// Artifact schema version; bump on incompatible layout changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Most clusters the k sweep will consider (besides `n - 1`).
const MAX_K: usize = 6;

/// One workload's metric vector: a name plus one value per feature of
/// the enclosing [`AnalysisInput::features`] list.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricVector {
    /// Workload name (Table 6 spelling).
    pub name: String,
    /// Feature values, aligned with [`AnalysisInput::features`].
    pub values: Vec<f64>,
}

/// Everything [`analyze`] needs: provenance plus the feature matrix.
#[derive(Debug, Clone)]
pub struct AnalysisInput {
    /// Simulated machine the vectors were measured on.
    pub machine: String,
    /// Input-scale fraction of the runs.
    pub fraction: f64,
    /// Feature names, one per vector column.
    pub features: Vec<String>,
    /// Per-workload vectors; at least 3, consistent widths.
    pub vectors: Vec<MetricVector>,
}

/// One cluster of the final partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Member workload names, sorted.
    pub members: Vec<String>,
    /// The member nearest the centroid — the cluster's representative.
    pub representative: String,
}

/// The full characterization result — everything both emitters and the
/// CI validation need.
#[derive(Debug, Clone)]
pub struct Charmap {
    /// Simulated machine the vectors were measured on.
    pub machine: String,
    /// Input-scale fraction of the runs.
    pub fraction: f64,
    /// Clustering seed.
    pub seed: u64,
    /// Feature names, one per column.
    pub features: Vec<String>,
    /// Workload names in analysis (sorted) order.
    pub workloads: Vec<String>,
    /// Eigenvalues of the standardized covariance matrix, descending.
    pub eigenvalues: Vec<f64>,
    /// Each component's share of total variance.
    pub variance_shares: Vec<f64>,
    /// Number of leading components retained.
    pub retained: usize,
    /// Variance covered by the retained components (≥ the target).
    pub variance_retained: f64,
    /// Retained components as rows of per-feature loadings.
    pub loadings: Vec<Vec<f64>>,
    /// PCA-space scores per workload (n × retained).
    pub scores: Vec<Vec<f64>>,
    /// Chosen cluster count.
    pub k: usize,
    /// Mean silhouette of the chosen partition.
    pub silhouette: f64,
    /// The silhouette sweep: `(k, score)` per candidate.
    pub silhouette_by_k: Vec<(usize, f64)>,
    /// Rand-index agreement between k-means and single-linkage at `k`.
    pub hier_agreement: f64,
    /// Cluster index per workload (aligned with `workloads`).
    pub assignments: Vec<usize>,
    /// The clusters, labeled in order of each cluster's first member.
    pub clusters: Vec<Cluster>,
    /// The representative subset, sorted by workload name.
    pub subset: Vec<String>,
    /// Pairwise Euclidean distances in PCA space (n × n, symmetric).
    pub distances: Vec<Vec<f64>>,
}

/// Runs the full pipeline over `input` with `seed`.
///
/// Vectors are sorted by name first, so the result is independent of
/// the caller's ordering; combined with the permutation-invariant
/// clustering this makes the artifact a pure function of the metric
/// values and the seed.
///
/// # Errors
///
/// Returns an explanation for malformed input: fewer than 3 vectors,
/// ragged or feature-mismatched widths, duplicate or empty names,
/// non-finite values, or a degenerate (zero-variance) matrix.
pub fn analyze(input: &AnalysisInput, seed: u64) -> Result<Charmap, String> {
    if input.vectors.len() < 3 {
        return Err(format!("need at least 3 workload vectors, got {}", input.vectors.len()));
    }
    let p = input.features.len();
    for v in &input.vectors {
        if v.name.is_empty() {
            return Err("workload names must be non-empty".to_owned());
        }
        if v.values.len() != p {
            return Err(format!("workload {}: {} values for {p} features", v.name, v.values.len()));
        }
        if let Some(bad) = v.values.iter().position(|x| !x.is_finite()) {
            return Err(format!(
                "workload {}: feature {} ({}) is not finite",
                v.name, bad, input.features[bad]
            ));
        }
    }
    let mut vectors: Vec<&MetricVector> = input.vectors.iter().collect();
    vectors.sort_by(|a, b| a.name.cmp(&b.name));
    if vectors.windows(2).any(|w| w[0].name == w[1].name) {
        return Err("duplicate workload names".to_owned());
    }
    let workloads: Vec<String> = vectors.iter().map(|v| v.name.clone()).collect();
    let rows: Vec<Vec<f64>> = vectors.iter().map(|v| v.values.clone()).collect();

    let (z, _) = pca::zscore(&rows);
    let fitted = Pca::fit(&z, VARIANCE_TARGET)?;
    let scores = fitted.project(&z);

    let n = workloads.len();
    let candidates: Vec<usize> = (2..=(n - 1).min(MAX_K)).collect();
    let (best, silhouette_by_k) = cluster::sweep_k(&scores, &candidates, seed);
    let hier = cluster::single_linkage(&scores, best.k, seed);
    let hier_agreement = cluster::rand_index(&best.assignments, &hier);

    // Relabel clusters by first appearance over the name-sorted rows so
    // labels (and the JSON) are stable regardless of centroid order.
    let mut relabel: Vec<Option<usize>> = vec![None; best.k];
    let mut next = 0usize;
    for &a in &best.assignments {
        if relabel[a].is_none() {
            relabel[a] = Some(next);
            next += 1;
        }
    }
    let assignments: Vec<usize> =
        best.assignments.iter().map(|&a| relabel[a].expect("labeled")).collect();

    let mut clusters = Vec::with_capacity(best.k);
    for label in 0..best.k {
        let members: Vec<usize> = (0..n).filter(|&i| assignments[i] == label).collect();
        let original = best.assignments[members[0]];
        let centroid = &best.centroids[original];
        let repr = members
            .iter()
            .copied()
            .min_by(|&x, &y| {
                cluster::distance(&scores[x], centroid)
                    .total_cmp(&cluster::distance(&scores[y], centroid))
                    .then_with(|| workloads[x].cmp(&workloads[y]))
            })
            .expect("non-empty cluster");
        clusters.push(Cluster {
            members: members.iter().map(|&i| workloads[i].clone()).collect(),
            representative: workloads[repr].clone(),
        });
    }
    let mut subset: Vec<String> = clusters.iter().map(|c| c.representative.clone()).collect();
    subset.sort();

    let distances: Vec<Vec<f64>> =
        scores.iter().map(|a| scores.iter().map(|b| cluster::distance(a, b)).collect()).collect();
    let mean_silhouette = cluster::silhouette(&scores, &assignments, best.k);

    Ok(Charmap {
        machine: input.machine.clone(),
        fraction: input.fraction,
        seed,
        features: input.features.clone(),
        workloads,
        eigenvalues: fitted.eigenvalues,
        variance_shares: fitted.variance_shares,
        retained: fitted.retained,
        variance_retained: fitted.variance_retained,
        loadings: fitted.components[..fitted.retained].to_vec(),
        scores,
        k: best.k,
        silhouette: mean_silhouette,
        silhouette_by_k,
        hier_agreement,
        assignments,
        clusters,
        subset,
        distances,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eight synthetic "workloads" in three obvious families.
    pub(crate) fn fixture() -> AnalysisInput {
        let mk = |name: &str, ipc: f64, l2: f64, fp: f64| MetricVector {
            name: name.into(),
            values: vec![ipc, l2, fp, ipc * 2.0, 7.0],
        };
        AnalysisInput {
            machine: "Xeon E5645".into(),
            fraction: 0.02,
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

    #[test]
    fn analyze_end_to_end_on_fixture() {
        let map = analyze(&fixture(), DEFAULT_SEED).expect("analyzes");
        assert_eq!(map.workloads.len(), 8);
        assert!(map.variance_retained >= VARIANCE_TARGET);
        assert!(map.retained >= 1);
        assert_eq!(map.subset.len(), map.k);
        assert_eq!(map.clusters.len(), map.k);
        // Every workload belongs to exactly one cluster.
        let all: Vec<&String> = map.clusters.iter().flat_map(|c| c.members.iter()).collect();
        assert_eq!(all.len(), 8);
        // Representatives are members of their own cluster.
        for c in &map.clusters {
            assert!(c.members.contains(&c.representative));
        }
        // Workloads are analyzed in sorted order for stable output.
        let mut sorted = map.workloads.clone();
        sorted.sort();
        assert_eq!(map.workloads, sorted);
    }

    #[test]
    fn analysis_is_independent_of_input_order() {
        let input = fixture();
        let mut shuffled = input.clone();
        shuffled.vectors.reverse();
        shuffled.vectors.swap(1, 4);
        let a = analyze(&input, DEFAULT_SEED).unwrap();
        let b = analyze(&shuffled, DEFAULT_SEED).unwrap();
        assert_eq!(a.subset, b.subset);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn malformed_inputs_are_rejected_with_reasons() {
        let mut two = fixture();
        two.vectors.truncate(2);
        assert!(analyze(&two, 1).unwrap_err().contains("at least 3"));

        let mut ragged = fixture();
        ragged.vectors[1].values.pop();
        assert!(analyze(&ragged, 1).unwrap_err().contains("values for"));

        let mut dup = fixture();
        dup.vectors[1].name = dup.vectors[0].name.clone();
        assert!(analyze(&dup, 1).unwrap_err().contains("duplicate"));

        let mut nan = fixture();
        nan.vectors[2].values[1] = f64::NAN;
        assert!(analyze(&nan, 1).unwrap_err().contains("not finite"));
    }
}
