//! Artifact emitters (`charmap.txt`, `charmap.json`) and the subset
//! stability rule the full CI gate enforces.
//!
//! The JSON artifact is schema-versioned and written with a stable key
//! order and shortest-round-trip floats, so re-running the pipeline on
//! unchanged inputs reproduces it byte-for-byte. The text artifact is
//! the human-readable companion: variance and loadings tables, cluster
//! membership, the chosen subset, and a pairwise-distance heatmap.
//!
//! The heatmap labels rows and columns by workload *index* and prints
//! a legend below, so column widths are fixed regardless of how long
//! or hostile (embedded spaces, unicode, quotes) workload names get.

use crate::{Charmap, SCHEMA_VERSION, VARIANCE_TARGET};
use bdb_telemetry::json::{
    self, write_array, write_escaped, write_f64, ArrayWriter, Json, ObjectWriter,
};
use std::fmt::Write as _;

impl Charmap {
    /// Renders the schema-versioned JSON artifact with stable key
    /// order; a pure function of the analysis result.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut o = ObjectWriter::new(&mut out);
        o.field_u64("schema_version", SCHEMA_VERSION)
            .field_str("machine", &self.machine)
            .field_f64("fraction", self.fraction)
            .field_u64("seed", self.seed)
            .field_f64("variance_target", VARIANCE_TARGET);
        write_strs(o.field_raw("features"), &self.features);
        write_strs(o.field_raw("workloads"), &self.workloads);
        {
            let mut pca = ObjectWriter::new(o.field_raw("pca"));
            write_f64s(pca.field_raw("eigenvalues"), &self.eigenvalues);
            write_f64s(pca.field_raw("variance_shares"), &self.variance_shares);
            pca.field_u64("retained", self.retained as u64)
                .field_f64("variance_retained", self.variance_retained);
            write_matrix(pca.field_raw("loadings"), &self.loadings);
            pca.finish();
        }
        write_matrix(o.field_raw("scores"), &self.scores);
        {
            let mut c = ObjectWriter::new(o.field_raw("clustering"));
            c.field_u64("k", self.k as u64).field_f64("silhouette", self.silhouette);
            write_array(c.field_raw("silhouette_by_k"), &self.silhouette_by_k, |out, &(k, s)| {
                let mut pair = ArrayWriter::new(out);
                pair.item().push_str(&k.to_string());
                write_f64(pair.item(), s);
                pair.finish();
            });
            c.field_f64("hier_agreement", self.hier_agreement);
            write_array(c.field_raw("assignments"), &self.assignments, |out, a| {
                out.push_str(&a.to_string());
            });
            write_array(c.field_raw("clusters"), &self.clusters, |out, cluster| {
                let mut m = ObjectWriter::new(out);
                write_strs(m.field_raw("members"), &cluster.members);
                m.field_str("representative", &cluster.representative);
                m.finish();
            });
            c.finish();
        }
        write_strs(o.field_raw("subset"), &self.subset);
        write_matrix(o.field_raw("distances"), &self.distances);
        o.finish();
        out.push('\n');
        out
    }

    /// Renders the human-readable `charmap.txt` companion report.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "BigDataBench workload characterization map");
        let _ = writeln!(out, "==========================================");
        let _ = writeln!(out, "machine:   {}", self.machine);
        let _ = writeln!(out, "fraction:  {}", self.fraction);
        let _ = writeln!(out, "seed:      {}", self.seed);
        let _ = writeln!(
            out,
            "workloads: {}   features: {}",
            self.workloads.len(),
            self.features.len()
        );
        out.push('\n');

        let _ = writeln!(out, "PCA variance (target {:.0}%)", VARIANCE_TARGET * 100.0);
        let _ = writeln!(out, "  comp  eigenvalue     share  cumulative  kept");
        let mut cumulative = 0.0;
        for (i, (ev, share)) in self.eigenvalues.iter().zip(&self.variance_shares).enumerate() {
            cumulative += share;
            let _ = writeln!(
                out,
                "  PC{:<3} {:>10.4}  {:>7.2}%  {:>9.2}%  {}",
                i + 1,
                ev,
                share * 100.0,
                cumulative * 100.0,
                if i < self.retained { "*" } else { " " }
            );
        }
        let _ = writeln!(
            out,
            "  retained {} of {} components covering {:.2}% of variance",
            self.retained,
            self.eigenvalues.len(),
            self.variance_retained * 100.0
        );
        out.push('\n');

        let feat_width = self.features.iter().map(String::len).max().unwrap_or(7).max(7);
        let _ = writeln!(out, "Component loadings (feature weight per retained component)");
        let mut header = format!("  {:<feat_width$}", "feature");
        for c in 0..self.retained {
            let _ = write!(header, "  {:>8}", format!("PC{}", c + 1));
        }
        let _ = writeln!(out, "{header}");
        for (f, name) in self.features.iter().enumerate() {
            let mut row = format!("  {name:<feat_width$}");
            for comp in &self.loadings {
                let _ = write!(row, "  {:>8.4}", comp[f]);
            }
            let _ = writeln!(out, "{row}");
        }
        out.push('\n');

        let _ = writeln!(out, "Silhouette sweep (chosen k = {})", self.k);
        for (k, s) in &self.silhouette_by_k {
            let marker = if *k == self.k { "  <- chosen" } else { "" };
            let _ = writeln!(out, "  k={k}: {s:.4}{marker}");
        }
        let _ = writeln!(
            out,
            "  single-linkage cross-check agreement (Rand index): {:.4}",
            self.hier_agreement
        );
        out.push('\n');

        let _ = writeln!(out, "Clusters and representatives");
        for (i, c) in self.clusters.iter().enumerate() {
            let _ = writeln!(out, "  cluster {i} (representative: {})", c.representative);
            for m in &c.members {
                let mark = if *m == c.representative { "*" } else { " " };
                let _ = writeln!(out, "    {mark} {m}");
            }
        }
        out.push('\n');

        let _ = writeln!(
            out,
            "Representative subset ({} of {} workloads)",
            self.subset.len(),
            self.workloads.len()
        );
        for name in &self.subset {
            let _ = writeln!(out, "  - {name}");
        }
        out.push('\n');

        // Index-labeled heatmap: widths depend only on workload count.
        let _ = writeln!(out, "Pairwise distance heatmap (PCA space)");
        let idx_width = format!("[{}]", self.workloads.len().saturating_sub(1)).len();
        let mut header = format!("  {:>idx_width$}", "");
        for i in 0..self.workloads.len() {
            let _ = write!(header, " {:>6}", format!("[{i}]"));
        }
        let _ = writeln!(out, "{header}");
        for (i, row) in self.distances.iter().enumerate() {
            let mut line = format!("  {:>idx_width$}", format!("[{i}]"));
            for v in row {
                let _ = write!(line, " {v:>6.2}");
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "  legend:");
        for (i, name) in self.workloads.iter().enumerate() {
            let _ = writeln!(out, "    [{i}] {name}");
        }
        out
    }
}

fn write_strs(out: &mut String, values: &[String]) {
    write_array(out, values, |out, v| write_escaped(out, v));
}

fn write_f64s(out: &mut String, values: &[f64]) {
    write_array(out, values, |out, &v| write_f64(out, v));
}

fn write_matrix(out: &mut String, rows: &[Vec<f64>]) {
    write_array(out, rows, |out, row| write_f64s(out, row));
}

/// The committed-baseline fields the stability rule compares against.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Artifact schema version.
    pub schema_version: u64,
    /// Simulated machine of the committed run.
    pub machine: String,
    /// Input-scale fraction of the committed run.
    pub fraction: f64,
    /// Clustering seed of the committed run.
    pub seed: u64,
    /// Committed cluster count.
    pub k: usize,
    /// Committed representative subset, sorted.
    pub subset: Vec<String>,
    /// Committed workload list.
    pub workloads: Vec<String>,
}

impl Baseline {
    /// Parses the fields this module needs from a committed
    /// `charmap.json` document.
    ///
    /// # Errors
    ///
    /// Returns a description for malformed JSON or missing fields.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("charmap baseline: {e}"))?;
        let num = |path: &[&str]| -> Result<f64, String> {
            let mut v: &Json = &doc;
            for key in path {
                v = v
                    .get(key)
                    .ok_or_else(|| format!("charmap baseline: missing {}", path.join(".")))?;
            }
            v.as_f64()
                .ok_or_else(|| format!("charmap baseline: {} is not a number", path.join(".")))
        };
        let strs = |key: &str| -> Result<Vec<String>, String> {
            doc.get(key)
                .and_then(Json::as_str_array)
                .map(|v| v.into_iter().map(str::to_owned).collect())
                .ok_or_else(|| format!("charmap baseline: missing string array {key}"))
        };
        Ok(Self {
            schema_version: num(&["schema_version"])? as u64,
            machine: doc
                .get("machine")
                .and_then(Json::as_str)
                .ok_or("charmap baseline: missing machine")?
                .to_owned(),
            fraction: num(&["fraction"])?,
            seed: num(&["seed"])? as u64,
            k: num(&["clustering", "k"])? as usize,
            subset: strs("subset")?,
            workloads: strs("workloads")?,
        })
    }
}

/// Validates a freshly computed [`Charmap`] against the committed
/// `charmap.json`, enforcing the documented **subset stability rule**:
///
/// 1. the runs must be comparable — same schema version, machine,
///    fraction, seed, and workload list;
/// 2. the fresh run must retain at least [`VARIANCE_TARGET`] variance;
/// 3. the fresh run must choose the same `k`; and
/// 4. every fresh cluster must contain **exactly one** committed
///    representative.
///
/// Rule 4 is deliberately looser than byte equality: a representative
/// may drift *within* its cluster (tiny counter deltas moving which
/// member sits nearest the centroid) without failing the gate, but any
/// change to the cluster *structure* — representatives merging into
/// one cluster, or a cluster with none — means the committed subset no
/// longer covers the workload space and must be regenerated.
///
/// # Errors
///
/// Returns a human-readable explanation of the first violated rule.
pub fn validate_baseline(fresh: &Charmap, committed_json: &str) -> Result<(), String> {
    let committed = Baseline::parse(committed_json)?;
    if committed.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "charmap schema mismatch: committed v{}, tool writes v{SCHEMA_VERSION}",
            committed.schema_version
        ));
    }
    if committed.machine != fresh.machine {
        return Err(format!(
            "charmap machine mismatch: committed {:?}, fresh {:?}",
            committed.machine, fresh.machine
        ));
    }
    if committed.fraction != fresh.fraction {
        return Err(format!(
            "charmap fraction mismatch: committed {}, fresh {}",
            committed.fraction, fresh.fraction
        ));
    }
    if committed.seed != fresh.seed {
        return Err(format!(
            "charmap seed mismatch: committed {}, fresh {}",
            committed.seed, fresh.seed
        ));
    }
    if committed.workloads != fresh.workloads {
        return Err(format!(
            "charmap workload list changed: committed {:?}, fresh {:?} — regenerate the baseline",
            committed.workloads, fresh.workloads
        ));
    }
    if fresh.variance_retained < VARIANCE_TARGET {
        return Err(format!(
            "charmap retains only {:.2}% variance (target {:.0}%)",
            fresh.variance_retained * 100.0,
            VARIANCE_TARGET * 100.0
        ));
    }
    if committed.k != fresh.k {
        return Err(format!(
            "charmap cluster count drifted: committed k={}, fresh k={} — regenerate the baseline",
            committed.k, fresh.k
        ));
    }
    for (i, cluster) in fresh.clusters.iter().enumerate() {
        let reps: Vec<&String> =
            cluster.members.iter().filter(|m| committed.subset.contains(m)).collect();
        if reps.len() != 1 {
            return Err(format!(
                "charmap subset unstable: fresh cluster {i} ({:?}) contains {} committed \
                 representatives (want exactly 1 of {:?}) — regenerate the baseline",
                cluster.members,
                reps.len(),
                committed.subset
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, tests::fixture, DEFAULT_SEED};

    #[test]
    fn json_artifact_round_trips_and_is_stable() {
        let map = analyze(&fixture(), DEFAULT_SEED).unwrap();
        let doc = map.to_json();
        assert_eq!(doc, map.to_json(), "emission is pure");
        let baseline = Baseline::parse(&doc).expect("parses back");
        assert_eq!(baseline.schema_version, SCHEMA_VERSION);
        assert_eq!(baseline.k, map.k);
        assert_eq!(baseline.subset, map.subset);
        assert_eq!(baseline.workloads, map.workloads);
        assert_eq!(baseline.seed, DEFAULT_SEED);
    }

    #[test]
    fn fresh_run_validates_against_its_own_artifact() {
        let map = analyze(&fixture(), DEFAULT_SEED).unwrap();
        validate_baseline(&map, &map.to_json()).expect("self-consistent");
    }

    #[test]
    fn stability_rule_allows_in_cluster_representative_drift() {
        let map = analyze(&fixture(), DEFAULT_SEED).unwrap();
        // Move one committed representative to a same-cluster sibling.
        let mut drifted = map.clone();
        let cluster = drifted
            .clusters
            .iter_mut()
            .find(|c| c.members.len() > 1)
            .expect("a multi-member cluster");
        let rep = cluster.representative.clone();
        let sibling = cluster.members.iter().find(|m| **m != rep).expect("sibling member").clone();
        cluster.representative = sibling.clone();
        drifted.subset = drifted.clusters.iter().map(|c| c.representative.clone()).collect();
        drifted.subset.sort();
        // The drifted artifact still passes against the original run.
        validate_baseline(&map, &drifted.to_json()).expect("in-cluster drift tolerated");
    }

    #[test]
    fn stability_rule_rejects_structural_drift() {
        let map = analyze(&fixture(), DEFAULT_SEED).unwrap();

        let mut other_k = map.clone();
        other_k.k += 1;
        let err = validate_baseline(&map, &other_k.to_json()).unwrap_err();
        assert!(err.contains("cluster count drifted"), "{err}");

        // A committed subset whose representatives pile into one fresh
        // cluster no longer covers the space.
        let mut piled = map.clone();
        let donor = piled.clusters.iter().position(|c| c.members.len() > 1).expect("multi-member");
        let member = piled.clusters[donor]
            .members
            .iter()
            .find(|m| **m != piled.clusters[donor].representative)
            .unwrap()
            .clone();
        let victim = (0..piled.clusters.len()).find(|&i| i != donor).expect("second cluster");
        piled.clusters[victim].representative = member;
        piled.subset = piled.clusters.iter().map(|c| c.representative.clone()).collect();
        piled.subset.sort();
        let err = validate_baseline(&map, &piled.to_json()).unwrap_err();
        assert!(err.contains("subset unstable"), "{err}");

        let mut reseeded = map.clone();
        reseeded.seed += 1;
        let err = validate_baseline(&map, &reseeded.to_json()).unwrap_err();
        assert!(err.contains("seed mismatch"), "{err}");
    }

    #[test]
    fn text_report_lists_every_section_with_indexed_heatmap() {
        let mut input = fixture();
        // Hostile names must not disturb the heatmap grid.
        input.vectors[0].name = "Word Count \"v2\" — extremely long hostile name".into();
        let map = analyze(&input, DEFAULT_SEED).unwrap();
        let text = map.to_text();
        for section in [
            "PCA variance",
            "Component loadings",
            "Silhouette sweep",
            "Clusters and representatives",
            "Representative subset",
            "Pairwise distance heatmap",
            "legend:",
        ] {
            assert!(text.contains(section), "missing section {section:?}\n{text}");
        }
        // Heatmap rows all share one width, independent of names.
        let rows: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.contains("heatmap"))
            .skip(1)
            .take_while(|l| !l.contains("legend"))
            .collect();
        assert_eq!(rows.len(), map.workloads.len() + 1, "header + n rows");
        let widths: std::collections::HashSet<usize> = rows.iter().map(|r| r.len()).collect();
        assert_eq!(widths.len(), 1, "uniform heatmap widths, got {widths:?}");
    }
}
