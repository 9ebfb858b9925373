//! # rwd-datasets
//!
//! Dataset registry for the experiments.
//!
//! The paper evaluates on four SNAP graphs (its Table 2):
//!
//! | Name | Nodes | Edges |
//! |---|---|---|
//! | CAGrQc | 5,242 | 28,968 |
//! | CAHepPh | 12,008 | 236,978 |
//! | Brightkite | 58,228 | 428,156 |
//! | Epinions | 75,872 | 396,026 |
//!
//! Those raw files are not redistributable here, so each dataset has a
//! deterministic **synthetic stand-in**: a Chung–Lu-style power-law graph
//! ([`rwd_graph::generators::power_law_cl`]) with the same `(n, m)` and a
//! heavy-tailed degree profile. Every quantity the paper measures (hitting
//! times, coverage, greedy rankings) is driven by scale and degree
//! distribution, which the stand-ins match.
//!
//! If the genuine SNAP edge lists are available locally, set
//! `RWD_DATA_DIR=/path/to/snap` and [`Dataset::load`] will parse the real
//! file (`ca-GrQc.txt`, `ca-HepPh.txt`, `loc-brightkite_edges.txt`,
//! `soc-Epinions1.txt`) instead.
//!
//! [`scalability_graph`] builds the paper's ten-graph Barabási–Albert series
//! `G_1 … G_10` (Fig. 9) at an arbitrary scale factor.
//!
//! The [`temporal`] module generates deterministic **edge-churn traces**
//! (timestamped insert/delete batches over a BA or Erdős–Rényi base graph)
//! for the evolving-graph subsystem — the shared workload of the
//! `rwdom stream` CLI, the perf gate tests, and the incremental-vs-rebuild
//! equivalence tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod temporal;

pub use temporal::{temporal_trace, TemporalTrace, TemporalTraceSpec, TraceModel};

use std::path::PathBuf;

use rwd_graph::generators::{barabasi_albert, power_law_cl};
use rwd_graph::traversal::largest_component;
use rwd_graph::{CsrGraph, GraphError};

/// Environment variable pointing at a directory with the real SNAP files.
pub const DATA_DIR_ENV: &str = "RWD_DATA_DIR";

/// The four evaluation datasets of the paper (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// General-relativity co-authorship network.
    CaGrQc,
    /// High-energy-physics co-authorship network.
    CaHepPh,
    /// Brightkite location-based social network.
    Brightkite,
    /// Epinions trust network.
    Epinions,
}

/// Static facts about a dataset (the paper's Table 2 row).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Paper display name.
    pub name: &'static str,
    /// Node count reported in Table 2.
    pub nodes: usize,
    /// Edge count reported in Table 2.
    pub edges: usize,
    /// SNAP file name honored under [`DATA_DIR_ENV`].
    pub file: &'static str,
    /// Power-law exponent used for the synthetic stand-in.
    pub gamma: f64,
    /// Deterministic generation seed for the stand-in.
    pub seed: u64,
}

impl Dataset {
    /// All four datasets in Table 2 order.
    pub fn all() -> [Dataset; 4] {
        [
            Dataset::CaGrQc,
            Dataset::CaHepPh,
            Dataset::Brightkite,
            Dataset::Epinions,
        ]
    }

    /// The Table 2 row for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::CaGrQc => DatasetSpec {
                name: "CAGrQc",
                nodes: 5_242,
                edges: 28_968,
                file: "ca-GrQc.txt",
                gamma: 2.4,
                seed: 0xCA_64C,
            },
            Dataset::CaHepPh => DatasetSpec {
                name: "CAHepPh",
                nodes: 12_008,
                edges: 236_978,
                file: "ca-HepPh.txt",
                gamma: 2.2,
                seed: 0xCA_4E9,
            },
            Dataset::Brightkite => DatasetSpec {
                name: "Brightkite",
                nodes: 58_228,
                edges: 428_156,
                file: "loc-brightkite_edges.txt",
                gamma: 2.4,
                seed: 0x0B51_647E,
            },
            Dataset::Epinions => DatasetSpec {
                name: "Epinions",
                nodes: 75_872,
                edges: 396_026,
                file: "soc-Epinions1.txt",
                gamma: 2.2,
                seed: 0x0E41_4104,
            },
        }
    }

    /// Loads the dataset: the real SNAP file when `RWD_DATA_DIR` provides
    /// it, otherwise the full-scale synthetic stand-in.
    pub fn load(self) -> Result<CsrGraph, GraphError> {
        if let Some(path) = self.local_file() {
            let loaded = rwd_graph::edgelist::read_edge_list(path)?;
            return Ok(loaded.graph);
        }
        self.synthetic(1.0)
    }

    /// Path of the real file if present under `RWD_DATA_DIR`.
    pub fn local_file(self) -> Option<PathBuf> {
        let dir = std::env::var_os(DATA_DIR_ENV)?;
        let path = PathBuf::from(dir).join(self.spec().file);
        path.exists().then_some(path)
    }

    /// Deterministic synthetic stand-in at a linear `scale ∈ (0, 1]` of the
    /// published `(n, m)` (scale 1.0 = full size). Edge density is
    /// preserved per scale step.
    pub fn synthetic(self, scale: f64) -> Result<CsrGraph, GraphError> {
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(GraphError::InvalidInput(format!(
                "scale = {scale} outside (0, 1]"
            )));
        }
        let spec = self.spec();
        let n = ((spec.nodes as f64 * scale) as usize).max(64);
        let m = ((spec.edges as f64 * scale) as usize).max(n);
        let m = m.min(n * (n - 1) / 2);
        power_law_cl(n, m, spec.gamma, spec.seed)
    }

    /// Like [`Dataset::synthetic`] but restricted to the largest connected
    /// component — the natural domain for random-walk experiments.
    pub fn synthetic_connected(self, scale: f64) -> Result<CsrGraph, GraphError> {
        let g = self.synthetic(scale)?;
        Ok(largest_component(&g).0)
    }
}

/// The paper's scalability series (Fig. 9): graph `G_i` has `i·0.1M` nodes
/// and `i·1M` edges for `i = 1..=10`, generated with the same power-law
/// model the paper cites. `scale` shrinks the whole series linearly
/// (`scale = 1.0` is paper-sized; the repro harness defaults to 0.1).
pub fn scalability_graph(i: usize, scale: f64) -> Result<CsrGraph, GraphError> {
    if !(1..=10).contains(&i) {
        return Err(GraphError::InvalidInput(format!("i = {i} outside 1..=10")));
    }
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(GraphError::InvalidInput(format!(
            "scale = {scale} outside (0, 1]"
        )));
    }
    let n = ((i as f64 * 100_000.0 * scale) as usize).max(128);
    // BA with m_attach = 10 yields ≈ 10·n edges = the paper's i million.
    barabasi_albert(n, 10, 0x5CA1E + i as u64)
}

/// One row of Table 2: `(name, published n, published m, generated n, generated m)`.
pub type Table2Row = (String, usize, usize, usize, usize);

/// Table 2 rows `(name, published n, published m, generated n, generated m)`
pub fn table2(scale: f64) -> Result<Vec<Table2Row>, GraphError> {
    Dataset::all()
        .into_iter()
        .map(|d| {
            let spec = d.spec();
            let g = d.synthetic(scale)?;
            Ok((spec.name.to_string(), spec.nodes, spec.edges, g.n(), g.m()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_graph::stats::degree_stats;

    #[test]
    fn specs_match_paper_table_2() {
        let specs: Vec<_> = Dataset::all().iter().map(|d| d.spec()).collect();
        assert_eq!(specs[0].nodes, 5_242);
        assert_eq!(specs[0].edges, 28_968);
        assert_eq!(specs[1].nodes, 12_008);
        assert_eq!(specs[1].edges, 236_978);
        assert_eq!(specs[2].nodes, 58_228);
        assert_eq!(specs[2].edges, 428_156);
        assert_eq!(specs[3].nodes, 75_872);
        assert_eq!(specs[3].edges, 396_026);
    }

    #[test]
    fn synthetic_scaled_counts() {
        let g = Dataset::CaGrQc.synthetic(0.1).unwrap();
        assert_eq!(g.n(), 524);
        assert_eq!(g.m(), 2_896);
    }

    #[test]
    fn synthetic_full_scale_epinions_shape() {
        // Full-size generation must be fast and exact in (n, m).
        let g = Dataset::Epinions.synthetic(1.0).unwrap();
        assert_eq!(g.n(), 75_872);
        assert_eq!(g.m(), 396_026);
        let s = degree_stats(&g);
        assert!(s.max as f64 > 10.0 * s.mean, "heavy tail expected");
    }

    #[test]
    fn synthetic_deterministic() {
        let a = Dataset::Brightkite.synthetic(0.05).unwrap();
        let b = Dataset::Brightkite.synthetic(0.05).unwrap();
        assert_eq!(a.targets(), b.targets());
    }

    #[test]
    fn connected_variant_is_connected() {
        let g = Dataset::CaGrQc.synthetic_connected(0.1).unwrap();
        assert!(rwd_graph::traversal::connected_components(&g).is_connected());
        assert!(g.n() > 400, "LCC should retain most nodes");
    }

    #[test]
    fn scalability_series_is_linear() {
        let g1 = scalability_graph(1, 0.02).unwrap();
        let g2 = scalability_graph(2, 0.02).unwrap();
        assert_eq!(g1.n(), 2_000);
        assert_eq!(g2.n(), 4_000);
        // ≈10 edges per node.
        assert!((g1.m() as f64 / g1.n() as f64 - 10.0).abs() < 0.5);
        assert!(scalability_graph(0, 0.1).is_err());
        assert!(scalability_graph(11, 0.1).is_err());
    }

    #[test]
    fn bad_scale_rejected() {
        assert!(Dataset::CaGrQc.synthetic(0.0).is_err());
        assert!(Dataset::CaGrQc.synthetic(1.5).is_err());
        assert!(scalability_graph(3, 0.0).is_err());
    }

    #[test]
    fn table2_reports_both_published_and_generated() {
        let rows = table2(0.05).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, "CAGrQc");
        assert_eq!(rows[0].1, 5_242);
        assert!(rows[0].3 >= 64);
    }

    #[test]
    fn standins_carry_heavy_tails() {
        // The whole point of the substitution: the stand-ins must look like
        // power-law social networks. Check the Hill tail exponent lands in
        // the social-network range on a mid-sized sample of each.
        for d in Dataset::all() {
            let g = d.synthetic(0.3).unwrap();
            let gamma = rwd_graph::stats::degree_tail_exponent(&g, 0.1)
                .unwrap_or_else(|| panic!("{}: no measurable tail", d.spec().name));
            assert!(
                (1.8..5.0).contains(&gamma),
                "{}: tail exponent {gamma} outside the social-network range",
                d.spec().name
            );
        }
    }

    #[test]
    fn load_falls_back_to_synthetic_without_env() {
        // The test environment has no RWD_DATA_DIR; ensure fallback works on
        // the smallest dataset.
        if std::env::var_os(DATA_DIR_ENV).is_none() {
            let g = Dataset::CaGrQc.load().unwrap();
            assert_eq!(g.n(), 5_242);
            assert_eq!(g.m(), 28_968);
        }
    }
}
