//! Deterministic temporal edge traces — the churn workload generator.
//!
//! Real temporal network datasets (contact networks, social streams) are
//! not redistributable here, so the evolving-graph subsystem is exercised
//! by a synthetic trace: a base graph from one of the repo's generators
//! plus a sequence of timestamped [`EdgeBatch`]es that insert fresh edges
//! and delete existing ones. The trace is **valid by construction** (every
//! deletion names a live edge, every insertion a currently absent pair, no
//! pair is edited twice within a batch) and a pure function of its spec —
//! the same spec always produces byte-identical batches, which is what
//! lets the CLI, the perf gate tests and the equivalence tests share one
//! workload definition.
//!
//! Insertion weights are mixed deterministically from `(seed, u, v)` into
//! `(0, 2]` — the same scheme as
//! [`rwd_graph::weighted::weighted_twin`] — so a weighted run of the trace
//! is structurally identical to the unweighted run.

use rwd_graph::generators::{barabasi_albert, erdos_renyi_gnp};
use rwd_graph::{CsrGraph, GraphError};
use rwd_stream::EdgeBatch;

/// Base-graph model of a temporal trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceModel {
    /// Barabási–Albert with `mdeg` attachments per node (heavy-tailed —
    /// batches that touch a hub resample many groups).
    BarabasiAlbert {
        /// Attachments per arriving node.
        mdeg: usize,
    },
    /// Erdős–Rényi `G(n, p)` with `p = mean_degree / n` (homogeneous —
    /// per-batch churn stays near its expectation).
    ErdosRenyi {
        /// Expected mean degree.
        mean_degree: f64,
    },
}

/// Specification of a deterministic temporal trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TemporalTraceSpec {
    /// Base-graph model.
    pub model: TraceModel,
    /// Node count (fixed across the trace; churn is edge-only).
    pub nodes: usize,
    /// Number of update batches.
    pub batches: usize,
    /// Edits per batch (insertions + deletions).
    pub batch_edits: usize,
    /// Fraction of each batch's edits that are deletions (`0..=1`); the
    /// rest are insertions.
    pub delete_fraction: f64,
    /// Seed driving the base graph, the edit choices and the weights.
    pub seed: u64,
}

impl Default for TemporalTraceSpec {
    fn default() -> Self {
        TemporalTraceSpec {
            model: TraceModel::BarabasiAlbert { mdeg: 4 },
            nodes: 1_000,
            batches: 10,
            batch_edits: 20,
            delete_fraction: 0.5,
            seed: 0x7EA1,
        }
    }
}

/// A generated trace: the epoch-0 graph and its timestamped batches
/// (timestamps are `1..=batches`).
#[derive(Clone, Debug)]
pub struct TemporalTrace {
    /// The base graph the batches evolve.
    pub base: CsrGraph,
    /// Update batches in application order.
    pub batches: Vec<EdgeBatch>,
}

/// splitmix64 step (local copy; the graph crate keeps its RNG private).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic edge weight in `(0, 2]` mixed from `(seed, u, v)` —
/// exactly [`rwd_graph::weighted::twin_weight`], so trace insertions and a
/// [`rwd_graph::weighted::weighted_twin`] base share one weight universe
/// per seed.
pub fn trace_weight(seed: u64, u: u32, v: u32) -> f64 {
    rwd_graph::weighted::twin_weight(seed, u, v)
}

/// Generates the base graph and a valid, deterministic batch sequence.
///
/// Within a batch every edit touches a distinct node pair; across batches
/// the evolving edge set is tracked so deletions always name live edges
/// and insertions absent pairs. Errors on an unsatisfiable spec (e.g. more
/// deletions per batch than edges, or an overfull graph).
pub fn temporal_trace(spec: &TemporalTraceSpec) -> Result<TemporalTrace, GraphError> {
    if !(0.0..=1.0).contains(&spec.delete_fraction) {
        return Err(GraphError::InvalidInput(format!(
            "delete_fraction = {} outside [0, 1]",
            spec.delete_fraction
        )));
    }
    if spec.nodes < 2 {
        return Err(GraphError::InvalidInput(
            "temporal trace needs at least 2 nodes".into(),
        ));
    }
    let base = match spec.model {
        TraceModel::BarabasiAlbert { mdeg } => barabasi_albert(spec.nodes, mdeg, spec.seed)?,
        TraceModel::ErdosRenyi { mean_degree } => {
            let p = (mean_degree / spec.nodes as f64).clamp(0.0, 1.0);
            erdos_renyi_gnp(spec.nodes, p, spec.seed)?
        }
    };

    // The evolving edge set: a vector for O(1) uniform picks plus a sorted
    // membership check via binary search after each batch would be O(m);
    // instead keep a HashSet alongside the pick vector.
    let mut live: Vec<(u32, u32)> = base.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
    let mut member: std::collections::HashSet<(u32, u32)> = live.iter().copied().collect();

    let deletes_per_batch = ((spec.batch_edits as f64) * spec.delete_fraction).round() as usize;
    let inserts_per_batch = spec.batch_edits - deletes_per_batch;
    let n = spec.nodes as u64;
    let max_edges = spec.nodes * (spec.nodes - 1) / 2;
    let mut rng = spec.seed ^ 0x7E3A_90AB_CD12_3456;
    let mut batches = Vec::with_capacity(spec.batches);

    for t in 1..=spec.batches as u64 {
        if live.len() < deletes_per_batch {
            return Err(GraphError::InvalidInput(format!(
                "batch {t}: only {} live edges for {deletes_per_batch} deletions",
                live.len()
            )));
        }
        // Feasibility: a batch's deleted pairs cannot be reinserted within
        // the same batch, so it needs `live + inserts` distinct pairs (the
        // post-deletion members, the deleted pairs, and the fresh inserts).
        if live.len() + inserts_per_batch > max_edges {
            return Err(GraphError::InvalidInput(format!(
                "batch {t}: graph too dense for {inserts_per_batch} insertions \
                 ({} of {max_edges} pairs are edges)",
                live.len()
            )));
        }
        let mut batch = EdgeBatch::new(t);
        // Pairs already edited in this batch (either direction canonical).
        let mut edited: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();

        for _ in 0..deletes_per_batch {
            // Uniform pick from the live list; swap-remove makes
            // within-batch collisions impossible.
            let i = (mix(&mut rng) % live.len() as u64) as usize;
            let e = live.swap_remove(i);
            member.remove(&e);
            edited.insert(e);
            batch.deletions.push(e);
        }
        for _ in 0..inserts_per_batch {
            // Rejection-sample an absent, unedited pair. The feasibility
            // guard above proves one exists, but near-complete graphs make
            // uniform probing slow, so the attempt budget keeps generation
            // total (deterministically erroring instead of spinning).
            let mut e = None;
            for _ in 0..(4096 + 64 * spec.nodes as u64) {
                let a = (mix(&mut rng) % n) as u32;
                let b = (mix(&mut rng) % n) as u32;
                if a == b {
                    continue;
                }
                let cand = if a < b { (a, b) } else { (b, a) };
                if member.contains(&cand) || edited.contains(&cand) {
                    continue;
                }
                e = Some(cand);
                break;
            }
            let Some(e) = e else {
                return Err(GraphError::InvalidInput(format!(
                    "batch {t}: could not sample an absent edge (graph too \
                     dense for the churn spec)"
                )));
            };
            edited.insert(e);
            member.insert(e);
            live.push(e);
            batch
                .insertions
                .push((e.0, e.1, trace_weight(spec.seed, e.0, e.1)));
        }
        batches.push(batch);
    }
    Ok(TemporalTrace { base, batches })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> TemporalTraceSpec {
        TemporalTraceSpec {
            model: TraceModel::ErdosRenyi { mean_degree: 8.0 },
            nodes: 200,
            batches: 6,
            batch_edits: 10,
            delete_fraction: 0.4,
            seed: 99,
        }
    }

    #[test]
    fn trace_is_deterministic() {
        let a = temporal_trace(&small_spec()).unwrap();
        let b = temporal_trace(&small_spec()).unwrap();
        assert_eq!(a.base.targets(), b.base.targets());
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.batches.len(), 6);
    }

    #[test]
    fn batches_apply_cleanly_in_sequence() {
        let trace = temporal_trace(&small_spec()).unwrap();
        let mut g = trace.base.clone();
        for (i, batch) in trace.batches.iter().enumerate() {
            assert_eq!(batch.timestamp, i as u64 + 1);
            assert_eq!(batch.len(), 10);
            assert_eq!(batch.deletions.len(), 4);
            assert_eq!(batch.insertions.len(), 6);
            let delta = batch.apply(&g).expect("trace batches are valid");
            g = delta.graph;
        }
        assert_eq!(g.m(), trace.base.m() + 6 * (6 - 4));
    }

    #[test]
    fn weighted_application_works_with_twin_base() {
        let spec = small_spec();
        let trace = temporal_trace(&spec).unwrap();
        let mut wg = rwd_graph::weighted::weighted_twin(&trace.base, spec.seed).unwrap();
        for batch in &trace.batches {
            wg = batch
                .apply_weighted(&wg)
                .expect("valid weighted batch")
                .graph;
        }
        assert_eq!(wg.m(), trace.base.m() + 6 * 2);
    }

    #[test]
    fn ba_model_and_bad_specs() {
        let mut spec = small_spec();
        spec.model = TraceModel::BarabasiAlbert { mdeg: 3 };
        spec.nodes = 100;
        let trace = temporal_trace(&spec).unwrap();
        assert_eq!(trace.base.n(), 100);

        spec.delete_fraction = 1.5;
        assert!(temporal_trace(&spec).is_err());
        let mut spec = small_spec();
        spec.nodes = 1;
        assert!(temporal_trace(&spec).is_err());
        // More deletions than the base graph has edges.
        let mut spec = small_spec();
        spec.model = TraceModel::ErdosRenyi { mean_degree: 0.0 };
        spec.delete_fraction = 1.0;
        assert!(temporal_trace(&spec).is_err());
    }

    #[test]
    fn dense_specs_error_instead_of_spinning() {
        // Regression: a complete base graph once made the insertion
        // rejection-sampling loop spin forever (every absent pair was the
        // batch's own deletion). Must return InvalidInput, not hang.
        let spec = TemporalTraceSpec {
            model: TraceModel::ErdosRenyi { mean_degree: 1e9 },
            nodes: 4,
            batches: 1,
            batch_edits: 2,
            delete_fraction: 0.5,
            seed: 1,
        };
        assert!(temporal_trace(&spec).is_err());
        // Nearly complete but with one spare pair: still satisfiable.
        let spec = TemporalTraceSpec {
            model: TraceModel::ErdosRenyi { mean_degree: 1e9 },
            nodes: 4,
            batches: 1,
            batch_edits: 1,
            delete_fraction: 1.0,
            seed: 1,
        };
        assert!(temporal_trace(&spec).is_ok(), "pure deletions stay legal");
    }

    #[test]
    fn trace_weights_match_twin_scheme() {
        // An edge inserted by the trace and the same edge in a weighted
        // twin get the same weight — one weight universe per seed.
        let g = CsrGraph::from_edges(4, &[(0, 1)]).unwrap();
        let wg = rwd_graph::weighted::weighted_twin(&g, 77).unwrap();
        let (_, w) = wg.neighbors(rwd_graph::NodeId(0)).next().unwrap();
        assert_eq!(w.to_bits(), trace_weight(77, 0, 1).to_bits());
    }
}
