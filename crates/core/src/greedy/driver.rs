//! Generic greedy maximization (the paper's Algorithm 1).
//!
//! Algorithm 1 is generic in its marginal-gain oracle ([`GainOracle`]): an
//! exact or sampled [`Objective`] (through [`greedy`]), or the Algorithm 4/5
//! walk-index engine ([`GainEngine`]), which makes it the approximate greedy
//! of Algorithm 6. `greedy_plain` re-evaluates every candidate each round —
//! the literal Algorithm 1. `greedy_lazy` is the CELF acceleration of
//! Leskovec et al. (the paper's \[19\], recommended in §3.1): cached gains
//! are upper bounds under submodularity, so a candidate whose cached gain
//! tops the heap only needs re-evaluation, not the whole population. Both
//! produce identical selections for deterministic oracles (asserted in
//! tests) because ties break identically (smaller node id wins).
//!
//! [`GainEngine`]: crate::greedy::GainEngine

use std::collections::BinaryHeap;

use rwd_graph::NodeId;
use rwd_walks::NodeSet;

use crate::greedy::celf::CelfEntry;
use crate::objective::Objective;

/// What a greedy round asks of its marginal-gain source. A run starts from
/// a fresh oracle (`S = ∅`).
pub trait GainOracle {
    /// The committed picks `S`; its capacity is the candidate universe.
    fn selected(&self) -> &NodeSet;

    /// `F(∅)`, where the objective trace starts (`F̂(∅) = 0` under every
    /// walk-index gain rule).
    fn empty_value(&self) -> f64 {
        0.0
    }

    /// Every candidate's marginal gain in one pass; the entries of selected
    /// nodes are ignored.
    fn gains_all(&self) -> Vec<f64>;

    /// One candidate's marginal gain.
    fn gain_single(&self, u: NodeId) -> f64;

    /// Commits the pick `u`, whose marginal gain is `gain`.
    fn commit(&mut self, u: NodeId, gain: f64);
}

/// [`GainOracle`] over any [`Objective`]: the current set `S` and its
/// cached value `F(S)`, against which each gain is evaluated.
struct ObjectiveGains<'o, O> {
    obj: &'o O,
    set: NodeSet,
    empty: f64,
    base: f64,
}

impl<'o, O: Objective> ObjectiveGains<'o, O> {
    /// The oracle at `S = ∅`.
    fn new(obj: &'o O) -> Self {
        let set = NodeSet::new(obj.universe());
        let base = obj.eval(&set);
        ObjectiveGains {
            obj,
            set,
            empty: base,
            base,
        }
    }
}

impl<O: Objective> GainOracle for ObjectiveGains<'_, O> {
    fn selected(&self) -> &NodeSet {
        &self.set
    }

    fn empty_value(&self) -> f64 {
        self.empty
    }

    fn gains_all(&self) -> Vec<f64> {
        (0..self.set.capacity())
            .map(NodeId::new)
            .map(|u| {
                if self.set.contains(u) {
                    0.0
                } else {
                    self.gain_single(u)
                }
            })
            .collect()
    }

    fn gain_single(&self, u: NodeId) -> f64 {
        self.obj.gain(&self.set, u, self.base)
    }

    fn commit(&mut self, u: NodeId, gain: f64) {
        self.set.insert(u);
        self.base += gain;
    }
}

/// Result of a greedy run (solver-agnostic part of
/// [`crate::problem::Selection`]).
#[derive(Clone, Debug)]
pub struct GreedyOutcome {
    /// Selected nodes in pick order.
    pub nodes: Vec<NodeId>,
    /// Marginal gain of each pick.
    pub gain_trace: Vec<f64>,
    /// Objective value after each pick.
    pub objective_trace: Vec<f64>,
    /// Number of marginal-gain evaluations performed.
    pub evaluations: usize,
}

impl GreedyOutcome {
    /// An empty outcome with room for `k` picks.
    pub(crate) fn with_capacity(k: usize) -> Self {
        GreedyOutcome {
            nodes: Vec::with_capacity(k),
            gain_trace: Vec::with_capacity(k),
            objective_trace: Vec::with_capacity(k),
            evaluations: 0,
        }
    }

    /// Records a pick and its marginal gain: the objective grows by `gain`
    /// from its last value, or from `start = F(∅)` at the first pick.
    pub(crate) fn record(&mut self, pick: NodeId, gain: f64, start: f64) {
        let value = self.objective_trace.last().copied().unwrap_or(start) + gain;
        self.nodes.push(pick);
        self.gain_trace.push(gain);
        self.objective_trace.push(value);
    }
}

/// Runs greedy over an objective with either strategy.
pub fn greedy(obj: &impl Objective, k: usize, lazy: bool) -> GreedyOutcome {
    run(&mut ObjectiveGains::new(obj), k, lazy)
}

/// Runs greedy over any gain oracle with either strategy.
pub fn run(oracle: &mut impl GainOracle, k: usize, lazy: bool) -> GreedyOutcome {
    if lazy {
        greedy_lazy(oracle, k)
    } else {
        greedy_plain(oracle, k)
    }
}

/// Algorithm 1 verbatim: `k` rounds, each one gain pass over every
/// remaining candidate and an argmax.
pub fn greedy_plain(oracle: &mut impl GainOracle, k: usize) -> GreedyOutcome {
    let n = oracle.selected().capacity();
    assert!(k <= n, "budget exceeds universe");
    let mut out = GreedyOutcome::with_capacity(k);
    for _round in 0..k {
        let gains = oracle.gains_all();
        out.evaluations += n - out.nodes.len();
        let mut best: Option<(NodeId, f64)> = None;
        for (u, &gain) in gains.iter().enumerate() {
            let u = NodeId::new(u);
            if oracle.selected().contains(u) {
                continue;
            }
            // Strict `>` keeps the smallest id on ties (ids scan upward).
            if best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((u, gain));
            }
        }
        let (pick, gain) = best.expect("k <= n guarantees a candidate");
        oracle.commit(pick, gain);
        out.record(pick, gain, oracle.empty_value());
    }
    out
}

/// CELF lazy greedy: one gain pass over every candidate, then each round
/// re-evaluates only heap tops whose cached gain is stale. Heap ordering
/// comes from the shared [`CelfEntry`].
pub fn greedy_lazy(oracle: &mut impl GainOracle, k: usize) -> GreedyOutcome {
    let n = oracle.selected().capacity();
    assert!(k <= n, "budget exceeds universe");
    let mut out = GreedyOutcome::with_capacity(k);
    out.evaluations = n;
    let mut heap: BinaryHeap<CelfEntry> = oracle
        .gains_all()
        .into_iter()
        .enumerate()
        .map(|(u, gain)| CelfEntry {
            gain,
            node: u as u32,
            round: 0,
        })
        .collect();

    for round in 1..=k {
        loop {
            let top = heap.pop().expect("heap holds all unselected candidates");
            let node = NodeId(top.node);
            if top.round == round {
                oracle.commit(node, top.gain);
                out.record(node, top.gain, oracle.empty_value());
                break;
            }
            out.evaluations += 1;
            heap.push(CelfEntry {
                gain: oracle.gain_single(node),
                node: top.node,
                round,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{ExactF1, ExactF2};
    use rwd_graph::generators::{classic, paper_example};

    /// Deterministic toy coverage objective: F(S) = |⋃_{u∈S} cover(u)|.
    struct Cover {
        sets: Vec<Vec<u32>>,
    }
    impl Objective for Cover {
        fn eval(&self, set: &NodeSet) -> f64 {
            let mut covered = std::collections::HashSet::new();
            for u in set.iter() {
                covered.extend(self.sets[u.index()].iter().copied());
            }
            covered.len() as f64
        }
        fn universe(&self) -> usize {
            self.sets.len()
        }
        fn name(&self) -> String {
            "Cover".into()
        }
    }

    fn toy() -> Cover {
        Cover {
            sets: vec![
                vec![0, 1, 2, 3], // node 0 covers 4
                vec![3, 4, 5],    // node 1 covers 3 (1 overlaps 0)
                vec![6, 7],       // node 2 covers 2
                vec![0, 1],       // node 3 subsumed by 0
            ],
        }
    }

    #[test]
    fn plain_picks_greedy_order() {
        let out = greedy(&toy(), 3, false);
        assert_eq!(
            out.nodes,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            "coverage greedy order"
        );
        assert_eq!(out.gain_trace, vec![4.0, 2.0, 2.0]);
        assert_eq!(out.objective_trace, vec![4.0, 6.0, 8.0]);
        assert_eq!(out.evaluations, 4 + 3 + 2);
    }

    #[test]
    fn lazy_matches_plain_selection() {
        let plain = greedy(&toy(), 4, false);
        let lazy = greedy(&toy(), 4, true);
        assert_eq!(plain.nodes, lazy.nodes);
        assert_eq!(plain.gain_trace, lazy.gain_trace);
        assert!(lazy.evaluations <= plain.evaluations);
    }

    #[test]
    fn lazy_matches_plain_on_exact_objectives() {
        let g = paper_example::figure1();
        for l in [2u32, 5] {
            let f1 = ExactF1::new(&g, l);
            assert_eq!(
                greedy(&f1, 3, false).nodes,
                greedy(&f1, 3, true).nodes,
                "F1 l={l}"
            );
            let f2 = ExactF2::new(&g, l);
            assert_eq!(
                greedy(&f2, 3, false).nodes,
                greedy(&f2, 3, true).nodes,
                "F2 l={l}"
            );
        }
    }

    #[test]
    fn lazy_saves_evaluations_on_larger_instances() {
        let g = rwd_graph::generators::barabasi_albert(150, 3, 5).unwrap();
        let f2 = ExactF2::new(&g, 4);
        let plain = greedy(&f2, 8, false);
        let lazy = greedy(&f2, 8, true);
        assert_eq!(plain.nodes, lazy.nodes);
        assert!(
            lazy.evaluations * 2 < plain.evaluations,
            "lazy {} vs plain {}",
            lazy.evaluations,
            plain.evaluations
        );
    }

    #[test]
    fn star_hub_selected_first() {
        let g = classic::star(10).unwrap();
        let f2 = ExactF2::new(&g, 2);
        let out = greedy(&f2, 1, true);
        assert_eq!(out.nodes, vec![NodeId(0)], "hub dominates everything");
    }

    #[test]
    fn ties_break_to_smaller_id() {
        // Two disjoint equal-size covers: plain and lazy must both pick 0.
        let obj = Cover {
            sets: vec![vec![0, 1], vec![2, 3], vec![9]],
        };
        assert_eq!(greedy(&obj, 1, false).nodes, vec![NodeId(0)]);
        assert_eq!(greedy(&obj, 1, true).nodes, vec![NodeId(0)]);
    }

    #[test]
    fn gain_traces_are_non_increasing_for_submodular_objectives() {
        let g = paper_example::figure1();
        let f2 = ExactF2::new(&g, 4);
        let out = greedy(&f2, 6, false);
        for w in out.gain_trace.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-9,
                "greedy gains must shrink: {:?}",
                out.gain_trace
            );
        }
    }

    #[test]
    #[should_panic(expected = "budget exceeds universe")]
    fn oversized_budget_panics() {
        let _ = greedy(&toy(), 5, false);
    }
}
