//! Monotone submodular objectives.
//!
//! The paper proves (Theorems 3.1/3.2) that both problems maximize monotone
//! nondecreasing submodular set functions with `F(∅) = 0`, which is what
//! gives the greedy algorithms their `1 − 1/e` guarantee. This module
//! provides those objectives in exact (DP) and sampled (Algorithm 2) form,
//! plus the two future-work objectives sketched in the paper's §5: a
//! positive combination of `F1` and `F2`, and an edge-coverage variant.

use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::estimate::SampleEstimator;
use rwd_walks::rng::WalkRng;
use rwd_walks::{hitting, walker, NodeSet};

/// A set function `F : 2^V → ℝ` with marginal-gain evaluation.
///
/// Implementations used with the greedy drivers must be monotone
/// nondecreasing and submodular (the drivers do not check, but the CELF
/// driver's correctness depends on submodularity).
pub trait Objective {
    /// Evaluates `F(S)`.
    fn eval(&self, set: &NodeSet) -> f64;

    /// Marginal gain `F(S ∪ {u}) − F(S)` given the cached `base = F(S)`.
    ///
    /// The default clones the set; objectives with cheaper incremental forms
    /// override this.
    fn gain(&self, set: &NodeSet, u: NodeId, base: f64) -> f64 {
        debug_assert!(!set.contains(u), "gain of a member is zero by definition");
        let mut s = set.clone();
        s.insert(u);
        self.eval(&s) - base
    }

    /// Size of the ground set `V`.
    fn universe(&self) -> usize;

    /// Display name for reports.
    fn name(&self) -> String;
}

/// Exact Problem 1 objective `F1(S) = nL − Σ_{u∈V\S} h^L_uS`, evaluated by
/// the Eq. (4) dynamic program in `O(mL)` per call.
#[derive(Clone, Copy, Debug)]
pub struct ExactF1<'g> {
    graph: &'g CsrGraph,
    l: u32,
}

impl<'g> ExactF1<'g> {
    /// Creates the objective for walk bound `l`.
    pub fn new(graph: &'g CsrGraph, l: u32) -> Self {
        ExactF1 { graph, l }
    }
}

impl Objective for ExactF1<'_> {
    fn eval(&self, set: &NodeSet) -> f64 {
        hitting::exact_f1(self.graph, set, self.l)
    }
    fn universe(&self) -> usize {
        self.graph.n()
    }
    fn name(&self) -> String {
        "ExactF1".into()
    }
}

/// Exact Problem 2 objective `F2(S) = Σ_u p^L_uS` (Eq. 8 DP, `O(mL)`).
#[derive(Clone, Copy, Debug)]
pub struct ExactF2<'g> {
    graph: &'g CsrGraph,
    l: u32,
}

impl<'g> ExactF2<'g> {
    /// Creates the objective for walk bound `l`.
    pub fn new(graph: &'g CsrGraph, l: u32) -> Self {
        ExactF2 { graph, l }
    }
}

impl Objective for ExactF2<'_> {
    fn eval(&self, set: &NodeSet) -> f64 {
        hitting::exact_f2(self.graph, set, self.l)
    }
    fn universe(&self) -> usize {
        self.graph.n()
    }
    fn name(&self) -> String {
        "ExactF2".into()
    }
}

/// Sampled Problem 1 objective `F̂1` (Algorithm 2): unbiased, deterministic
/// per seed, `O(nRL)` per evaluation.
#[derive(Clone, Debug)]
pub struct SampledF1<'g> {
    graph: &'g CsrGraph,
    est: SampleEstimator,
}

impl<'g> SampledF1<'g> {
    /// Creates the sampled objective with `r` walks per node.
    pub fn new(graph: &'g CsrGraph, l: u32, r: usize, seed: u64) -> Self {
        SampledF1 {
            graph,
            est: SampleEstimator::new(l, r, seed),
        }
    }
}

impl Objective for SampledF1<'_> {
    fn eval(&self, set: &NodeSet) -> f64 {
        self.est.estimate(self.graph, set).f1
    }
    fn universe(&self) -> usize {
        self.graph.n()
    }
    fn name(&self) -> String {
        "SampledF1".into()
    }
}

/// Sampled Problem 2 objective `F̂2` (Algorithm 2).
#[derive(Clone, Debug)]
pub struct SampledF2<'g> {
    graph: &'g CsrGraph,
    est: SampleEstimator,
}

impl<'g> SampledF2<'g> {
    /// Creates the sampled objective with `r` walks per node.
    pub fn new(graph: &'g CsrGraph, l: u32, r: usize, seed: u64) -> Self {
        SampledF2 {
            graph,
            est: SampleEstimator::new(l, r, seed),
        }
    }
}

impl Objective for SampledF2<'_> {
    fn eval(&self, set: &NodeSet) -> f64 {
        self.est.estimate(self.graph, set).f2
    }
    fn universe(&self) -> usize {
        self.graph.n()
    }
    fn name(&self) -> String {
        "SampledF2".into()
    }
}

/// Positive combination `w_a·A + w_b·B` of two objectives — submodular and
/// monotone whenever both parts are (the paper's first future-work
/// direction).
#[derive(Clone, Copy, Debug)]
pub struct Combined<A, B> {
    /// First component.
    pub a: A,
    /// Second component.
    pub b: B,
    /// Weight of the first component (must be ≥ 0).
    pub wa: f64,
    /// Weight of the second component (must be ≥ 0).
    pub wb: f64,
}

impl<A: Objective, B: Objective> Combined<A, B> {
    /// Creates a weighted combination; weights must be non-negative to
    /// preserve submodularity.
    pub fn new(a: A, b: B, wa: f64, wb: f64) -> Self {
        assert!(
            wa >= 0.0 && wb >= 0.0,
            "negative weights break submodularity"
        );
        Combined { a, b, wa, wb }
    }
}

/// The normalized `λ`-blend of exact `F1` and `F2`:
/// `λ·F1/(nL) + (1−λ)·F2/n`, so both terms live in `[0, 1]` and `λ`
/// interpolates meaningfully.
pub fn combined_f1_f2_exact(
    graph: &CsrGraph,
    l: u32,
    lambda: f64,
) -> Combined<ExactF1<'_>, ExactF2<'_>> {
    assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
    let n = graph.n().max(1) as f64;
    Combined::new(
        ExactF1::new(graph, l),
        ExactF2::new(graph, l),
        lambda / (n * l.max(1) as f64),
        (1.0 - lambda) / n,
    )
}

impl<A: Objective, B: Objective> Objective for Combined<A, B> {
    fn eval(&self, set: &NodeSet) -> f64 {
        self.wa * self.a.eval(set) + self.wb * self.b.eval(set)
    }
    fn gain(&self, set: &NodeSet, u: NodeId, _base: f64) -> f64 {
        // Component gains are computed against component bases; the blended
        // base passed by the driver cannot be decomposed, so re-evaluate.
        let mut s = set.clone();
        s.insert(u);
        self.wa * (self.a.eval(&s) - self.a.eval(set))
            + self.wb * (self.b.eval(&s) - self.b.eval(set))
    }
    fn universe(&self) -> usize {
        debug_assert_eq!(self.a.universe(), self.b.universe());
        self.a.universe()
    }
    fn name(&self) -> String {
        format!("Combined({}, {})", self.a.name(), self.b.name())
    }
}

/// Edge-coverage objective — the paper's second future-work direction,
/// formalized here as:
///
/// > `F3(S) = E[ | ⋃_{u : walk(u) hits S} edges(walk(u)) | ]`
///
/// i.e. the expected number of distinct edges traversed by the L-length
/// walks of the *dominated* sources. For any fixed realization of the `R·n`
/// walks this is a coverage function of `S` (each candidate `s` covers the
/// edge sets of all sources whose walk visits `s`), hence monotone
/// submodular; the expectation preserves both properties.
///
/// Evaluation replays materialized walks: `O(Σ_{u hit} L)` per layer.
#[derive(Clone, Debug)]
pub struct EdgeCoverage {
    n: usize,
    r: usize,
    /// `walk_edges[layer][source]` — sorted, deduped edge keys of the walk.
    walk_edges: Vec<Vec<Vec<u64>>>,
    /// `visits[layer][v]` — sources whose walk visits `v`.
    visits: Vec<Vec<Vec<u32>>>,
}

fn edge_key(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (lo.raw() as u64) << 32 | hi.raw() as u64
}

impl EdgeCoverage {
    /// Materializes `r` walks per node (seeded like every other sampler in
    /// the workspace) and prepares the coverage structures.
    pub fn build(g: &CsrGraph, l: u32, r: usize, seed: u64) -> Self {
        assert!(r > 0);
        let n = g.n();
        let mut walk_edges = Vec::with_capacity(r);
        let mut visits = Vec::with_capacity(r);
        let mut buf = Vec::new();
        for layer in 0..r {
            let mut layer_edges: Vec<Vec<u64>> = Vec::with_capacity(n);
            let mut layer_visits: Vec<Vec<u32>> = vec![Vec::new(); n];
            for w in 0..n {
                let mut rng = WalkRng::for_stream(seed, w as u64, layer as u64);
                walker::record_walk(g, NodeId::new(w), l, &mut rng, &mut buf);
                let mut edges: Vec<u64> = buf
                    .windows(2)
                    .filter(|p| p[0] != p[1]) // stay-put steps traverse nothing
                    .map(|p| edge_key(p[0], p[1]))
                    .collect();
                edges.sort_unstable();
                edges.dedup();
                layer_edges.push(edges);
                let mut seen = Vec::new();
                for &v in buf.iter() {
                    if !seen.contains(&v) {
                        seen.push(v);
                        layer_visits[v.index()].push(w as u32);
                    }
                }
            }
            walk_edges.push(layer_edges);
            visits.push(layer_visits);
        }
        EdgeCoverage {
            n,
            r,
            walk_edges,
            visits,
        }
    }
}

impl Objective for EdgeCoverage {
    fn eval(&self, set: &NodeSet) -> f64 {
        let mut total = 0usize;
        let mut activated = vec![false; self.n];
        let mut covered: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for layer in 0..self.r {
            activated.fill(false);
            covered.clear();
            for s in set.iter() {
                for &w in &self.visits[layer][s.index()] {
                    if !activated[w as usize] {
                        activated[w as usize] = true;
                        covered.extend(self.walk_edges[layer][w as usize].iter().copied());
                    }
                }
            }
            total += covered.len();
        }
        total as f64 / self.r as f64
    }
    fn universe(&self) -> usize {
        self.n
    }
    fn name(&self) -> String {
        "EdgeCoverage".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_graph::generators::paper_example;

    fn set_of(n: usize, nodes: &[u32]) -> NodeSet {
        NodeSet::from_nodes(n, nodes.iter().map(|&u| NodeId(u)))
    }

    #[test]
    fn exact_objectives_evaluate_known_values() {
        let g = paper_example::figure1();
        let f1 = ExactF1::new(&g, 4);
        let f2 = ExactF2::new(&g, 4);
        assert!(f1.eval(&NodeSet::new(8)).abs() < 1e-12);
        assert!(f2.eval(&NodeSet::new(8)).abs() < 1e-12);
        let full = NodeSet::from_nodes(8, g.nodes());
        assert!((f1.eval(&full) - 32.0).abs() < 1e-12);
        assert!((f2.eval(&full) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn gain_default_matches_difference() {
        let g = paper_example::figure1();
        let f2 = ExactF2::new(&g, 4);
        let s = set_of(8, &[1]);
        let base = f2.eval(&s);
        let g6 = f2.gain(&s, NodeId(6), base);
        let mut s2 = s.clone();
        s2.insert(NodeId(6));
        assert!((g6 - (f2.eval(&s2) - base)).abs() < 1e-12);
        assert!(g6 > 0.0);
    }

    #[test]
    fn exact_monotone_and_submodular_on_figure1() {
        let g = paper_example::figure1();
        for l in [2u32, 4] {
            let f1 = ExactF1::new(&g, l);
            let f2 = ExactF2::new(&g, l);
            let s = set_of(8, &[1]);
            let t = set_of(8, &[1, 6]);
            for u in [0u32, 2, 3, 7] {
                let u = NodeId(u);
                let gs1 = f1.gain(&s, u, f1.eval(&s));
                let gt1 = f1.gain(&t, u, f1.eval(&t));
                assert!(gs1 >= gt1 - 1e-9, "F1 submodularity u={u} l={l}");
                assert!(gt1 >= -1e-9, "F1 monotone u={u} l={l}");
                let gs2 = f2.gain(&s, u, f2.eval(&s));
                let gt2 = f2.gain(&t, u, f2.eval(&t));
                assert!(gs2 >= gt2 - 1e-9, "F2 submodularity u={u} l={l}");
                assert!(gt2 >= -1e-9, "F2 monotone u={u} l={l}");
            }
        }
    }

    #[test]
    fn sampled_tracks_exact() {
        let g = paper_example::figure1();
        let s = set_of(8, &[4, 5]);
        let exact = ExactF1::new(&g, 4).eval(&s);
        let sampled = SampledF1::new(&g, 4, 3000, 7).eval(&s);
        assert!(
            (exact - sampled).abs() < 0.5,
            "exact {exact} sampled {sampled}"
        );
        let exact = ExactF2::new(&g, 4).eval(&s);
        let sampled = SampledF2::new(&g, 4, 3000, 7).eval(&s);
        assert!((exact - sampled).abs() < 0.3);
    }

    #[test]
    fn combined_blends_and_normalizes() {
        let g = paper_example::figure1();
        let s = set_of(8, &[1, 6]);
        let pure_f1 = combined_f1_f2_exact(&g, 4, 1.0);
        let pure_f2 = combined_f1_f2_exact(&g, 4, 0.0);
        let blend = combined_f1_f2_exact(&g, 4, 0.5);
        let v1 = pure_f1.eval(&s); // = F1/(nL)
        let v2 = pure_f2.eval(&s); // = F2/n
        assert!((blend.eval(&s) - 0.5 * (v1 + v2)).abs() < 1e-12);
        // Normalized objectives stay in [0, 1].
        assert!((0.0..=1.0).contains(&v1));
        assert!((0.0..=1.0).contains(&v2));
        // λ endpoints reduce to the single normalized objective.
        let f1n = ExactF1::new(&g, 4).eval(&s) / (8.0 * 4.0);
        assert!((v1 - f1n).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn combined_rejects_bad_lambda() {
        let g = paper_example::figure1();
        let _ = combined_f1_f2_exact(&g, 4, 1.5);
    }

    #[test]
    fn edge_coverage_monotone_and_bounded() {
        let g = paper_example::figure1();
        let f3 = EdgeCoverage::build(&g, 3, 8, 5);
        let empty = NodeSet::new(8);
        assert_eq!(f3.eval(&empty), 0.0);
        let s = set_of(8, &[1]);
        let t = set_of(8, &[1, 6]);
        let vs = f3.eval(&s);
        let vt = f3.eval(&t);
        assert!(vs > 0.0, "hub covers something");
        assert!(vt >= vs, "monotone");
        assert!(vt <= g.m() as f64 + 1e-9, "cannot exceed edge count");
    }

    #[test]
    fn edge_coverage_submodular_spot_check() {
        let g = paper_example::figure1();
        let f3 = EdgeCoverage::build(&g, 3, 6, 9);
        let s = set_of(8, &[1]);
        let t = set_of(8, &[1, 4]);
        for u in [0u32, 2, 6, 7] {
            let u = NodeId(u);
            let gs = f3.gain(&s, u, f3.eval(&s));
            let gt = f3.gain(&t, u, f3.eval(&t));
            assert!(gs >= gt - 1e-9, "u = {u}");
        }
    }
}
