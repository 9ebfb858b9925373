//! The Algorithm 4/5 gain engine over the inverted walk index.
//!
//! The engine owns the `D[1:R][1:n]` table of the paper: given the current
//! target set `S`, `D[i][u]` is the first-hit time of walk `i` from `u` into
//! `S` for Problem 1 (`L` while unhit), and the 0/1 hit indicator for
//! Problem 2. Three operations:
//!
//! * [`GainEngine::gain_single`] — Algorithm 4 verbatim for one candidate,
//! * [`GainEngine::gains_all`] — all candidate gains in **one sweep** of the
//!   index (the form Algorithm 6 actually needs each round; parallel over
//!   walk layers, same arithmetic, same results),
//! * [`GainEngine::update`] — Algorithm 5 after a selection.
//!
//! Gain semantics: for Problem 1 the estimated marginal gain of `u` is
//! `σ̂_u = mean_i [ D[i][u] + Σ_{v ∈ I[i][u], w_v < D[i][v]} (D[i][v] − w_v) ]`,
//! which equals the exact marginal `F1(S∪{u}) − F1(S)` under the Eq. (6)
//! normalization `F1(S) = nL − Σ_{u∈V\S} h_uS` (no `−L` shift needed — the
//! paper drops that constant for argmax purposes; with Eq. (6) it is zero).
//! A [`GainRule::Combined`] rule evaluates both tables in the same sweep and
//! blends normalized gains — the paper's first future-work direction.

use rwd_graph::NodeId;
use rwd_walks::{parallel, NodeSet, WalkIndex};

use crate::greedy::driver::GainOracle;
use crate::problem::Problem;

/// Which marginal-gain rule the engine applies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GainRule {
    /// Problem 1: hitting-time gains (true hop weights).
    HittingTime,
    /// Problem 2: coverage gains (postings as hit indicators).
    Coverage,
    /// Extension: `λ·gainF1/(nL) + (1−λ)·gainF2/n` (λ ∈ [0, 1]).
    Combined {
        /// Blend weight toward the hitting-time component.
        lambda: f64,
    },
}

impl From<Problem> for GainRule {
    fn from(problem: Problem) -> Self {
        match problem {
            Problem::MinHittingTime => GainRule::HittingTime,
            Problem::MaxCoverage => GainRule::Coverage,
        }
    }
}

impl GainRule {
    pub(crate) fn needs_f1(self) -> bool {
        !matches!(self, GainRule::Coverage)
    }
    pub(crate) fn needs_f2(self) -> bool {
        !matches!(self, GainRule::HittingTime)
    }

    /// Validates rule parameters; every engine constructor calls this so
    /// the rules are enforced identically across strategies.
    pub(crate) fn validate(self) {
        if let GainRule::Combined { lambda } = self {
            assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
        }
    }

    /// Allocates the flattened `[layer][node]` `D` tables this rule needs,
    /// initialized for `S = ∅` (Algorithm 6 line 3: `L` for Problem 1, `0`
    /// for Problem 2); tables the rule does not use stay empty. Shared by
    /// the sweep-based and delta-maintained engines so their state can
    /// never diverge structurally.
    pub(crate) fn alloc_tables(self, n: usize, r: usize, l: u32) -> (Vec<u32>, Vec<u8>) {
        let d1 = if self.needs_f1() {
            vec![l; r * n]
        } else {
            Vec::new()
        };
        let d2 = if self.needs_f2() {
            vec![0u8; r * n]
        } else {
            Vec::new()
        };
        (d1, d2)
    }

    /// Blends per-problem mean gains into the rule's scalar gain. Every
    /// engine (sweep-based and delta-maintained) routes through this one
    /// function with the same operation order, so equal integer totals
    /// yield bit-identical blended gains.
    pub(crate) fn blend(self, g1: f64, g2: f64, n: usize, l: u32) -> f64 {
        match self {
            GainRule::HittingTime => g1,
            GainRule::Coverage => g2,
            GainRule::Combined { lambda } => {
                let n = n.max(1) as f64;
                lambda * g1 / (n * l.max(1) as f64) + (1.0 - lambda) * g2 / n
            }
        }
    }
}

/// Incremental marginal-gain evaluation over a [`WalkIndex`].
pub struct GainEngine<'a> {
    idx: &'a WalkIndex,
    rule: GainRule,
    n: usize,
    r: usize,
    l: u32,
    /// Problem-1 table, flattened `[layer][node]`; empty if unused.
    d1: Vec<u32>,
    /// Problem-2 indicator table, flattened `[layer][node]`; empty if unused.
    d2: Vec<u8>,
    selected: NodeSet,
    /// Running `Σ_{i,u} D1[i][u]` (for `F̂1 = nL − d1_total/R`).
    d1_total: u64,
    /// Running `Σ_{i,u} D2[i][u]` (for `F̂2 = d2_total/R`).
    d2_total: u64,
    threads: usize,
}

impl<'a> GainEngine<'a> {
    /// Creates the engine with `D` initialized for `S = ∅`
    /// (Algorithm 6 line 3: `L` for Problem 1, `0` for Problem 2).
    pub fn new(idx: &'a WalkIndex, rule: GainRule) -> Self {
        Self::with_threads(idx, rule, 0)
    }

    /// [`GainEngine::new`] with an explicit worker count (`0` = all cores).
    pub fn with_threads(idx: &'a WalkIndex, rule: GainRule, threads: usize) -> Self {
        rule.validate();
        let n = idx.n();
        let r = idx.r();
        let l = idx.l();
        let (d1, d2) = rule.alloc_tables(n, r, l);
        let d1_total = (r * n) as u64 * l as u64;
        GainEngine {
            idx,
            rule,
            n,
            r,
            l,
            d1,
            d2,
            selected: NodeSet::new(n),
            d1_total,
            d2_total: 0,
            threads,
        }
    }

    /// The current target set `S`.
    pub fn selected(&self) -> &NodeSet {
        &self.selected
    }

    /// Current `F̂1(S) = nL − (Σ D1)/R` (Problem-1 rules only).
    pub fn est_f1(&self) -> f64 {
        assert!(self.rule.needs_f1(), "engine has no F1 table");
        self.n as f64 * self.l as f64 - self.d1_total as f64 / self.r as f64
    }

    /// Current `F̂2(S) = (Σ D2)/R` — members count 1 (Problem-2 rules only).
    pub fn est_f2(&self) -> f64 {
        assert!(self.rule.needs_f2(), "engine has no F2 table");
        self.d2_total as f64 / self.r as f64
    }

    /// Per-node mean first-hit times `mean_i D1[i][u]` — must equal
    /// [`WalkIndex::estimate_hit_times`] of the current set (tested).
    pub fn hit_times(&self) -> Vec<f64> {
        assert!(self.rule.needs_f1());
        let mut acc = vec![0.0f64; self.n];
        for i in 0..self.r {
            let layer = &self.d1[i * self.n..(i + 1) * self.n];
            for (a, &v) in acc.iter_mut().zip(layer) {
                *a += v as f64;
            }
        }
        acc.iter_mut().for_each(|a| *a /= self.r as f64);
        acc
    }

    /// Per-node hit fractions `mean_i D2[i][u]`.
    pub fn hit_probs(&self) -> Vec<f64> {
        assert!(self.rule.needs_f2());
        let mut acc = vec![0.0f64; self.n];
        for i in 0..self.r {
            let layer = &self.d2[i * self.n..(i + 1) * self.n];
            for (a, &v) in acc.iter_mut().zip(layer) {
                *a += v as f64;
            }
        }
        acc.iter_mut().for_each(|a| *a /= self.r as f64);
        acc
    }

    /// Algorithm 4 for a single candidate (used by the lazy variant and as
    /// the reference implementation for [`GainEngine::gains_all`]).
    pub fn gain_single(&self, u: NodeId) -> f64 {
        let (mut g1, mut g2) = (0.0f64, 0.0f64);
        for i in 0..self.r {
            let pr = self.idx.postings(i, u);
            if self.rule.needs_f1() {
                let d = &self.d1[i * self.n..(i + 1) * self.n];
                g1 += d[u.index()] as f64;
                for (&id, &w) in pr.ids().iter().zip(pr.weights()) {
                    let dv = d[id as usize];
                    if (w as u32) < dv {
                        g1 += (dv - w as u32) as f64;
                    }
                }
            }
            if self.rule.needs_f2() {
                let d = &self.d2[i * self.n..(i + 1) * self.n];
                g2 += (1 - d[u.index()]) as f64;
                // Coverage ignores hop weights — stream only the id column.
                for &id in pr.ids() {
                    if d[id as usize] == 0 {
                        g2 += 1.0;
                    }
                }
            }
        }
        self.blend(g1 / self.r as f64, g2 / self.r as f64)
    }

    /// Computes estimated marginal gains for **all** nodes in one sweep of
    /// the index (`O(nR + postings)` work, parallel over layers). Entries
    /// for already-selected nodes are meaningless; callers skip them.
    ///
    /// Small instances (by the same work measure that gates
    /// [`GainEngine::update`]: table slots plus streamed postings) run as
    /// one part — thread spawn/join would dominate. Each part accumulates
    /// exact integer-valued sums and the partials are summed in chunk
    /// order, so gains are bit-identical at any worker count.
    pub fn gains_all(&self) -> Vec<f64> {
        let work = self.r * self.n + self.idx.total_postings();
        let chunk = parallel::part_len(self.r, work, self.threads);
        let alloc = |needed: bool| {
            if needed {
                vec![0.0f64; self.n]
            } else {
                Vec::new()
            }
        };
        let parts = (0..self.r)
            .step_by(chunk)
            .map(|lo| lo..(lo + chunk).min(self.r));
        let mut partials = parallel::fan_out(parts, |layers| {
            let mut g1 = alloc(self.rule.needs_f1());
            let mut g2 = alloc(self.rule.needs_f2());
            for i in layers {
                self.accumulate_layer(i, &mut g1, &mut g2);
            }
            (g1, g2)
        })
        .into_iter();
        let (mut g1, mut g2) = partials.next().expect("an index has at least one layer");
        for (p1, p2) in partials {
            for (a, b) in g1.iter_mut().zip(p1) {
                *a += b;
            }
            for (a, b) in g2.iter_mut().zip(p2) {
                *a += b;
            }
        }

        let r = self.r as f64;
        (0..self.n)
            .map(|u| {
                self.blend(
                    g1.get(u).copied().unwrap_or(0.0) / r,
                    g2.get(u).copied().unwrap_or(0.0) / r,
                )
            })
            .collect()
    }

    /// Adds layer `i`'s Algorithm-4 contributions for every candidate.
    fn accumulate_layer(&self, i: usize, g1: &mut [f64], g2: &mut [f64]) {
        if self.rule.needs_f1() {
            let d = &self.d1[i * self.n..(i + 1) * self.n];
            for u in 0..self.n {
                g1[u] += d[u] as f64;
                let pr = self.idx.postings(i, NodeId::new(u));
                for (&id, &w) in pr.ids().iter().zip(pr.weights()) {
                    let dv = d[id as usize];
                    if (w as u32) < dv {
                        g1[u] += (dv - w as u32) as f64;
                    }
                }
            }
        }
        if self.rule.needs_f2() {
            let d = &self.d2[i * self.n..(i + 1) * self.n];
            for u in 0..self.n {
                g2[u] += (1 - d[u]) as f64;
                for &id in self.idx.postings(i, NodeId::new(u)).ids() {
                    if d[id as usize] == 0 {
                        g2[u] += 1.0;
                    }
                }
            }
        }
    }

    /// Applies layer `i`'s Algorithm-5 refresh for the new member `u` to the
    /// layer-local `D` slices, returning `(Σ D1 decrease, Σ D2 increase)`.
    fn update_layer(
        idx: &WalkIndex,
        u: NodeId,
        i: usize,
        d1: Option<&mut [u32]>,
        d2: Option<&mut [u8]>,
    ) -> (u64, u64) {
        let (mut dec1, mut inc2) = (0u64, 0u64);
        let pr = idx.postings(i, u);
        if let Some(d) = d1 {
            dec1 += d[u.index()] as u64;
            d[u.index()] = 0;
            for (&id, &w) in pr.ids().iter().zip(pr.weights()) {
                let slot = &mut d[id as usize];
                if (w as u32) < *slot {
                    dec1 += (*slot - w as u32) as u64;
                    *slot = w as u32;
                }
            }
        }
        if let Some(d) = d2 {
            if d[u.index()] == 0 {
                d[u.index()] = 1;
                inc2 += 1;
            }
            for &id in pr.ids() {
                let slot = &mut d[id as usize];
                if *slot == 0 {
                    *slot = 1;
                    inc2 += 1;
                }
            }
        }
        (dec1, inc2)
    }

    /// Algorithm 5: commits `u` to the target set and refreshes `D`,
    /// parallel over layer chunks. Each layer owns a disjoint slice of the
    /// `D` tables; the per-chunk `Σ D1`/`Σ D2` deltas are exact integer
    /// sums, reduced in chunk order, so totals are bit-identical at any
    /// worker count.
    pub fn update(&mut self, u: NodeId) {
        assert!(self.selected.insert(u), "node {u} selected twice");
        // An update touches only u's inverted lists — often a few hundred
        // entries. Fan out only when the postings work dwarfs thread
        // spawn/join cost; below the gate one part runs inline.
        let work: usize = (0..self.r).map(|i| self.idx.postings(i, u).len()).sum();
        let (n, r, idx) = (self.n, self.r, self.idx);
        let chunk = parallel::part_len(r, work, self.threads);
        let mut d1_parts = self.d1.chunks_mut(chunk * n);
        let mut d2_parts = self.d2.chunks_mut(chunk * n);
        // A part: its first layer and its layers' `D` slices (`None` for an
        // unused table).
        let parts = (0..r)
            .step_by(chunk)
            .map(|lo| (lo, d1_parts.next(), d2_parts.next()));
        let partials = parallel::fan_out(parts, |(lo, d1, d2)| {
            let mut l1 = d1.into_iter().flat_map(|d| d.chunks_mut(n));
            let mut l2 = d2.into_iter().flat_map(|d| d.chunks_mut(n));
            let (mut dec1, mut inc2) = (0u64, 0u64);
            for i in lo..(lo + chunk).min(r) {
                let (a, b) = Self::update_layer(idx, u, i, l1.next(), l2.next());
                dec1 += a;
                inc2 += b;
            }
            (dec1, inc2)
        });
        for (dec1, inc2) in partials {
            self.d1_total -= dec1;
            self.d2_total += inc2;
        }
    }

    fn blend(&self, g1: f64, g2: f64) -> f64 {
        self.rule.blend(g1, g2, self.n, self.l)
    }
}

/// The engine is the greedy driver's oracle for Algorithm 6: one index
/// sweep per gain pass, Algorithm 4 per candidate, Algorithm 5 per commit.
impl GainOracle for GainEngine<'_> {
    fn selected(&self) -> &NodeSet {
        &self.selected
    }

    fn gains_all(&self) -> Vec<f64> {
        GainEngine::gains_all(self)
    }

    fn gain_single(&self, u: NodeId) -> f64 {
        GainEngine::gain_single(self, u)
    }

    fn commit(&mut self, u: NodeId, _gain: f64) {
        self.update(u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_graph::generators::paper_example;
    use rwd_walks::WalkIndex;

    /// The Example 3.1 index: R = 1, L = 2, fixed walks.
    fn example31_index() -> WalkIndex {
        WalkIndex::from_walks(8, 2, &paper_example::example31_walks())
    }

    #[test]
    fn example_3_1_first_round_gains() {
        // Paper: σ(∅) = (2, 5, 3, 2, 3, 2, 5, 2) for v1..v8.
        let idx = example31_index();
        let engine = GainEngine::new(&idx, GainRule::HittingTime);
        let gains = engine.gains_all();
        assert_eq!(gains, vec![2.0, 5.0, 3.0, 2.0, 3.0, 2.0, 5.0, 2.0]);
        for u in 0..8 {
            assert_eq!(
                engine.gain_single(NodeId(u)),
                gains[u as usize],
                "v{}",
                u + 1
            );
        }
    }

    #[test]
    fn example_3_1_update_then_second_round() {
        let idx = example31_index();
        let mut engine = GainEngine::new(&idx, GainRule::HittingTime);
        // Paper breaks the v2/v7 tie toward v2.
        engine.update(NodeId(1)); // v2
                                  // Paper: after the update D[v2]=0, D[v1]=1, D[v3]=1, D[v5]=1, rest 2.
        let h = engine.hit_times();
        assert_eq!(h, vec![1.0, 0.0, 1.0, 2.0, 1.0, 2.0, 2.0, 2.0]);
        // Second round must select v7.
        let gains = engine.gains_all();
        let best = (0..8u32)
            .filter(|&u| !engine.selected().contains(NodeId(u)))
            .max_by(|&a, &b| {
                gains[a as usize]
                    .total_cmp(&gains[b as usize])
                    .then(b.cmp(&a))
            })
            .unwrap();
        assert_eq!(NodeId(best), NodeId(6), "v7 is the paper's second pick");
    }

    #[test]
    fn engine_hit_times_match_index_replay() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 4, 16, 3);
        let mut engine = GainEngine::new(&idx, GainRule::HittingTime);
        for pick in [NodeId(1), NodeId(6), NodeId(3)] {
            engine.update(pick);
            let incremental = engine.hit_times();
            let replay = idx.estimate_hit_times(engine.selected());
            assert_eq!(incremental, replay, "after inserting {pick}");
        }
    }

    #[test]
    fn engine_hit_probs_match_index_replay() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 4, 16, 3);
        let mut engine = GainEngine::new(&idx, GainRule::Coverage);
        for pick in [NodeId(6), NodeId(0)] {
            engine.update(pick);
            assert_eq!(
                engine.hit_probs(),
                idx.estimate_hit_probs(engine.selected())
            );
        }
    }

    #[test]
    fn gain_equals_estimate_difference() {
        // σ̂_u must equal F̂(S ∪ {u}) − F̂(S) computed from the same index.
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 3, 8, 11);
        for rule in [GainRule::HittingTime, GainRule::Coverage] {
            let mut engine = GainEngine::new(&idx, rule);
            engine.update(NodeId(4));
            let base = match rule {
                GainRule::HittingTime => engine.est_f1(),
                _ => engine.est_f2(),
            };
            for u in [0u32, 2, 6] {
                let predicted = engine.gain_single(NodeId(u));
                let mut probe = GainEngine::new(&idx, rule);
                probe.update(NodeId(4));
                probe.update(NodeId(u));
                let after = match rule {
                    GainRule::HittingTime => probe.est_f1(),
                    _ => probe.est_f2(),
                };
                assert!(
                    (predicted - (after - base)).abs() < 1e-9,
                    "rule {rule:?} u {u}: predicted {predicted} actual {}",
                    after - base
                );
            }
        }
    }

    #[test]
    fn gains_all_matches_gain_single_on_built_index() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 5, 12, 21);
        for rule in [
            GainRule::HittingTime,
            GainRule::Coverage,
            GainRule::Combined { lambda: 0.3 },
        ] {
            let mut engine = GainEngine::with_threads(&idx, rule, 3);
            engine.update(NodeId(2));
            let all = engine.gains_all();
            for u in 0..8u32 {
                let single = engine.gain_single(NodeId(u));
                assert!(
                    (all[u as usize] - single).abs() < 1e-12,
                    "rule {rule:?} u {u}"
                );
            }
        }
    }

    #[test]
    fn combined_endpoints_match_pure_rules() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 4, 8, 2);
        let pure1 = GainEngine::new(&idx, GainRule::HittingTime).gains_all();
        let pure2 = GainEngine::new(&idx, GainRule::Coverage).gains_all();
        let c1 = GainEngine::new(&idx, GainRule::Combined { lambda: 1.0 }).gains_all();
        let c0 = GainEngine::new(&idx, GainRule::Combined { lambda: 0.0 }).gains_all();
        let nl = 8.0 * 4.0;
        for u in 0..8 {
            assert!((c1[u] - pure1[u] / nl).abs() < 1e-12);
            assert!((c0[u] - pure2[u] / 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn est_f2_counts_members() {
        let idx = example31_index();
        let mut engine = GainEngine::new(&idx, GainRule::Coverage);
        assert_eq!(engine.est_f2(), 0.0);
        engine.update(NodeId(1)); // v2: hit by v1, v3, v5 plus itself
        assert_eq!(engine.est_f2(), 4.0);
    }

    #[test]
    fn parallel_update_path_is_thread_invariant_above_threshold() {
        // A star hub's inverted lists hold ~every leaf in every layer, so
        // r = 32 layers on a 2000-node star puts update(hub) well past
        // MIN_PARALLEL_SWEEP_WORK — the multi-worker branch must produce
        // bit-identical tables and totals at any worker count.
        let g = rwd_graph::generators::classic::star(2_000).unwrap();
        let idx = WalkIndex::build(&g, 3, 32, 17);
        let hub = NodeId(0);
        let work: usize = (0..idx.r()).map(|i| idx.postings(i, hub).len()).sum();
        assert!(
            work >= parallel::MIN_PARALLEL_SWEEP_WORK,
            "fixture must cross the parallel threshold (work = {work})"
        );
        for rule in [GainRule::HittingTime, GainRule::Coverage] {
            let mut serial = GainEngine::with_threads(&idx, rule, 1);
            serial.update(hub);
            for threads in [2, 8] {
                let mut engine = GainEngine::with_threads(&idx, rule, threads);
                engine.update(hub);
                match rule {
                    GainRule::HittingTime => {
                        assert_eq!(engine.est_f1().to_bits(), serial.est_f1().to_bits());
                        assert_eq!(engine.hit_times(), serial.hit_times());
                    }
                    _ => {
                        assert_eq!(engine.est_f2().to_bits(), serial.est_f2().to_bits());
                        assert_eq!(engine.hit_probs(), serial.hit_probs());
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_gains_all_path_is_thread_invariant_above_threshold() {
        // The same star fixture as the update test: its work measure
        // (r·n + postings) is far past the gate, so multi-thread engines
        // take the layer-parallel branch and must reproduce the serial
        // sweep bit for bit.
        let g = rwd_graph::generators::classic::star(2_000).unwrap();
        let idx = WalkIndex::build(&g, 3, 32, 17);
        assert!(
            idx.r() * idx.n() + idx.total_postings() >= parallel::MIN_PARALLEL_SWEEP_WORK,
            "fixture must cross the sweep gate"
        );
        for rule in [
            GainRule::HittingTime,
            GainRule::Coverage,
            GainRule::Combined { lambda: 0.6 },
        ] {
            let mut serial = GainEngine::with_threads(&idx, rule, 1);
            serial.update(NodeId(0));
            let expected = serial.gains_all();
            for threads in [2, 8] {
                let mut engine = GainEngine::with_threads(&idx, rule, threads);
                engine.update(NodeId(0));
                let gains = engine.gains_all();
                for (u, (a, b)) in gains.iter().zip(&expected).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "rule {rule:?} node {u}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn double_update_panics() {
        let idx = example31_index();
        let mut engine = GainEngine::new(&idx, GainRule::Coverage);
        engine.update(NodeId(0));
        engine.update(NodeId(0));
    }
}
