//! User-facing solvers.
//!
//! | Solver | Paper name | Gain oracle | Complexity |
//! |---|---|---|---|
//! | [`DpGreedy`] | `DPF1` / `DPF2` | exact DP (Eq. 4/8) | `O(k·n·mL)` plain, far less with CELF |
//! | [`SamplingGreedy`] | §3.1 sampling greedy | Algorithm 2 per candidate | `O(k·n²·RL)` plain |
//! | [`ApproxGreedy`] | `ApproxF1` / `ApproxF2` (Algorithm 6), and the combined `λ`-objective | Algorithm 4/5 over the walk index | `O(kRLn)` time, `O(nRL + m)` space |
//!
//! All three run their rounds through the one greedy driver
//! ([`driver::greedy_plain`] / [`driver::greedy_lazy`]), except that
//! [`Strategy::Delta`] takes the delta engine's maintained argmax instead;
//! every [`Selection`] is built by one `finish`. Every solver is a
//! deterministic function of `(graph, problem, params)`.

use std::time::Instant;

use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::{WalkGraph, WalkIndex};

use crate::greedy::approx::{GainEngine, GainRule};
use crate::greedy::delta::DeltaGainEngine;
use crate::greedy::driver::{self, GreedyOutcome};
use crate::greedy::Strategy;
use crate::objective::{ExactF1, ExactF2, SampledF1, SampledF2};
use crate::problem::{Params, Problem, Selection};
use crate::Result;

/// Exact greedy: marginal gains from the Eq. (4)/(8) dynamic programs.
///
/// The paper's `DPF1`/`DPF2`. Any non-[`Strategy::Sweep`] strategy runs
/// CELF, which the paper recommends via \[19\]; selections are identical
/// either way.
#[derive(Clone, Copy, Debug)]
pub struct DpGreedy {
    problem: Problem,
    params: Params,
}

impl DpGreedy {
    /// Creates the solver.
    pub fn new(problem: Problem, params: Params) -> Self {
        DpGreedy { problem, params }
    }

    /// Runs the selection.
    pub fn run(&self, g: &CsrGraph) -> Result<Selection> {
        self.params.validate(g.n())?;
        let start = Instant::now();
        let outcome = match self.problem {
            Problem::MinHittingTime => driver::greedy(
                &ExactF1::new(g, self.params.l),
                self.params.k,
                self.params.strategy.lazy(),
            ),
            Problem::MaxCoverage => driver::greedy(
                &ExactF2::new(g, self.params.l),
                self.params.k,
                self.params.strategy.lazy(),
            ),
        };
        Ok(finish(
            outcome,
            start,
            format!("DP{}", self.problem.suffix()),
        ))
    }
}

/// Sampling-based greedy (§3.1): marginal gains estimated per candidate by
/// Algorithm 2. Dominated by [`ApproxGreedy`] in practice (the paper says as
/// much) but included for completeness and as a cross-check.
#[derive(Clone, Copy, Debug)]
pub struct SamplingGreedy {
    problem: Problem,
    params: Params,
}

impl SamplingGreedy {
    /// Creates the solver.
    pub fn new(problem: Problem, params: Params) -> Self {
        SamplingGreedy { problem, params }
    }

    /// Runs the selection.
    pub fn run(&self, g: &CsrGraph) -> Result<Selection> {
        self.params.validate(g.n())?;
        let Params {
            k,
            l,
            r,
            seed,
            strategy,
            ..
        } = self.params;
        let start = Instant::now();
        let lazy = strategy.lazy();
        let outcome = match self.problem {
            Problem::MinHittingTime => driver::greedy(&SampledF1::new(g, l, r, seed), k, lazy),
            Problem::MaxCoverage => driver::greedy(&SampledF2::new(g, l, r, seed), k, lazy),
        };
        Ok(finish(
            outcome,
            start,
            format!("Sampling{}", self.problem.suffix()),
        ))
    }
}

/// The approximate greedy algorithm (Algorithm 6): builds the dual-view
/// walk index once, then selects `k` nodes with Algorithm 4/5 gain
/// evaluation under the configured [`Strategy`]:
///
/// * [`Strategy::Sweep`] reproduces the paper exactly — one full index
///   sweep per round,
/// * [`Strategy::Celf`] (default) runs one initial sweep and then CELF
///   with per-candidate Algorithm 4,
/// * [`Strategy::Delta`] maintains every candidate's exact gain
///   incrementally through the index's forward view
///   ([`DeltaGainEngine`]) — per-round work proportional to what the last
///   commit changed, no resweeps at all.
///
/// Selections are identical under every strategy (the index is fixed, so
/// gains are deterministic); the perf gate tests
/// (`crates/bench/tests/gates.rs`) time `Delta` against `Celf`.
#[derive(Clone, Copy, Debug)]
pub struct ApproxGreedy {
    rule: GainRule,
    params: Params,
}

impl ApproxGreedy {
    /// Creates the solver for a [`Problem`], or for any [`GainRule`] such as
    /// the combined `λ`-objective (extension; see [`GainRule::Combined`]).
    pub fn new(rule: impl Into<GainRule>, params: Params) -> Self {
        ApproxGreedy {
            rule: rule.into(),
            params,
        }
    }

    /// Builds the index and runs the selection; the reported time includes
    /// the build. On a weighted graph the walks follow edge weights (the
    /// paper's weighted extension) and Algorithms 4–6 run unchanged on the
    /// weighted walk index.
    pub fn run<G: WalkGraph>(&self, g: &G) -> Result<Selection> {
        self.params.validate(g.n())?;
        let start = Instant::now();
        let Params {
            l,
            r,
            seed,
            threads,
            ..
        } = self.params;
        let idx = WalkIndex::build_with_threads(g, l, r, seed, threads);
        let mut sel = self.run_with_index(&idx)?;
        sel.elapsed = start.elapsed();
        Ok(sel)
    }

    /// Runs the selection against a prebuilt index (parameter sweeps reuse
    /// one index across many `k`/`λ` settings).
    pub fn run_with_index(&self, idx: &WalkIndex) -> Result<Selection> {
        self.params.validate(idx.n())?;
        let Params {
            k,
            strategy,
            threads,
            ..
        } = self.params;
        let mut sel = select_from_index(idx, self.rule, k, strategy, threads)?;
        sel.algorithm = match self.rule {
            GainRule::HittingTime => "ApproxF1".into(),
            GainRule::Coverage => "ApproxF2".into(),
            GainRule::Combined { lambda } => format!("ApproxCombined(λ={lambda})"),
        };
        Ok(sel)
    }
}

/// Core of Algorithm 6 given a built index, a gain rule and an evaluation
/// [`Strategy`]. All strategies return identical selections; see
/// [`ApproxGreedy`] for the trade-offs.
pub fn select_from_index(
    idx: &WalkIndex,
    rule: GainRule,
    k: usize,
    strategy: Strategy,
    threads: usize,
) -> Result<Selection> {
    if strategy == Strategy::Delta {
        return delta_greedy_with_stats(idx, rule, k, threads).map(|(sel, _)| sel);
    }
    check_budget(k, idx.n())?;
    let start = Instant::now();
    let mut engine = GainEngine::with_threads(idx, rule, threads);
    let outcome = driver::run(&mut engine, k, strategy.lazy());
    Ok(finish(outcome, start, String::new()))
}

/// [`Strategy::Delta`] greedy with per-round output-sensitivity stats: the
/// second return value is, for each round, the number of postings the
/// delta repair actually streamed (the delta-vs-CELF perf gate checks it
/// against one full index sweep; after round 1 it is typically far
/// below).
pub fn delta_greedy_with_stats(
    idx: &WalkIndex,
    rule: GainRule,
    k: usize,
    threads: usize,
) -> Result<(Selection, Vec<usize>)> {
    check_budget(k, idx.n())?;
    let start = Instant::now();
    let mut engine = DeltaGainEngine::with_threads(idx, rule, threads);
    let mut outcome = GreedyOutcome::with_capacity(k);
    // The closed-form initialization evaluates every candidate once; the
    // rounds themselves re-evaluate nothing.
    outcome.evaluations = idx.n();
    let mut touched = Vec::with_capacity(k);
    for _round in 0..k {
        let (pick, gain) = engine.best_candidate().expect("k <= n leaves candidates");
        engine.update(pick);
        outcome.record(pick, gain, 0.0);
        touched.push(engine.last_update_touched());
    }
    Ok((finish(outcome, start, String::new()), touched))
}

/// Objective of an **arbitrary** seed sequence at query time: replays the
/// seeds in order through a [`DeltaGainEngine`] and telescopes the exact
/// marginals (`F(∅) = 0`), so the result is the same sampled objective
/// `F̂(S)` every solver reports — without running any greedy search.
///
/// When `seeds` is the sequence a greedy pass selected on this index, the
/// returned value is **bit-identical** to that pass's gain-trace sum (the
/// serving layer uses this to audit a snapshot's cached objective). For
/// any other order of the same set the value can differ only by
/// floating-point reassociation.
///
/// Cost: `O(n)` closed-form startup plus the seeds' forward-repair streams
/// — output-sensitive, not `k` full sweeps.
pub fn objective_from_index(
    idx: &WalkIndex,
    seeds: &[NodeId],
    rule: GainRule,
    threads: usize,
) -> Result<f64> {
    let n = idx.n();
    if seeds.len() > n {
        return Err(crate::CoreError::InvalidParams(format!(
            "{} seeds exceed the node universe {n}",
            seeds.len()
        )));
    }
    let mut seen = rwd_walks::NodeSet::new(n);
    for &s in seeds {
        if s.index() >= n {
            return Err(crate::CoreError::InvalidParams(format!(
                "seed {s} outside the node universe {n}"
            )));
        }
        if !seen.insert(s) {
            return Err(crate::CoreError::InvalidParams(format!(
                "seed {s} listed twice"
            )));
        }
    }
    let mut engine = DeltaGainEngine::with_threads(idx, rule, threads);
    let mut objective = 0.0f64;
    for &s in seeds {
        objective += engine.gain(s);
        engine.update(s);
    }
    Ok(objective)
}

/// Rejects a budget outside `[1, n]`.
fn check_budget(k: usize, n: usize) -> Result<()> {
    if k == 0 || k > n {
        return Err(crate::CoreError::InvalidParams(format!(
            "k = {k} outside [1, n = {n}]"
        )));
    }
    Ok(())
}

fn finish(outcome: GreedyOutcome, start: Instant, algorithm: String) -> Selection {
    Selection {
        nodes: outcome.nodes,
        gain_trace: outcome.gain_trace,
        objective_trace: outcome.objective_trace,
        evaluations: outcome.evaluations,
        elapsed: start.elapsed(),
        algorithm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_graph::generators::{barabasi_albert, classic, paper_example};
    use rwd_walks::hitting;

    fn params(k: usize, l: u32, r: usize) -> Params {
        Params {
            k,
            l,
            r,
            seed: 7,
            threads: 0,
            strategy: Strategy::Celf,
        }
    }

    #[test]
    fn objective_from_index_matches_greedy_trace_sum() {
        let g = barabasi_albert(150, 3, 4).unwrap();
        let idx = WalkIndex::build(&g, 5, 6, 9);
        for rule in [
            GainRule::HittingTime,
            GainRule::Coverage,
            GainRule::Combined { lambda: 0.4 },
        ] {
            let sel = select_from_index(&idx, rule, 5, Strategy::Delta, 0).unwrap();
            let trace_sum: f64 = sel.gain_trace.iter().sum();
            let replayed = objective_from_index(&idx, &sel.nodes, rule, 0).unwrap();
            assert_eq!(
                replayed.to_bits(),
                trace_sum.to_bits(),
                "replay diverged for {rule:?}"
            );
            // Any permutation telescopes to the same objective up to
            // floating-point reassociation.
            let mut reversed = sel.nodes.clone();
            reversed.reverse();
            let alt = objective_from_index(&idx, &reversed, rule, 0).unwrap();
            assert!((alt - trace_sum).abs() < 1e-9 * trace_sum.abs().max(1.0));
        }
        // Degenerate and invalid inputs.
        assert_eq!(
            objective_from_index(&idx, &[], GainRule::Coverage, 0).unwrap(),
            0.0
        );
        assert!(
            objective_from_index(&idx, &[NodeId(0), NodeId(0)], GainRule::Coverage, 0).is_err()
        );
        assert!(objective_from_index(&idx, &[NodeId(150)], GainRule::Coverage, 0).is_err());
    }

    #[test]
    fn dp_greedy_selects_hub_on_star() {
        let g = classic::star(12).unwrap();
        for problem in [Problem::MinHittingTime, Problem::MaxCoverage] {
            let sel = DpGreedy::new(problem, params(1, 4, 10)).run(&g).unwrap();
            assert_eq!(sel.nodes, vec![NodeId(0)], "{problem:?}");
        }
    }

    #[test]
    fn dp_greedy_lazy_equals_plain() {
        let g = paper_example::figure1();
        for problem in [Problem::MinHittingTime, Problem::MaxCoverage] {
            let lazy = DpGreedy::new(problem, params(4, 4, 10)).run(&g).unwrap();
            let mut p = params(4, 4, 10);
            p.strategy = Strategy::Sweep;
            let plain = DpGreedy::new(problem, p).run(&g).unwrap();
            assert_eq!(lazy.nodes, plain.nodes);
            assert!(lazy.evaluations <= plain.evaluations);
        }
    }

    #[test]
    fn all_strategies_select_identically() {
        let g = barabasi_albert(200, 3, 3).unwrap();
        for problem in [Problem::MinHittingTime, Problem::MaxCoverage] {
            let mut p = params(10, 5, 32);
            p.strategy = Strategy::Sweep;
            let sweep = ApproxGreedy::new(problem, p).run(&g).unwrap();
            for strategy in [Strategy::Celf, Strategy::Delta] {
                p.strategy = strategy;
                let other = ApproxGreedy::new(problem, p).run(&g).unwrap();
                assert_eq!(sweep.nodes, other.nodes, "{problem:?} {strategy:?}");
                assert_eq!(
                    sweep.gain_trace, other.gain_trace,
                    "{problem:?} {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn delta_stats_report_output_sensitive_rounds() {
        let g = barabasi_albert(300, 4, 5).unwrap();
        let idx = WalkIndex::build(&g, 6, 16, 9);
        let (sel, touched) = delta_greedy_with_stats(&idx, GainRule::Coverage, 10, 0).unwrap();
        assert_eq!(sel.nodes.len(), 10);
        assert_eq!(touched.len(), 10);
        // Every round's repair must stay below one full index resweep.
        assert!(touched[1..].iter().all(|&t| t < idx.total_postings()));
    }

    #[test]
    fn approx_tracks_dp_objective_closely() {
        // The headline claim (Figs. 2–3): ApproxF* ≈ DPF* in objective value.
        let g = barabasi_albert(150, 3, 1).unwrap();
        let l = 5;
        let k = 8;
        let dp1 = DpGreedy::new(Problem::MinHittingTime, params(k, l, 1))
            .run(&g)
            .unwrap();
        let ap1 = ApproxGreedy::new(Problem::MinHittingTime, params(k, l, 200))
            .run(&g)
            .unwrap();
        let exact_of = |sel: &Selection| hitting::exact_f1(&g, &sel.to_set(g.n()), l);
        let (d, a) = (exact_of(&dp1), exact_of(&ap1));
        assert!(a >= 0.93 * d, "approx F1 {a} vs dp {d}");

        let dp2 = DpGreedy::new(Problem::MaxCoverage, params(k, l, 1))
            .run(&g)
            .unwrap();
        let ap2 = ApproxGreedy::new(Problem::MaxCoverage, params(k, l, 200))
            .run(&g)
            .unwrap();
        let exact2 = |sel: &Selection| hitting::exact_f2(&g, &sel.to_set(g.n()), l);
        let (d, a) = (exact2(&dp2), exact2(&ap2));
        assert!(a >= 0.93 * d, "approx F2 {a} vs dp {d}");
    }

    #[test]
    fn sampling_greedy_matches_dp_on_small_graph() {
        let g = paper_example::figure1();
        let dp = DpGreedy::new(Problem::MaxCoverage, params(2, 4, 1))
            .run(&g)
            .unwrap();
        let sg = SamplingGreedy::new(Problem::MaxCoverage, params(2, 4, 800))
            .run(&g)
            .unwrap();
        let f = |sel: &Selection| hitting::exact_f2(&g, &sel.to_set(8), 4);
        assert!(f(&sg) >= 0.95 * f(&dp), "sampling {} dp {}", f(&sg), f(&dp));
    }

    #[test]
    fn selection_is_deterministic() {
        let g = barabasi_albert(120, 3, 9).unwrap();
        let a = ApproxGreedy::new(Problem::MaxCoverage, params(6, 5, 40))
            .run(&g)
            .unwrap();
        let b = ApproxGreedy::new(Problem::MaxCoverage, params(6, 5, 40))
            .run(&g)
            .unwrap();
        assert_eq!(a.nodes, b.nodes);
        let mut p = params(6, 5, 40);
        p.threads = 2;
        let c = ApproxGreedy::new(Problem::MaxCoverage, p).run(&g).unwrap();
        assert_eq!(a.nodes, c.nodes, "thread count must not change selection");
    }

    #[test]
    fn run_with_index_reuses_walks() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 4, 16, 5);
        let p = params(3, 4, 16);
        let via_index = ApproxGreedy::new(Problem::MaxCoverage, p)
            .run_with_index(&idx)
            .unwrap();
        let mut p2 = p;
        p2.seed = 5;
        let direct = ApproxGreedy::new(Problem::MaxCoverage, p2).run(&g).unwrap();
        assert_eq!(via_index.nodes, direct.nodes);
    }

    #[test]
    fn combined_interpolates_between_problems() {
        let g = barabasi_albert(150, 3, 2).unwrap();
        let p = params(6, 5, 64);
        let f1_side = ApproxGreedy::new(GainRule::Combined { lambda: 1.0 }, p)
            .run(&g)
            .unwrap();
        assert_eq!(f1_side.algorithm, "ApproxCombined(λ=1)");
        let pure1 = ApproxGreedy::new(Problem::MinHittingTime, p)
            .run(&g)
            .unwrap();
        assert_eq!(f1_side.nodes, pure1.nodes, "λ=1 reduces to Problem 1");
        let f2_side = ApproxGreedy::new(GainRule::Combined { lambda: 0.0 }, p)
            .run(&g)
            .unwrap();
        let pure2 = ApproxGreedy::new(Problem::MaxCoverage, p).run(&g).unwrap();
        assert_eq!(f2_side.nodes, pure2.nodes, "λ=0 reduces to Problem 2");
    }

    #[test]
    fn objective_trace_is_cumulative_gains() {
        let g = paper_example::figure1();
        let sel = ApproxGreedy::new(Problem::MaxCoverage, params(3, 3, 16))
            .run(&g)
            .unwrap();
        let mut acc = 0.0;
        for (g, o) in sel.gain_trace.iter().zip(&sel.objective_trace) {
            acc += g;
            assert!((acc - o).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let g = paper_example::figure1();
        assert!(DpGreedy::new(Problem::MaxCoverage, params(0, 3, 10))
            .run(&g)
            .is_err());
        assert!(DpGreedy::new(Problem::MaxCoverage, params(9, 3, 10))
            .run(&g)
            .is_err());
        assert!(ApproxGreedy::new(Problem::MaxCoverage, params(3, 3, 0))
            .run(&g)
            .is_err());
    }
}
