//! Strategy equivalence: `Strategy::Delta` must be a pure accelerator.
//!
//! The delta engine maintains every candidate's gain as exact integers
//! repaired through the forward view, so its selections, gain traces and
//! objective traces must be **byte-identical** to both CELF and the plain
//! per-round sweep — on unweighted and weighted graphs, at k ∈ {1, 5, 20}
//! and 1/2/8 worker threads. Any divergence means the delta recurrence
//! dropped or double-counted a repair.

use rwd::core::algo::delta_greedy_with_stats;
use rwd::core::greedy::approx::GainRule;
use rwd::prelude::*;

const KS: [usize; 3] = [1, 5, 20];
const THREADS: [usize; 3] = [1, 2, 8];

fn ba_graph() -> CsrGraph {
    rwd::graph::generators::barabasi_albert(400, 4, 0xDE17A).unwrap()
}

/// Bitwise equality for f64 traces (all strategies do the same arithmetic
/// on the same integers, so there is no tolerance to grant).
fn assert_traces_identical(a: &Selection, b: &Selection, ctx: &str) {
    assert_eq!(a.nodes, b.nodes, "{ctx}: seed sets differ");
    assert_eq!(
        a.gain_trace.len(),
        b.gain_trace.len(),
        "{ctx}: trace lengths differ"
    );
    for (i, (x, y)) in a.gain_trace.iter().zip(&b.gain_trace).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: gain_trace[{i}]");
    }
    for (i, (x, y)) in a.objective_trace.iter().zip(&b.objective_trace).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: objective_trace[{i}]");
    }
}

#[test]
fn delta_matches_celf_and_sweep_on_unweighted_graphs() {
    let g = ba_graph();
    for problem in [Problem::MinHittingTime, Problem::MaxCoverage] {
        for k in KS {
            for threads in THREADS {
                let mk = |strategy: Strategy| {
                    let p = Params {
                        k,
                        l: 5,
                        r: 32,
                        seed: 11,
                        threads,
                        strategy,
                    };
                    ApproxGreedy::new(problem, p).run(&g).unwrap()
                };
                let delta = mk(Strategy::Delta);
                let celf = mk(Strategy::Celf);
                let sweep = mk(Strategy::Sweep);
                let ctx = format!("{problem:?} k={k} threads={threads}");
                assert_traces_identical(&delta, &celf, &format!("{ctx} vs celf"));
                assert_traces_identical(&delta, &sweep, &format!("{ctx} vs sweep"));
            }
        }
    }
}

#[test]
fn delta_matches_celf_and_sweep_on_weighted_graphs() {
    let g = ba_graph();
    let wg = rwd::graph::weighted::weighted_twin(&g, 0xDE17A).unwrap();
    for problem in [Problem::MinHittingTime, Problem::MaxCoverage] {
        for k in KS {
            for threads in THREADS {
                let mk = |strategy: Strategy| {
                    let p = Params {
                        k,
                        l: 5,
                        r: 32,
                        seed: 13,
                        threads,
                        strategy,
                    };
                    ApproxGreedy::new(problem, p).run(&wg).unwrap()
                };
                let delta = mk(Strategy::Delta);
                let celf = mk(Strategy::Celf);
                let sweep = mk(Strategy::Sweep);
                let ctx = format!("weighted {problem:?} k={k} threads={threads}");
                assert_traces_identical(&delta, &celf, &format!("{ctx} vs celf"));
                assert_traces_identical(&delta, &sweep, &format!("{ctx} vs sweep"));
            }
        }
    }
}

#[test]
fn delta_matches_under_combined_rule() {
    // The λ-blend exercises both D tables and both gain tables in one
    // engine; the blend arithmetic must still be bit-identical.
    let g = ba_graph();
    let idx = WalkIndex::build(&g, 5, 24, 21);
    for lambda in [0.0, 0.35, 1.0] {
        let rule = GainRule::Combined { lambda };
        for threads in THREADS {
            let delta =
                rwd::core::algo::select_from_index(&idx, rule, 10, Strategy::Delta, threads)
                    .unwrap();
            let celf = rwd::core::algo::select_from_index(&idx, rule, 10, Strategy::Celf, threads)
                .unwrap();
            assert_traces_identical(
                &delta,
                &celf,
                &format!("combined λ={lambda} threads={threads}"),
            );
        }
    }
}

#[test]
fn delta_rounds_do_sublinear_work_after_round_one() {
    // The acceptance-criterion shape: per-round touched postings drop well
    // below one full index sweep once the D tables tighten.
    let g = ba_graph();
    let idx = WalkIndex::build(&g, 6, 64, 5);
    let (sel, touched) = delta_greedy_with_stats(&idx, GainRule::HittingTime, 20, 0).unwrap();
    assert_eq!(sel.nodes.len(), 20);
    let total = idx.total_postings();
    for (round, &t) in touched.iter().enumerate().skip(1) {
        assert!(
            t < total / 2,
            "round {round} touched {t} of {total} postings — not output-sensitive"
        );
    }
}
