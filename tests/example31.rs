//! Faithful reproduction of the paper's running example (Example 3.1 and
//! Table 1) through the public API.
//!
//! The paper fixes R = 1, L = 2 and the eight walks
//! `(v1,v2,v3) … (v8,v7,v4)`, then traces Algorithm 3 (index), Algorithm 4
//! (first-round gains), the v2 selection, Algorithm 5 (update), and the
//! second-round selection of v7. Every intermediate value printed in the
//! paper is asserted here.

use rwd::core::greedy::approx::{GainEngine, GainRule};
use rwd::graph::generators::paper_example::{example31_walks, figure1, v};
use rwd::prelude::*;

fn example_index() -> WalkIndex {
    WalkIndex::from_walks(8, 2, &example31_walks())
}

#[test]
fn walks_are_valid_on_figure1() {
    let g = figure1();
    for w in example31_walks() {
        assert!(g.has_edge(w[0], w[1]), "{}-{}", w[0], w[1]);
        assert!(g.has_edge(w[1], w[2]), "{}-{}", w[1], w[2]);
    }
}

#[test]
fn table_1_inverted_index() {
    let idx = example_index();
    let list = |label: usize| -> Vec<(usize, u32)> {
        idx.postings(0, v(label))
            .iter()
            .map(|p| (p.id.index() + 1, p.weight))
            .collect()
    };
    assert_eq!(list(1), vec![]);
    assert_eq!(list(2), vec![(1, 1), (3, 1), (5, 1)]);
    assert_eq!(list(3), vec![(1, 2), (2, 1)]);
    assert_eq!(list(4), vec![(8, 2)]);
    assert_eq!(list(5), vec![(2, 2), (3, 2), (4, 2), (6, 2), (7, 1)]);
    assert_eq!(list(6), vec![(5, 2)]);
    assert_eq!(list(7), vec![(4, 1), (6, 1), (8, 1)]);
    assert_eq!(list(8), vec![]);
}

#[test]
fn first_round_gains_match_paper() {
    // σ_v1(∅)=2, σ_v2(∅)=5, σ_v3(∅)=3, σ_v4(∅)=2, σ_v5(∅)=3, σ_v6(∅)=2,
    // σ_v7(∅)=5, σ_v8(∅)=2.
    let idx = example_index();
    let engine = GainEngine::new(&idx, GainRule::HittingTime);
    let gains = engine.gains_all();
    let expected = [2.0, 5.0, 3.0, 2.0, 3.0, 2.0, 5.0, 2.0];
    for label in 1..=8 {
        assert_eq!(
            gains[v(label).index()],
            expected[label - 1],
            "σ_v{label}(∅)"
        );
    }
}

#[test]
fn update_after_v2_matches_paper() {
    // "only D[1][2], D[1][1], D[1][3], and D[1][5] need to be updated, and
    //  they are re-set to 0, 1, 1, and 1" — paper indexes by label here.
    let idx = example_index();
    let mut engine = GainEngine::new(&idx, GainRule::HittingTime);
    engine.update(v(2));
    let d = engine.hit_times();
    assert_eq!(d[v(2).index()], 0.0);
    assert_eq!(d[v(1).index()], 1.0);
    assert_eq!(d[v(3).index()], 1.0);
    assert_eq!(d[v(5).index()], 1.0);
    for label in [4usize, 6, 7, 8] {
        assert_eq!(d[v(label).index()], 2.0, "D[v{label}] untouched");
    }
}

#[test]
fn algorithm_6_selects_v2_then_v7() {
    // The paper breaks the first-round v2/v7 tie toward v2 ("assume that in
    // this round, the algorithm selects v2"); our deterministic tie-break
    // (smaller id) does the same. Second round must pick v7.
    let idx = example_index();
    let sel =
        rwd::core::algo::select_from_index(&idx, GainRule::HittingTime, 2, Strategy::Sweep, 1)
            .expect("selection");
    assert_eq!(sel.nodes, vec![v(2), v(7)]);
    // CELF and the delta engine agree.
    for strategy in [Strategy::Celf, Strategy::Delta] {
        let other = rwd::core::algo::select_from_index(&idx, GainRule::HittingTime, 2, strategy, 1)
            .expect("selection");
        assert_eq!(other.nodes, vec![v(2), v(7)], "{strategy:?}");
    }
}

#[test]
fn problem_2_on_example_walks() {
    // Under the coverage rule, v2's first-round gain is 1 + |{v1, v3, v5}|
    // = 4 and v7's is 1 + |{v4, v6, v8}| = 4; v5 gets 1 + 5 = 6 (hit by
    // v2, v3, v4, v6, v7), making it the top pick.
    let idx = example_index();
    let engine = GainEngine::new(&idx, GainRule::Coverage);
    let gains = engine.gains_all();
    assert_eq!(gains[v(2).index()], 4.0);
    assert_eq!(gains[v(7).index()], 4.0);
    assert_eq!(gains[v(5).index()], 6.0);
    let sel = rwd::core::algo::select_from_index(&idx, GainRule::Coverage, 1, Strategy::Sweep, 1)
        .expect("selection");
    assert_eq!(sel.nodes, vec![v(5)]);
}

#[test]
fn estimated_f1_after_both_picks() {
    // After S = {v2, v7}: D = [1, 0, 1, 1, 1, 2, 0, 1] (v4 hits v7 at hop 1,
    // v6 at hop 1, v8 at hop 1; v5 keeps 1 via v2; v6's walk (v6,v7,v5) hits
    // v7 at hop 1 → 1; recompute: v1→1, v3→1, v5→1, v4→1, v6→1, v8→1).
    let idx = example_index();
    let mut engine = GainEngine::new(&idx, GainRule::HittingTime);
    engine.update(v(2));
    engine.update(v(7));
    let d = engine.hit_times();
    let expected = [1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0];
    for label in 1..=8 {
        assert_eq!(d[v(label).index()], expected[label - 1], "D[v{label}]");
    }
    // F̂1 = nL − Σ D = 16 − 6 = 10, matching σ_v2(∅) + σ_v7(S) = 5 + 5.
    assert_eq!(engine.est_f1(), 10.0);
}
