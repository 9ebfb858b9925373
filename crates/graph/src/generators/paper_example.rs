//! The running example graph of the paper (Figure 1).

use crate::csr::CsrGraph;
use crate::node::NodeId;

/// Number of nodes in the Figure 1 graph.
pub const N: usize = 8;

/// Builds the 8-node, 10-edge graph of the paper's Figure 1.
///
/// The paper labels nodes `v1..v8`; here `v_i` is `NodeId(i - 1)`. The edge
/// set is reconstructed from every walk the paper exhibits:
/// `(v1,v2,v3,v2,v6)`, `(v1,v6,v2,v3,v5)` (Section 2) and the eight walks of
/// Example 3.1 — all of them are valid walks on exactly this edge set, and
/// the resulting inverted index reproduces Table 1 verbatim (asserted in the
/// integration tests).
pub fn figure1() -> CsrGraph {
    // v1-v2, v1-v6, v2-v3, v2-v5, v2-v6, v3-v5, v4-v7, v5-v7, v6-v7, v7-v8
    CsrGraph::from_edges(
        N,
        &[
            (0, 1),
            (0, 5),
            (1, 2),
            (1, 4),
            (1, 5),
            (2, 4),
            (3, 6),
            (4, 6),
            (5, 6),
            (6, 7),
        ],
    )
    .expect("static edge list is valid")
}

/// The eight walks of the paper's Example 3.1 (`R = 1`, `L = 2`), one per
/// source `v1..v8` in order — the walks behind Table 1.
pub fn example31_walks() -> Vec<Vec<NodeId>> {
    [
        [1, 2, 3],
        [2, 3, 5],
        [3, 2, 5],
        [4, 7, 5],
        [5, 2, 6],
        [6, 7, 5],
        [7, 5, 7],
        [8, 7, 4],
    ]
    .iter()
    .map(|w| w.iter().map(|&x| v(x)).collect())
    .collect()
}

/// Converts a paper label `v1..v8` to the dense [`NodeId`] used here.
pub fn v(label: usize) -> NodeId {
    assert!((1..=N).contains(&label), "paper labels run v1..v8");
    NodeId::new(label - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let g = figure1();
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 10);
    }

    #[test]
    fn walks_from_the_paper_are_valid() {
        let g = figure1();
        let section2: [&[usize]; 2] = [&[1, 2, 3, 2, 6], &[1, 6, 2, 3, 5]];
        let walks = section2
            .iter()
            .map(|w| w.iter().map(|&x| v(x)).collect())
            .chain(example31_walks());
        for walk in walks {
            for pair in walk.windows(2) {
                assert!(
                    g.has_edge(pair[0], pair[1]),
                    "edge v{}-v{} missing",
                    pair[0].index() + 1,
                    pair[1].index() + 1
                );
            }
        }
        // One walk per source, in label order.
        for (i, walk) in example31_walks().iter().enumerate() {
            assert_eq!(walk[0], v(i + 1));
        }
    }

    #[test]
    fn degrees_match_figure() {
        let g = figure1();
        // v2 and v7 are the two hubs of the figure (degree 4 each).
        assert_eq!(g.degree(v(2)), 4);
        assert_eq!(g.degree(v(7)), 4);
        assert_eq!(g.degree(v(1)), 2);
        assert_eq!(g.degree(v(8)), 1);
    }

    #[test]
    #[should_panic(expected = "paper labels")]
    fn label_zero_panics() {
        let _ = v(0);
    }
}
