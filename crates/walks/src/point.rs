//! Point queries over the walk index — the serving-path entry points.
//!
//! [`WalkIndex::estimate_hit_times`] and [`WalkIndex::estimate_hit_probs`]
//! answer "what is the estimate for *every* node" in `O(n·R + postings(S))`
//! — the right shape for a greedy sweep, the wrong shape for an online
//! query about *one* node. The entry points here answer single-node
//! questions from the **forward view** instead:
//!
//! * [`WalkIndex::point_hit_time`] / [`WalkIndex::point_hit_prob`] — scan
//!   `forward(i, u)` per layer, `O(Σ_i |forward(i, u)|)` ≤ `O(R·L)` total,
//!   with early exit at the first set member (forward lists are in
//!   ascending hop order, so the first member hit *is* the minimum hop);
//! * [`WalkIndex::coverage`] / [`WalkIndex::top_m_uncovered`] — stream the
//!   inverted lists of the set members only, `O(n + R·|S| + postings(S))`,
//!   never the whole index.
//!
//! Every function reproduces the corresponding full-sweep estimator
//! **bit-identically**: all per-layer contributions are small integers
//! (exactly representable in `f64`, so summation order cannot matter) and
//! the final division by `R` is the same single operation the sweep
//! performs. The serving layer (`rwd-serve`) relies on this to answer
//! queries from a pinned snapshot without ever running a sweep.

use rwd_graph::NodeId;

use crate::index::WalkIndex;
use crate::nodeset::NodeSet;

/// The raw integer numerators of one index's point-query answer — what a
/// shard returns to a scatter-gather coordinator. Per-layer contributions
/// are small integers, so summing `PartialContribution`s across shards in
/// any order and dividing the totals once by the *global* `R` reproduces
/// the monolithic [`WalkIndex::point_hit_time`] /
/// [`WalkIndex::point_hit_prob`] bit for bit.
///
/// Both sums are carried because a layer whose walk first hits the set at
/// hop `L` and a layer that misses entirely contribute the same `L` to
/// `hop_sum` — the hit count cannot be recovered from the hop sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartialContribution {
    /// Layers scanned (the contributing index's `r`).
    pub layers: usize,
    /// Σ over layers of the first-visit hop into the set (`L` on a miss;
    /// `0` per layer when the queried node is itself a member).
    pub hop_sum: u64,
    /// Layers whose walk reaches the set (every layer when the queried
    /// node is a member).
    pub hits: u64,
}

impl PartialContribution {
    /// Accumulates another shard's contribution (integer sums commute, so
    /// merge order never matters).
    pub fn merge(&mut self, other: &PartialContribution) {
        self.layers += other.layers;
        self.hop_sum += other.hop_sum;
        self.hits += other.hits;
    }
}

/// Selects the `m` nodes with the lowest covered-layer count (ties toward
/// the smaller id) from a merged per-node count table, attaching each
/// node's hit probability `count / r`. This is the selection step of
/// [`WalkIndex::top_m_uncovered`], split out so a scatter-gather
/// coordinator that summed per-shard [`WalkIndex::covered_layer_counts`]
/// tables runs the *same* code path as the monolithic query — bit-identical
/// by construction.
pub fn top_m_from_counts(counts: &[u32], r: usize, m: usize) -> Vec<(NodeId, f64)> {
    let mut order: Vec<u32> = (0..counts.len() as u32).collect();
    let m = m.min(order.len());
    if m == 0 {
        return Vec::new();
    }
    let key = |v: &u32| (counts[*v as usize], *v);
    if m < order.len() {
        order.select_nth_unstable_by_key(m - 1, key);
        order.truncate(m);
    }
    order.sort_unstable_by_key(key);
    let r = r as f64;
    order
        .into_iter()
        .map(|v| (NodeId(v), counts[v as usize] as f64 / r))
        .collect()
}

impl WalkIndex {
    /// Point form of [`WalkIndex::estimate_hit_times`]: the estimated
    /// `L`-truncated hitting time `ĥ^L_{u,S}` of the single node `u` into
    /// `set`, in `O(Σ_i |forward(i, u)|)` instead of a full sweep.
    ///
    /// Bit-identical to `estimate_hit_times(set)[u]` for every `u` and
    /// `set` (members score 0; a node whose walk never reaches `set`
    /// scores `L`).
    ///
    /// # Panics
    /// Panics if `set` was built over a different node universe.
    pub fn point_hit_time(&self, u: NodeId, set: &NodeSet) -> f64 {
        let c = self.point_contribution(u, set);
        c.hop_sum as f64 / c.layers as f64
    }

    /// Point form of [`WalkIndex::estimate_hit_probs`]: the estimated hit
    /// probability `p̂^L_{u,S}` of the single node `u` (fraction of layers
    /// whose walk from `u` reaches `set`; members score 1).
    ///
    /// Bit-identical to `estimate_hit_probs(set)[u]`.
    ///
    /// # Panics
    /// Panics if `set` was built over a different node universe.
    pub fn point_hit_prob(&self, u: NodeId, set: &NodeSet) -> f64 {
        let c = self.point_contribution(u, set);
        c.hits as f64 / c.layers as f64
    }

    /// This index's integer contribution to the point queries for `u` —
    /// the shard-side half of a scatter-gather [`WalkIndex::point_hit_time`]
    /// / [`WalkIndex::point_hit_prob`]: one forward scan per layer yields
    /// both the first-visit hop (`L` on a miss) and the hit flag. A member
    /// `u` contributes hop `0` and a hit for every layer, so it scores 0
    /// and 1 after the final division.
    ///
    /// # Panics
    /// Panics if `set` was built over a different node universe.
    pub fn point_contribution(&self, u: NodeId, set: &NodeSet) -> PartialContribution {
        self.check_set(set);
        let r = self.r();
        if set.contains(u) {
            return PartialContribution {
                layers: r,
                hop_sum: 0,
                hits: r as u64,
            };
        }
        let mut hop_sum = 0u64;
        let mut hits = 0u64;
        for layer in 0..r {
            let fr = self.forward(layer, u);
            let mut hop = self.l();
            let mut hit = false;
            for (&id, &w) in fr.ids().iter().zip(fr.weights()) {
                if set.contains(NodeId(id)) {
                    hop = w as u32;
                    hit = true;
                    break;
                }
            }
            hop_sum += hop as u64;
            hits += hit as u64;
        }
        PartialContribution {
            layers: r,
            hop_sum,
            hits,
        }
    }

    /// Expected number of nodes dominated by `set` — the Problem-2
    /// objective `F̂2(set) = Σ_u p̂^L_{u,set}` — computed by streaming only
    /// the set members' inverted lists: `O(n + R·|set| + postings(set))`.
    ///
    /// The per-layer covered counts are integers, so the result equals
    /// `(Σ_i |covered_i|) / R` exactly; it agrees with summing
    /// [`WalkIndex::estimate_hit_probs`] up to the usual floating-point
    /// reassociation of `n` divisions (the per-node fractions themselves
    /// are what is bit-identical, via [`WalkIndex::point_hit_prob`]).
    ///
    /// # Panics
    /// Panics if `set` was built over a different node universe.
    pub fn coverage(&self, set: &NodeSet) -> f64 {
        let cnt = self.covered_layer_counts(set);
        let total: u64 = cnt.iter().map(|&c| c as u64).sum();
        total as f64 / self.r() as f64
    }

    /// The `m` nodes *least* covered by `set`: lowest estimated hit
    /// probability first, ties broken toward the smaller id. Each entry
    /// carries its hit probability, bit-identical to
    /// `estimate_hit_probs(set)` at that node.
    ///
    /// Cost: `O(n + R·|set| + postings(set))` to count layer hits plus a
    /// partial selection of the `m` smallest — no full-sweep `D`-table.
    ///
    /// # Panics
    /// Panics if `set` was built over a different node universe.
    pub fn top_m_uncovered(&self, m: usize, set: &NodeSet) -> Vec<(NodeId, f64)> {
        let cnt = self.covered_layer_counts(set);
        top_m_from_counts(&cnt, self.r(), m)
    }

    /// Per-node count of layers whose walk reaches `set` (members count
    /// every layer) — the integer numerator behind
    /// [`WalkIndex::estimate_hit_probs`], produced without a `D`-table
    /// sweep: one stamped pass over the set members' inverted lists.
    ///
    /// Public so a scatter-gather coordinator can sum the per-shard tables
    /// elementwise (each layer's contribution is the same integer the
    /// monolith counts) and run [`top_m_from_counts`] / the coverage
    /// division once over the merged totals.
    ///
    /// # Panics
    /// Panics if `set` was built over a different node universe.
    pub fn covered_layer_counts(&self, set: &NodeSet) -> Vec<u32> {
        self.check_set(set);
        let n = self.n();
        let mut cnt = vec![0u32; n];
        let mut stamp = vec![u32::MAX; n];
        for layer in 0..self.r() {
            let mark = layer as u32;
            for s in set.iter() {
                if stamp[s.index()] != mark {
                    stamp[s.index()] = mark;
                    cnt[s.index()] += 1;
                }
                for &id in self.postings(layer, s).ids() {
                    let id = id as usize;
                    if stamp[id] != mark {
                        stamp[id] = mark;
                        cnt[id] += 1;
                    }
                }
            }
        }
        cnt
    }

    #[inline]
    fn check_set(&self, set: &NodeSet) {
        assert_eq!(
            set.capacity(),
            self.n(),
            "query set universe must match the index"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwd_graph::generators::paper_example;

    #[test]
    fn point_queries_match_sweeps_on_figure1() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 4, 5, 11);
        let set = NodeSet::from_nodes(8, [NodeId(1), NodeId(6)]);
        let ht = idx.estimate_hit_times(&set);
        let hp = idx.estimate_hit_probs(&set);
        for v in g.nodes() {
            assert_eq!(
                idx.point_hit_time(v, &set).to_bits(),
                ht[v.index()].to_bits(),
                "hit time {v}"
            );
            assert_eq!(
                idx.point_hit_prob(v, &set).to_bits(),
                hp[v.index()].to_bits(),
                "hit prob {v}"
            );
        }
        let sum: f64 = (0..8).map(|v| idx.point_hit_prob(NodeId(v), &set)).sum();
        assert!((idx.coverage(&set) - sum).abs() < 1e-9);
    }

    #[test]
    fn top_m_uncovered_ranks_by_probability_then_id() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 3, 4, 5);
        let set = NodeSet::from_nodes(8, [NodeId(4)]);
        let hp = idx.estimate_hit_probs(&set);
        let ranked = idx.top_m_uncovered(8, &set);
        assert_eq!(ranked.len(), 8);
        for w in ranked.windows(2) {
            let (a, pa) = w[0];
            let (b, pb) = w[1];
            assert!(pa < pb || (pa == pb && a < b), "order {a}/{b}");
        }
        for &(v, p) in &ranked {
            assert_eq!(p.to_bits(), hp[v.index()].to_bits());
        }
        // A shorter prefix is exactly the head of the full ranking.
        assert_eq!(idx.top_m_uncovered(3, &set), ranked[..3].to_vec());
        assert!(idx.top_m_uncovered(0, &set).is_empty());
        // m beyond n is clamped.
        assert_eq!(idx.top_m_uncovered(99, &set), ranked);
    }

    #[test]
    fn members_and_isolated_nodes_score_trivially() {
        let g = rwd_graph::generators::classic::path(4).unwrap();
        let idx = WalkIndex::build(&g, 3, 2, 9);
        let set = NodeSet::from_nodes(4, [NodeId(2)]);
        assert_eq!(idx.point_hit_time(NodeId(2), &set), 0.0);
        assert_eq!(idx.point_hit_prob(NodeId(2), &set), 1.0);
        // Empty set: everything misses.
        let empty = NodeSet::new(4);
        assert_eq!(idx.point_hit_time(NodeId(0), &empty), 3.0);
        assert_eq!(idx.point_hit_prob(NodeId(0), &empty), 0.0);
        assert_eq!(idx.coverage(&empty), 0.0);
    }

    #[test]
    fn sharded_contributions_merge_to_the_monolithic_answers() {
        use crate::index::LayerRange;
        let g = paper_example::figure1();
        let (l, r, seed) = (4u32, 6usize, 11u64);
        let full = WalkIndex::build(&g, l, r, seed);
        let set = NodeSet::from_nodes(8, [NodeId(1), NodeId(6)]);
        for shards in [1usize, 2, 3, 6] {
            let parts: Vec<WalkIndex> = LayerRange::partition(r, shards)
                .into_iter()
                .map(|rg| WalkIndex::build_layer_range(&g, l, rg, seed, 0))
                .collect();
            // Point queries: merged integer numerators, one final division.
            for v in g.nodes() {
                let mut acc = crate::PartialContribution::default();
                for p in &parts {
                    acc.merge(&p.point_contribution(v, &set));
                }
                assert_eq!(acc.layers, r);
                let ht = if set.contains(v) {
                    0.0
                } else {
                    acc.hop_sum as f64 / r as f64
                };
                let hp = if set.contains(v) {
                    1.0
                } else {
                    acc.hits as f64 / r as f64
                };
                assert_eq!(ht.to_bits(), full.point_hit_time(v, &set).to_bits());
                assert_eq!(hp.to_bits(), full.point_hit_prob(v, &set).to_bits());
            }
            // Set queries: summed per-shard count tables drive the same
            // selection and coverage the monolith computes.
            let mut cnt = vec![0u32; 8];
            for p in &parts {
                for (a, b) in cnt.iter_mut().zip(p.covered_layer_counts(&set)) {
                    *a += b;
                }
            }
            let total: u64 = cnt.iter().map(|&c| c as u64).sum();
            let coverage = total as f64 / r as f64;
            assert_eq!(coverage.to_bits(), full.coverage(&set).to_bits());
            assert_eq!(top_m_from_counts(&cnt, r, 5), full.top_m_uncovered(5, &set));
        }
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn mismatched_universe_panics() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 2, 1, 1);
        idx.point_hit_time(NodeId(0), &NodeSet::new(5));
    }
}
