//! Monte-Carlo estimation of `F1`/`F2` — the paper's Algorithm 2.
//!
//! For every node `u ∉ S` the estimator runs `R` independent L-length walks
//! and records the first-hit statistics `(r, t)`; Eq. (9)/(10) then give the
//! unbiased estimators
//! `ĥ_uS = (Σ t_i + (R − r)·L) / R` and `p̂_uS = r / R`.
//! Lemmas 3.3/3.4 (Hoeffding) bound the `R` needed for an `(ε, δ)`
//! guarantee; [`samples_for_f1`]/[`samples_for_f2`] compute those bounds.
//!
//! Walks are keyed by `(seed, node, walk-index)` streams, so estimates are
//! identical for any thread count.

use rwd_graph::NodeId;

use crate::nodeset::NodeSet;
use crate::rng::WalkRng;
use crate::walker::{self, WalkGraph};

/// Output of one [`SampleEstimator::estimate`] call.
#[derive(Clone, Debug)]
pub struct Estimates {
    /// Estimated `F1(S) = nL − Σ_{u∉S} ĥ_uS`.
    pub f1: f64,
    /// Estimated `F2(S) = Σ_{u∉S} p̂_uS + |S|`.
    pub f2: f64,
    /// Per-node estimated hitting time `ĥ_uS` (0 for members of `S`).
    pub hit_time: Vec<f64>,
    /// Per-node estimated hit probability `p̂_uS` (1 for members of `S`).
    pub hit_prob: Vec<f64>,
}

impl Estimates {
    /// Average hitting time over non-members: the paper's metric
    /// `M1(S) = Σ_{u∈V\S} h_uS / |V\S|` (AHT). `L` when `S` covers `V`.
    pub fn aht(&self, set: &NodeSet, l: u32) -> f64 {
        let outside = self.hit_time.len() - set.len();
        if outside == 0 {
            return l as f64;
        }
        self.hit_time.iter().sum::<f64>() / outside as f64
    }

    /// Expected number of hitting nodes: the paper's metric
    /// `M2(S) = Σ_u E[X^L_uS]` (EHN). Equals the `f2` field.
    pub fn ehn(&self) -> f64 {
        self.f2
    }
}

/// Algorithm 2: sampling-based estimator for `F1(S)` and `F2(S)`.
///
/// ```
/// use rwd_graph::generators::classic::star;
/// use rwd_graph::NodeId;
/// use rwd_walks::{NodeSet, SampleEstimator};
///
/// // Star graph, target = the hub: every leaf hits at hop 1 exactly, so
/// // even a tiny sample is exact here.
/// let g = star(10).unwrap();
/// let set = NodeSet::from_nodes(10, [NodeId(0)]);
/// let est = SampleEstimator::new(5, 8, 42).estimate(&g, &set);
/// assert_eq!(est.hit_time[3], 1.0);
/// assert_eq!(est.f2, 10.0);
/// ```
#[derive(Clone, Debug)]
pub struct SampleEstimator {
    /// Walk-length bound `L`.
    pub l: u32,
    /// Walks per node `R`.
    pub r: usize,
    /// Base seed; estimates are a pure function of `(graph, S, l, r, seed)`.
    pub seed: u64,
    /// Worker threads (`0` = use all available cores).
    pub threads: usize,
}

impl SampleEstimator {
    /// Creates an estimator with automatic thread count.
    pub fn new(l: u32, r: usize, seed: u64) -> Self {
        SampleEstimator {
            l,
            r,
            seed,
            threads: 0,
        }
    }

    /// Serial estimator (used by tests asserting thread-count invariance).
    pub fn serial(l: u32, r: usize, seed: u64) -> Self {
        SampleEstimator {
            l,
            r,
            seed,
            threads: 1,
        }
    }

    fn effective_threads(&self, n: usize) -> usize {
        crate::parallel::resolve_threads(self.threads).min(n.max(1))
    }

    /// Runs Algorithm 2 for target set `set`. Walks step by the graph's
    /// own rule ([`WalkGraph`]), so on a weighted graph this is the
    /// paper's weighted extension: the same estimator with transition
    /// probabilities proportional to edge weights.
    pub fn estimate<G: WalkGraph>(&self, g: &G, set: &NodeSet) -> Estimates {
        let n = g.n();
        assert_eq!(set.capacity(), n, "set universe must match the graph");
        assert!(self.r > 0, "need at least one walk per node");
        let mut hit_time = vec![0.0f64; n];
        let mut hit_prob = vec![0.0f64; n];

        let threads = self.effective_threads(n);
        let chunk = n.div_ceil(threads);
        if n > 0 {
            // Scoped fan-out over disjoint node chunks. Each walk draws from
            // its own (seed, node, walk-index) stream, so the partitioning
            // never influences the sampled values — only who computes them.
            std::thread::scope(|scope| {
                for (ci, (ht, hp)) in hit_time
                    .chunks_mut(chunk)
                    .zip(hit_prob.chunks_mut(chunk))
                    .enumerate()
                {
                    let base = ci * chunk;
                    scope.spawn(move || {
                        for (off, (ht_u, hp_u)) in ht.iter_mut().zip(hp.iter_mut()).enumerate() {
                            let u = NodeId::new(base + off);
                            if set.contains(u) {
                                *ht_u = 0.0;
                                *hp_u = 1.0;
                                continue;
                            }
                            let (t_sum, hits) = self.sample_node(g, u, set);
                            let r = self.r as f64;
                            *ht_u = (t_sum as f64 + (self.r - hits) as f64 * self.l as f64) / r;
                            *hp_u = hits as f64 / r;
                        }
                    });
                }
            });
        }

        let miss_time: f64 = hit_time.iter().sum();
        let f1 = n as f64 * self.l as f64 - miss_time;
        let f2 = hit_prob.iter().sum::<f64>();
        Estimates {
            f1,
            f2,
            hit_time,
            hit_prob,
        }
    }

    /// Runs the `R` walks for one source node; returns `(Σ t_i, r)` of
    /// Algorithm 2 lines 6–11.
    fn sample_node<G: WalkGraph>(&self, g: &G, u: NodeId, set: &NodeSet) -> (u64, usize) {
        let mut t_sum = 0u64;
        let mut hits = 0usize;
        for i in 0..self.r {
            let mut rng = WalkRng::for_stream(self.seed, u.index() as u64, i as u64);
            if let Some(t) = walker::first_hit(g, u, self.l, set, &mut rng) {
                t_sum += t as u64;
                hits += 1;
            }
        }
        (t_sum, hits)
    }
}

/// Lemma 3.3: smallest `R` with
/// `Pr[|F̂1 − F1| ≥ ε(n−|S|)L] ≤ δ`, i.e. `R ≥ ln((n−|S|)/δ) / (2ε²)`.
pub fn samples_for_f1(n: usize, set_size: usize, eps: f64, delta: f64) -> usize {
    assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
    let outside = (n.saturating_sub(set_size)).max(1) as f64;
    ((outside / delta).ln() / (2.0 * eps * eps)).ceil().max(1.0) as usize
}

/// Lemma 3.4: smallest `R` with `Pr[|F̂2 − F2| ≥ εn] ≤ δ`,
/// i.e. `R ≥ ln(n/δ) / (2ε²)`.
pub fn samples_for_f2(n: usize, eps: f64, delta: f64) -> usize {
    assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
    (((n.max(1) as f64) / delta).ln() / (2.0 * eps * eps))
        .ceil()
        .max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hitting;
    use rwd_graph::generators::{classic, paper_example};

    fn set_of(n: usize, nodes: &[u32]) -> NodeSet {
        NodeSet::from_nodes(n, nodes.iter().map(|&u| NodeId(u)))
    }

    #[test]
    fn members_are_exact() {
        let g = paper_example::figure1();
        let s = set_of(8, &[1, 6]);
        let est = SampleEstimator::new(4, 50, 7).estimate(&g, &s);
        assert_eq!(est.hit_time[1], 0.0);
        assert_eq!(est.hit_prob[6], 1.0);
    }

    #[test]
    fn deterministic_walk_graph_is_estimated_exactly() {
        // Path 0-1 with target {1}: every walk hits at t = 1, so the
        // estimator is exact for any R.
        let g = classic::path(2).unwrap();
        let s = set_of(2, &[1]);
        let est = SampleEstimator::new(5, 10, 3).estimate(&g, &s);
        assert_eq!(est.hit_time[0], 1.0);
        assert_eq!(est.hit_prob[0], 1.0);
        assert!((est.f2 - 2.0).abs() < 1e-12);
        assert!((est.f1 - (2.0 * 5.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn estimates_approach_dp_values() {
        let g = paper_example::figure1();
        let s = set_of(8, &[4, 5]);
        let l = 4;
        let est = SampleEstimator::new(l, 4000, 11).estimate(&g, &s);
        let h = hitting::hitting_time_to_set(&g, &s, l);
        let p = hitting::hit_probability_to_set(&g, &s, l);
        for u in 0..8 {
            assert!(
                (est.hit_time[u] - h[u]).abs() < 0.15,
                "ĥ[{u}] = {} vs {}",
                est.hit_time[u],
                h[u]
            );
            assert!((est.hit_prob[u] - p[u]).abs() < 0.06);
        }
        assert!((est.f1 - hitting::exact_f1(&g, &s, l)).abs() < 0.8);
        assert!((est.f2 - hitting::exact_f2(&g, &s, l)).abs() < 0.4);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = paper_example::figure1();
        let s = set_of(8, &[2]);
        let serial = SampleEstimator::serial(5, 64, 9).estimate(&g, &s);
        let parallel = SampleEstimator {
            l: 5,
            r: 64,
            seed: 9,
            threads: 4,
        }
        .estimate(&g, &s);
        assert_eq!(serial.hit_time, parallel.hit_time);
        assert_eq!(serial.hit_prob, parallel.hit_prob);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = paper_example::figure1();
        let s = set_of(8, &[2]);
        let a = SampleEstimator::new(5, 32, 1).estimate(&g, &s);
        let b = SampleEstimator::new(5, 32, 1).estimate(&g, &s);
        let c = SampleEstimator::new(5, 32, 2).estimate(&g, &s);
        assert_eq!(a.hit_time, b.hit_time);
        assert_ne!(a.hit_time, c.hit_time);
    }

    #[test]
    fn empty_set_estimates() {
        let g = paper_example::figure1();
        let s = NodeSet::new(8);
        let est = SampleEstimator::new(4, 16, 5).estimate(&g, &s);
        assert!(est.f1.abs() < 1e-12);
        assert!(est.f2.abs() < 1e-12);
        assert!(est.hit_time.iter().all(|&h| h == 4.0));
    }

    #[test]
    fn metrics_helpers() {
        let g = paper_example::figure1();
        let s = set_of(8, &[1, 6]);
        let est = SampleEstimator::new(4, 64, 3).estimate(&g, &s);
        let aht = est.aht(&s, 4);
        assert!((aht - est.hit_time.iter().sum::<f64>() / 6.0).abs() < 1e-12);
        assert_eq!(est.ehn(), est.f2);
        // Full coverage: AHT defined as L.
        let full = NodeSet::from_nodes(8, g.nodes());
        let est = SampleEstimator::new(4, 4, 3).estimate(&g, &full);
        assert_eq!(est.aht(&full, 4), 4.0);
        assert!((est.f2 - 8.0).abs() < 1e-12);
    }

    #[test]
    fn hoeffding_bounds_shrink_with_eps() {
        let loose = samples_for_f1(1000, 30, 0.2, 0.05);
        let tight = samples_for_f1(1000, 30, 0.05, 0.05);
        assert!(tight > loose * 10);
        assert!(samples_for_f2(1000, 0.1, 0.1) >= samples_for_f2(10, 0.1, 0.1));
        // Paper remark: R ≈ 100 already gives good accuracy at ε ≈ 0.23,
        // δ = 0.05 for n = 1000.
        assert!(samples_for_f1(1000, 30, 0.25, 0.05) <= 100);
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_r_panics() {
        let g = classic::path(2).unwrap();
        let s = set_of(2, &[1]);
        let _ = SampleEstimator::new(3, 0, 0).estimate(&g, &s);
    }
}
