//! Seed-set repair after edge churn.

use std::collections::HashSet;

use rwd_core::greedy::approx::GainRule;
use rwd_core::greedy::delta::{DeltaGainEngine, EngineCore};
use rwd_graph::NodeId;
use rwd_walks::{PostingDelta, WalkIndex};

/// Warm-start crossover: absorb-and-replay wins while the batch's posting
/// edits stay under this fraction of the index; past it the engine state
/// is mostly invalidated anyway and a cold rebuild streams less.
const CROSSOVER: f64 = 0.25;

/// Maintains a size-`k` greedy seed set across index epochs.
///
/// After every batch the maintainer replays the greedy rounds over a
/// [`DeltaGainEngine`] and compares each round's argmax to the seed the
/// previous epoch held at that position: a seed is **kept** while the
/// marginal-gain ordering still selects it, and **evicted/replaced**
/// exactly when the ordering changed. The maintained sequence is therefore
/// always *the* canonical greedy sequence on the current index (ties break
/// to the smaller id, matching every static solver), so churn robustness
/// comes for free: the reported [`MaintainReport::seeds_swapped`] measures
/// how much of the solution a batch actually invalidated — frequently
/// zero, since most batches never disturb the gain ordering near the top.
///
/// # Warm starts
///
/// The maintainer keeps the engine's owned state ([`EngineCore`]) alive
/// between batches. When the caller supplies the refreshes' posting edit
/// scripts to [`SeedMaintainer::maintain`], the pass resumes the previous
/// epoch's tables, absorbs the delta in `O(|delta|)`, and replays each
/// still-valid recorded round from its log without touching the index —
/// only the suffix from the first invalidated round pays for cold engine
/// updates. The result (seeds, gain trace, objective, touched counts) is
/// bit-identical to a cold fresh-engine replay at any shard and thread
/// count; warmth only changes *when* the answer arrives. A batch whose
/// edit script exceeds a quarter of the index's postings goes cold: past
/// that, absorbing it would cost more than rebuilding.
#[derive(Clone, Debug)]
pub struct SeedMaintainer {
    rule: GainRule,
    k: usize,
    threads: usize,
    seeds: Vec<NodeId>,
    gain_trace: Vec<f64>,
    /// Cached gain-trace sum, so no-op batches echo the objective in O(1).
    objective: f64,
    /// The previous pass's engine state, resumable onto the next epoch.
    core: Option<EngineCore>,
}

/// What one maintenance pass changed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MaintainReport {
    /// Seeds in the new set that were not in the previous set (0 on the
    /// bootstrap pass).
    pub seeds_swapped: usize,
    /// Leading rounds whose previous seed was still the argmax.
    pub rounds_kept: usize,
    /// Estimated objective of the maintained set (sum of the gain trace —
    /// the same `F̂` the static solvers report).
    pub objective: f64,
    /// Postings streamed (or re-accounted by warm replays) across the
    /// pass's engine rounds (the engine-side output-sensitivity measure).
    pub touched_postings: usize,
    /// First round whose previous seed was no longer the argmax — `None`
    /// when the whole prefix survived (`rounds_kept == k`); `Some(0)` on
    /// the bootstrap pass.
    pub first_invalid_round: Option<usize>,
    /// Whether the pass resumed the previous epoch's engine state instead
    /// of rebuilding from scratch.
    pub warm: bool,
    /// Posting edits absorbed from the refresh's edit script (0 on a cold
    /// pass).
    pub absorbed_postings: usize,
    /// Rounds committed by replaying their recorded logs — zero index
    /// traffic (0 on a cold pass).
    pub replayed_rounds: usize,
}

impl SeedMaintainer {
    /// Creates a maintainer with no seeds yet; the first
    /// [`SeedMaintainer::maintain`] call bootstraps the selection.
    pub fn new(rule: GainRule, k: usize, threads: usize) -> Self {
        SeedMaintainer {
            rule,
            k,
            threads,
            seeds: Vec::new(),
            gain_trace: Vec::new(),
            objective: 0.0,
            core: None,
        }
    }

    /// Current seed set in selection order (empty before the first pass).
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// Marginal gain of each seed at its selection round.
    pub fn gain_trace(&self) -> &[f64] {
        &self.gain_trace
    }

    /// Estimated objective of the current seed set — the gain-trace sum the
    /// last [`SeedMaintainer::maintain`] pass reported (0 before the first
    /// pass). Cached, so no-op batches echo it without an O(k) re-sum.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Cardinality budget `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Re-validates the seed set against a (refreshed) index tiling: keeps
    /// every leading seed that is still its round's argmax, replaces the
    /// rest. The greedy rounds replay over a [`DeltaGainEngine`] that
    /// gathers per-layer integer contributions from a contiguous tiling of
    /// layer-range shards (see [`DeltaGainEngine::over_shards`]); because
    /// the engine merges staged integer gain deltas in absolute layer
    /// order, the replay — picks, gain trace, kept prefix — is
    /// bit-identical to maintaining over the equivalent monolithic index.
    ///
    /// `deltas` holds the per-shard edit scripts of the refreshes that
    /// separate the previous pass's epoch from `shards` (any order — delta
    /// layers are absolute; see [`WalkIndex::refresh`]). With them the pass
    /// resumes the previous engine state; it runs cold when `deltas` is
    /// `None`, no resumable state exists, the tiling changed shape, or the
    /// edit volume exceeds the crossover.
    ///
    /// # Panics
    /// Panics if the shards do not tile a contiguous layer range from 0, or
    /// if `k > n`.
    pub fn maintain(
        &mut self,
        shards: &[&WalkIndex],
        deltas: Option<&[PostingDelta]>,
    ) -> MaintainReport {
        let bootstrap = self.seeds.is_empty();
        let edits: usize = deltas
            .map(|ds| ds.iter().map(|d| d.postings_changed()).sum())
            .unwrap_or(0);
        let warm = match (&self.core, deltas) {
            (Some(core), Some(_)) => {
                let total: usize = shards.iter().map(|s| s.total_postings()).sum();
                core.matches(shards) && edits as f64 <= CROSSOVER * total as f64
            }
            _ => false,
        };
        let mut absorbed_postings = 0usize;
        let mut engine = if warm {
            let core = self.core.take().expect("warm implies a resumable core");
            let mut engine = DeltaGainEngine::resume(shards, core);
            absorbed_postings = engine.absorb(deltas.expect("warm implies deltas"));
            engine
        } else {
            self.core = None; // stale state, if any, is now meaningless
            let mut engine = DeltaGainEngine::over_shards(shards, self.rule, self.threads);
            engine.enable_round_logging();
            engine
        };

        let mut new_seeds = Vec::with_capacity(self.k);
        let mut gain_trace = Vec::with_capacity(self.k);
        let mut rounds_kept = 0usize;
        let mut prefix_intact = true;
        let mut touched_postings = 0usize;
        let mut replayed_rounds = 0usize;
        for round in 0..self.k {
            let (pick, gain) = engine
                .best_candidate()
                .expect("k <= n leaves candidates every round");
            if prefix_intact && self.seeds.get(round) == Some(&pick) {
                rounds_kept += 1;
            } else {
                prefix_intact = false;
            }
            if warm && engine.try_replay_recorded(pick) {
                replayed_rounds += 1;
            } else {
                engine.update(pick);
            }
            touched_postings += engine.last_update_touched();
            new_seeds.push(pick);
            gain_trace.push(gain);
        }
        self.core = Some(engine.into_core());

        let seeds_swapped = if bootstrap {
            0
        } else {
            let prev: HashSet<NodeId> = self.seeds.iter().copied().collect();
            new_seeds.iter().filter(|s| !prev.contains(s)).count()
        };
        let objective = gain_trace.iter().sum();
        self.seeds = new_seeds;
        self.gain_trace = gain_trace;
        self.objective = objective;
        MaintainReport {
            seeds_swapped,
            rounds_kept,
            objective,
            touched_postings,
            first_invalid_round: (rounds_kept < self.k).then_some(rounds_kept),
            warm,
            absorbed_postings,
            replayed_rounds,
        }
    }

    /// A cold [`SeedMaintainer::maintain`] pass over `shards`, kept because
    /// the end-to-end benchmark (`e2e-bench/`) calls it.
    pub fn maintain_sharded(&mut self, shards: &[&WalkIndex]) -> MaintainReport {
        self.maintain(shards, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::EdgeBatch;
    use rwd_core::algo::select_from_index;
    use rwd_core::Strategy;
    use rwd_graph::generators::barabasi_albert;

    #[test]
    fn bootstrap_matches_static_delta_solver() {
        let g = barabasi_albert(200, 3, 7).unwrap();
        let idx = WalkIndex::build(&g, 5, 8, 11);
        let mut m = SeedMaintainer::new(GainRule::HittingTime, 6, 0);
        let rep = m.maintain(&[&idx], None);
        let sel = select_from_index(&idx, GainRule::HittingTime, 6, Strategy::Delta, 0).unwrap();
        assert_eq!(m.seeds(), &sel.nodes[..]);
        assert_eq!(m.gain_trace(), &sel.gain_trace[..]);
        assert_eq!(rep.seeds_swapped, 0, "bootstrap reports no swaps");
        assert_eq!(rep.rounds_kept, 0);
        assert_eq!(rep.first_invalid_round, Some(0));
        assert!(!rep.warm, "bootstrap is necessarily cold");
        let sum: f64 = sel.gain_trace.iter().sum();
        assert_eq!(rep.objective.to_bits(), sum.to_bits());
        assert_eq!(m.objective().to_bits(), sum.to_bits());
    }

    #[test]
    fn sharded_maintenance_matches_monolithic() {
        let g = barabasi_albert(150, 3, 5).unwrap();
        let full = WalkIndex::build(&g, 4, 8, 21);
        let mut mono = SeedMaintainer::new(GainRule::HittingTime, 5, 0);
        let rep_mono = mono.maintain(&[&full], None);
        for shards in [2usize, 3, 8] {
            let parts: Vec<WalkIndex> = rwd_walks::LayerRange::partition(8, shards)
                .into_iter()
                .map(|rg| WalkIndex::build_layer_range(&g, 4, rg, 21, 0))
                .collect();
            let refs: Vec<&WalkIndex> = parts.iter().collect();
            let mut m = SeedMaintainer::new(GainRule::HittingTime, 5, 0);
            let rep = m.maintain_sharded(&refs);
            assert_eq!(m.seeds(), mono.seeds(), "{shards} shards");
            let bits = |t: &[f64]| t.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(m.gain_trace()), bits(mono.gain_trace()));
            assert_eq!(rep, rep_mono);
        }
    }

    #[test]
    fn unchanged_index_keeps_every_seed() {
        let g = barabasi_albert(150, 3, 2).unwrap();
        let idx = WalkIndex::build(&g, 4, 6, 9);
        let mut m = SeedMaintainer::new(GainRule::Coverage, 5, 0);
        m.maintain(&[&idx], None);
        let before = m.seeds().to_vec();
        let rep = m.maintain(&[&idx], None);
        assert_eq!(m.seeds(), &before[..]);
        assert_eq!(rep.seeds_swapped, 0);
        assert_eq!(rep.rounds_kept, 5, "every round's argmax is unchanged");
        assert_eq!(rep.first_invalid_round, None);
    }

    /// One churn batch, maintained warm vs cold: identical seeds, traces,
    /// objectives and touched counts, and the warm pass replays rounds.
    #[test]
    fn warm_pass_is_bitwise_cold_and_replays() {
        let g0 = barabasi_albert(2000, 3, 13).unwrap();
        let (l, r, seed, k) = (4u32, 6usize, 31u64, 5usize);
        let mut idx = WalkIndex::build(&g0, l, r, seed);
        let mut warm = SeedMaintainer::new(GainRule::HittingTime, k, 0);
        warm.maintain(&[&idx], None);

        // An edge between two late (low-degree) nodes: the walks visiting
        // them are a small share of the index, so the edit script stays
        // under the crossover.
        assert!(!g0.has_edge(NodeId(1990), NodeId(1995)));
        let mut batch = EdgeBatch::new(1);
        batch.insertions.push((1990, 1995, 1.0));
        let delta = batch.apply(&g0).unwrap();
        let (_, edits) = idx.refresh(&delta.graph, &delta.touched, 0);
        assert!(!edits.is_empty());

        let rep = warm.maintain(&[&idx], Some(std::slice::from_ref(&edits)));
        assert!(rep.warm, "small batch must take the warm path");
        assert!(rep.absorbed_postings <= edits.postings_changed());
        assert!(rep.absorbed_postings > 0, "churn must leave net edits");
        assert!(rep.replayed_rounds > 0, "untouched rounds replay");

        let mut cold = SeedMaintainer::new(GainRule::HittingTime, k, 0);
        cold.maintain(&[&idx], None);
        let rep_cold = cold.maintain(&[&idx], None);
        assert_eq!(warm.seeds(), cold.seeds());
        let bits = |t: &[f64]| t.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(warm.gain_trace()), bits(cold.gain_trace()));
        assert_eq!(warm.objective().to_bits(), cold.objective().to_bits());
        assert_eq!(rep.touched_postings, rep_cold.touched_postings);
    }

    /// Warmth needs an edit script no larger than a quarter of the
    /// index's postings; `None` always runs cold.
    #[test]
    fn edits_past_the_crossover_force_cold() {
        let g = barabasi_albert(120, 3, 4).unwrap();
        let idx = WalkIndex::build(&g, 4, 4, 6);
        let mut m = SeedMaintainer::new(GainRule::Coverage, 4, 0);
        let empty = [PostingDelta::default()];
        m.maintain(&[&idx], Some(&empty));
        let rep = m.maintain(&[&idx], Some(&empty));
        assert!(rep.warm, "an empty script stays warm");

        // The size check runs before anything is absorbed, so the script's
        // contents do not matter here, only its length.
        let over = [PostingDelta {
            layers: vec![rwd_walks::LayerDelta {
                layer: 0,
                resampled: vec![1],
                removed: vec![(1, 0, 1); idx.total_postings() / 4 + 1],
                added: Vec::new(),
            }],
        }];
        let rep = m.maintain(&[&idx], Some(&over));
        assert!(
            !rep.warm,
            "a script over a quarter of the postings goes cold"
        );
        assert_eq!(rep.replayed_rounds, 0);
        assert_eq!(rep.absorbed_postings, 0);

        let rep = m.maintain(&[&idx], None);
        assert!(!rep.warm, "None goes cold");
    }
}
