//! Output-sensitive greedy: exact delta-maintained gains over the
//! dual-view walk index.
//!
//! The sweep-based [`GainEngine`](crate::greedy::approx::GainEngine)
//! re-derives candidate gains from the `D` tables every time it is asked —
//! a full `gains_all` resweep streams every posting of the index, and a
//! CELF `gain_single` re-streams every posting of the candidate even when
//! almost nothing changed since the last round. This engine turns the
//! dependency around: it keeps the **exact** Algorithm-4 gain of every
//! candidate in a table and repairs only the entries Algorithm 5 actually
//! invalidates.
//!
//! The repair rule falls out of the gain formula. For Problem 1, layer `i`
//! contributes to candidate `v`'s gain the terms
//! `D1[i][v] + Σ_{(src,w) ∈ I[i][v]} max(0, D1[i][src] − w)`, so the gain
//! of `v` depends on slot `src` exactly when `src`'s walk `i` visits `v` —
//! that is, when `v ∈ forward(i, src)` ([`rwd_walks::WalkIndex::forward`],
//! the transpose of the inverted lists). When committing a seed lowers
//! `D1[i][src]` from `d` to `d'`:
//!
//! * `gain1[src] −= d − d'` (the candidate's own first-hit term), and
//! * for each `(v, w) ∈ forward(i, src)` with `w < d`:
//!   `gain1[v] −= max(0, d − w) − max(0, d' − w) = d − max(w, d')`.
//!
//! For Problem 2 a slot flip `D2[i][src]: 0 → 1` decrements `gain2[src]`
//! and `gain2[v]` for every `v ∈ forward(i, src)` by one. All accumulators
//! are integers (`u64` totals over layers), and the blended gain is
//! produced by the same `GainRule::blend` expression the sweep engines
//! use, so every maintained gain is **bit-identical** to what a fresh
//! `gains_all` sweep would compute (tests assert this after every round).
//!
//! A greedy round is then an argmax over the gain table — `O(n)` compares —
//! plus a repair pass that touches `O(Σ_changed |forward(i, src)|)` entries
//! instead of the whole index: each forward list holds at most `L` nodes,
//! and the number of changed slots shrinks every round as the `D` tables
//! tighten, so per-round work is *output-sensitive* — it scales with how
//! much the last commit actually changed. Initialization exploits the
//! `S = ∅` closed form (`D1 ≡ L`, `D2 ≡ 0`): `gain1[u] = R·L + Σ (L − w)`
//! over `u`'s postings and `gain2[u] = R + |I[·][u]|` — both available in
//! `O(1)` per node from the index's precomputed posting aggregates, so
//! startup is `O(n)` and touches no posting list at all.
//!
//! # Cross-epoch warm starts
//!
//! The engine's state can outlive the index epoch it was built on. With
//! round logging enabled ([`DeltaGainEngine::enable_round_logging`]) every
//! committed round records its exact mutations — the `D`-slot drops and
//! the integer gain decrements. When an incremental refresh later rewrites
//! part of the index and emits its [`PostingDelta`] edit script,
//! [`DeltaGainEngine::absorb`] patches the engine back to the **new**
//! index's `S = ∅` state in `O(|delta| + changed slots)`:
//!
//! * the recorded slot drops are undone (back to `L` / `0` — the `S = ∅`
//!   closed form), touching only slots a round actually changed;
//! * each removed posting `(owner, src, w)` subtracts its closed-form
//!   `S = ∅` contribution from `owner`'s baseline (`L − w` from `gain1`,
//!   `1` from `gain2`) and each added posting adds it back — the same
//!   per-posting algebra the `d − max(w, d')` update rule specializes to
//!   at `D ≡ L`;
//! * the gain tables are restored from the patched baselines and the CELF
//!   heap is rebuilt in place — every allocation (tables, heap storage,
//!   logs) is recycled. The per-posting terms also accumulate into dense
//!   signed **patch vectors**, the additive bridge that carries the old
//!   epoch's recorded gain snapshots onto the new index.
//!
//! The previous epoch's round logs then become **replayable at slot
//! grain** ([`DeltaGainEngine::try_replay_recorded`]). A replayed round
//! restores the gain tables from the recorded post-round snapshot rebased
//! by the patch vectors, then walks the round's per-layer logs: slots
//! whose walk group the delta left alone re-apply their logged drop
//! verbatim (their reads on the new index would be byte-identical to the
//! old epoch's), while *resampled* slots have their recorded decrements
//! un-applied and their group's slot decision redone live against the
//! fresh index — one scan of the pick's inverted row per dirty layer,
//! testing each entry against the resampled bitset in `O(1)`. Per-group
//! `D` evolution is independent and gain
//! decrements are commutative integer adds, so a batch that resamples 1%
//! of the walk groups costs 1% live work, never a whole layer or round. A
//! round whose argmax moved ends the fast path and the caller recomputes
//! the remaining rounds cold. Either way the engine state after every
//! round is bit-identical to a freshly built engine on the refreshed
//! index committing the same picks — at any thread or shard count.

use std::collections::BinaryHeap;

use rwd_graph::NodeId;
use rwd_walks::parallel::{resolve_threads, MIN_PARALLEL_SWEEP_WORK};
use rwd_walks::{NodeSet, PostingDelta, WalkIndex};

use crate::greedy::approx::GainRule;
use crate::greedy::celf::CelfEntry;

/// One staged gain repair: `(candidate, integer decrement)`.
type Dec1 = (u32, u32);

/// Tombstone slot id inside a recorded [`LayerLog`]: warm replay retires a
/// resampled slot entry *in place* (its decrement range stays behind as
/// inert garbage, delimited by the untouched offset array) instead of
/// compacting the log — `u32::MAX` is never a valid node id.
const DEAD_SLOT: u32 = u32::MAX;

/// The exact mutations one committed greedy round applied to **one**
/// layer — enough to re-apply that layer's share of the round without
/// touching the index (warm replay) and to rewind its `D`-slot drops
/// (absorb). Recorded only when round logging is enabled.
///
/// The offset arrays attribute every gain decrement to the slot whose
/// forward stream emitted it, which is what makes replay work at **slot
/// grain**: a group's slot is only ever written by that group's postings
/// and gain decrements are commutative integer adds, so each recorded
/// slot re-validates independently — a batch that resamples 1% of the
/// walk groups invalidates only those slots' ranges, not whole layers or
/// rounds. During replay the log doubles as an overlay: retired entries
/// are tombstoned ([`DEAD_SLOT`]) and live recomputations append, so the
/// merged log is this round's fresh record for the *next* epoch.
#[derive(Clone, Debug, Default)]
struct LayerLog {
    /// Global (absolute) layer index.
    gl: u32,
    /// Postings this layer's share of the round streamed — a replayed
    /// layer re-accounts the same count it would stream cold.
    touched: usize,
    /// `D1` drops: `(slot, new value)`. The pre-drop value is implicit
    /// (the table's current entry).
    slot1: Vec<(u32, u32)>,
    /// Start offset into `dec1` of each `slot1` entry's decrement range
    /// (ending at the next entry's offset, or `dec1.len()`); the slot-grain
    /// attribution that lets a replay un-apply exactly the decrements of a
    /// resampled group.
    off1: Vec<u32>,
    /// `D2` flips `0 → 1`.
    slot2: Vec<u32>,
    /// Start offset into `dec2` of each `slot2` entry's decrement range.
    off2: Vec<u32>,
    /// Problem-1 gain decrements `(candidate, amount)`.
    dec1: Vec<Dec1>,
    /// Problem-2 gain decrements (always by one).
    dec2: Vec<u32>,
}

/// One committed greedy round's mutations, layer by layer in global layer
/// order.
#[derive(Clone, Debug, Default)]
struct RoundLog {
    /// The committed seed.
    pick: u32,
    /// Per-layer mutations, one entry per global layer (possibly empty —
    /// a layer in which the pick has no postings and no slot improved).
    layers: Vec<LayerLog>,
}

/// The owned, index-independent state of a [`DeltaGainEngine`]: gain and
/// `D` tables, CELF heap, selection set, baselines and round logs.
///
/// Detaching the core ([`DeltaGainEngine::into_core`]) and re-binding it
/// to the next epoch's shards ([`DeltaGainEngine::resume`]) is what makes
/// the engine persistent across index epochs without borrowing trouble:
/// the core holds no index reference, so the index is free to be refreshed
/// (or copy-on-write cloned) between epochs while the tables survive.
#[derive(Clone, Debug)]
pub struct EngineCore {
    rule: GainRule,
    n: usize,
    r: usize,
    l: u32,
    threads: usize,
    /// Problem-1 table, flattened `[layer][node]`; empty if unused.
    d1: Vec<u32>,
    /// Problem-2 indicator table, flattened `[layer][node]`; empty if unused.
    d2: Vec<u8>,
    /// `Σ_i` of each candidate's layer-`i` Problem-1 gain, exact integers.
    gain1: Vec<u64>,
    /// `Σ_i` of each candidate's layer-`i` Problem-2 gain, exact integers.
    gain2: Vec<u64>,
    /// The `S = ∅` closed-form gains of the engine's current index epoch —
    /// the rewind target of [`DeltaGainEngine::absorb`]. Maintained only
    /// with round logging on (empty otherwise).
    base1: Vec<u64>,
    base2: Vec<u64>,
    selected: NodeSet,
    /// Lazy argmax heap: entries cache blended gains; because maintained
    /// gains only ever decrease, a popped top whose cached value still
    /// equals the exact table value is the true argmax — no per-round scan.
    heap: BinaryHeap<CelfEntry>,
    /// Running `Σ_{i,u} D1[i][u]` (for `F̂1 = nL − d1_total/R`).
    d1_total: u64,
    /// Running `Σ_{i,u} D2[i][u]` (for `F̂2 = d2_total/R`).
    d2_total: u64,
    /// Postings streamed (or, for a replayed round, re-accounted) by the
    /// most recent commit.
    touched_last: usize,
    /// Whether commits record [`RoundLog`]s (the warm-start prerequisite).
    log_rounds: bool,
    /// Logs of the rounds committed since the last absorb/construction.
    rounds: Vec<RoundLog>,
    /// Post-round gain-table snapshots, flattened `[round][node]`, one
    /// frame per entry of `rounds` (empty for a table the rule does not
    /// use). A snapshot replay restores a whole round's gains with one
    /// `memcpy` instead of re-applying its logged decrements — the
    /// decrement volume is what makes per-mutation replay cost as much as
    /// a live round. `O(k·n)` memory, the same order as the `D` tables.
    snaps1: Vec<u64>,
    snaps2: Vec<u64>,
    /// Bitset over `global layer · n + src`: walk groups the last absorbed
    /// delta net-changed. A replay takes a resampled group's slot work
    /// from a live recomputation instead of the log — the group's walk
    /// (and so its forward list and row postings) is not the one the log
    /// was recorded against. A bitset (not a hash set) because a replay
    /// probes it once per logged slot and once per fresh row posting.
    resampled: Vec<u64>,
}

impl EngineCore {
    /// Whether this core's shape (node universe, walk length, total layer
    /// count) matches a shard tiling — the precondition of
    /// [`DeltaGainEngine::resume`].
    pub fn matches(&self, shards: &[&WalkIndex]) -> bool {
        !shards.is_empty()
            && shards[0].n() == self.n
            && shards[0].l() == self.l
            && shards.iter().map(|s| s.r()).sum::<usize>() == self.r
    }

    /// Rounds committed (and logged) since the last absorb/construction.
    pub fn rounds_recorded(&self) -> usize {
        self.rounds.len()
    }

    /// Total logged mutations `(slot drops, gain decrements)` across the
    /// recorded rounds — the volume a full warm replay re-applies.
    pub fn mutations_recorded(&self) -> (usize, usize) {
        self.rounds.iter().fold((0, 0), |(s, d), log| {
            let (ls, ld) = log.layers.iter().fold((0, 0), |(s, d), l| {
                (
                    s + l.slot1.len() + l.slot2.len(),
                    d + l.dec1.len() + l.dec2.len(),
                )
            });
            (s + ls, d + ld)
        })
    }
}

/// Incremental exact-gain maintenance over a dual-view [`WalkIndex`] — or
/// over a **set of layer-range shards** that together cover `[0, R)`
/// ([`DeltaGainEngine::over_shards`]): every per-layer quantity is an
/// integer, so walking the shards' layers in absolute order reproduces the
/// monolithic engine's tables, picks and gain traces bit for bit.
///
/// The greedy loop is: [`DeltaGainEngine::best_candidate`] →
/// [`DeltaGainEngine::update`] → repeat. Gain entries of already-selected
/// nodes keep being maintained (they are the hypothetical gain of
/// re-adding the node) but are skipped by the argmax.
///
/// The engine borrows its shards only for the duration of one binding; the
/// owned state ([`EngineCore`]) can be detached and re-bound to the next
/// index epoch — see the module docs on cross-epoch warm starts.
pub struct DeltaGainEngine<'a> {
    shards: Vec<&'a WalkIndex>,
    /// Global layer → `(shard, local layer)`, in absolute layer order — the
    /// order every table slice, staged decrement and reduction follows.
    layer_map: Vec<(usize, usize)>,
    core: EngineCore,
    /// The previous epoch's round logs, re-validated front to back during
    /// a warm replay; populated by [`DeltaGainEngine::absorb`].
    pending: Vec<RoundLog>,
    /// The previous epoch's post-round gain snapshots, aligned with
    /// `pending` frame by frame.
    pending_snaps1: Vec<u64>,
    pending_snaps2: Vec<u64>,
    /// Next pending log to validate.
    replay_cursor: usize,
    /// The last absorbed delta's net baseline patches, dense per node
    /// (`Δgain1` / `Δgain2`), re-added on top of each restored snapshot
    /// (snapshots predate the delta). Dense because every replayed round
    /// rebases the full gain vector anyway — one fused sequential pass
    /// beats a sparse chain of random-index adds.
    patch1: Vec<i64>,
    patch2: Vec<i64>,
    /// The replayed rounds of this epoch fold their fixups into the same
    /// patch vectors: for every resampled slot the replay un-applies the
    /// recorded decrements (`+dec`) and applies the live ones (`−dec`).
    /// Snapshots record the *previous* epoch's gain evolution, so the
    /// cold-equivalent gains of round `t` are `snapshot(t) + patch`, where
    /// `patch` has accumulated the fixups of all rounds before `t`.
    /// Whether each global layer holds any resampled group at all — a
    /// clean layer replays its recorded log verbatim, skipping both the
    /// per-slot bit tests and the live row scan.
    layer_dirty: Vec<bool>,
}

impl<'a> DeltaGainEngine<'a> {
    /// Creates the engine for `S = ∅` with every candidate's exact gain
    /// precomputed from the closed form. Uses all cores; see
    /// [`DeltaGainEngine::with_threads`].
    pub fn new(idx: &'a WalkIndex, rule: GainRule) -> Self {
        Self::with_threads(idx, rule, 0)
    }

    /// [`DeltaGainEngine::new`] with an explicit worker count (`0` = all
    /// cores), used by the layer-parallel branch of
    /// [`DeltaGainEngine::update`]. All tables are exact integers, so
    /// results are bit-identical at any worker count.
    pub fn with_threads(idx: &'a WalkIndex, rule: GainRule, threads: usize) -> Self {
        Self::over_shards(std::slice::from_ref(&idx), rule, threads)
    }

    /// Builds the engine over a set of layer-range shards whose
    /// [`WalkIndex::layer_range`]s tile `[0, R)` contiguously in order —
    /// the scatter-gather form of [`DeltaGainEngine::with_threads`]. With
    /// one shard this *is* the monolithic engine; with many, the global
    /// layer order concatenates the shards' layers, so all tables, argmax
    /// picks and estimates are bit-identical to a monolithic engine over
    /// the same `R` layers.
    ///
    /// # Panics
    /// Panics when `shards` is empty, the shards disagree on `n`/`l`, or
    /// their layer ranges do not tile `[0, R)` in order.
    pub fn over_shards(shards: &[&'a WalkIndex], rule: GainRule, threads: usize) -> Self {
        rule.validate();
        let (layer_map, n, l) = Self::tile(shards);
        let r = layer_map.len();
        let (d1, d2) = rule.alloc_tables(n, r, l);
        let (gain1, gain2) = Self::init_gains(shards, r, rule);
        let core = EngineCore {
            rule,
            n,
            r,
            l,
            threads,
            d1,
            d2,
            gain1,
            gain2,
            base1: Vec::new(),
            base2: Vec::new(),
            selected: NodeSet::new(n),
            heap: BinaryHeap::new(),
            d1_total: (r * n) as u64 * l as u64,
            d2_total: 0,
            touched_last: 0,
            log_rounds: false,
            rounds: Vec::new(),
            snaps1: Vec::new(),
            snaps2: Vec::new(),
            resampled: Vec::new(),
        };
        let mut engine = DeltaGainEngine {
            shards: shards.to_vec(),
            layer_map,
            core,
            pending: Vec::new(),
            pending_snaps1: Vec::new(),
            pending_snaps2: Vec::new(),
            replay_cursor: 0,
            patch1: Vec::new(),
            patch2: Vec::new(),
            layer_dirty: Vec::new(),
        };
        engine.rebuild_heap();
        engine
    }

    /// Validates a shard tiling and produces the global layer map plus the
    /// agreed `(n, l)`.
    fn tile(shards: &[&WalkIndex]) -> (Vec<(usize, usize)>, usize, u32) {
        assert!(!shards.is_empty(), "engine needs at least one shard");
        let n = shards[0].n();
        let l = shards[0].l();
        let mut layer_map = Vec::new();
        let mut next_base = 0usize;
        for (s, shard) in shards.iter().enumerate() {
            assert_eq!(shard.n(), n, "shard {s} disagrees on the node universe");
            assert_eq!(shard.l(), l, "shard {s} disagrees on the walk length");
            assert_eq!(
                shard.layer_base(),
                next_base,
                "shard {s} breaks the contiguous layer tiling"
            );
            for local in 0..shard.r() {
                layer_map.push((s, local));
            }
            next_base += shard.r();
        }
        (layer_map, n, l)
    }

    /// Detaches the engine's owned state so it can outlive this binding's
    /// index borrow — the cross-epoch handoff. Re-bind with
    /// [`DeltaGainEngine::resume`].
    pub fn into_core(self) -> EngineCore {
        self.core
    }

    /// A view of the engine's owned state (for introspection — e.g. log
    /// volume accounting) without detaching it.
    pub fn core_ref(&self) -> &EngineCore {
        &self.core
    }

    /// Re-binds a detached [`EngineCore`] to (the next epoch of) its shard
    /// tiling. The core's tables are taken as-is — callers follow up with
    /// [`DeltaGainEngine::absorb`] to reconcile them with whatever the
    /// refresh changed.
    ///
    /// # Panics
    /// Panics when the tiling is invalid or its shape does not match the
    /// core (use [`EngineCore::matches`] to pre-check).
    pub fn resume(shards: &[&'a WalkIndex], core: EngineCore) -> Self {
        let (layer_map, n, l) = Self::tile(shards);
        assert_eq!(n, core.n, "resumed core disagrees on the node universe");
        assert_eq!(l, core.l, "resumed core disagrees on the walk length");
        assert_eq!(
            layer_map.len(),
            core.r,
            "resumed core disagrees on the layer count"
        );
        DeltaGainEngine {
            shards: shards.to_vec(),
            layer_map,
            core,
            pending: Vec::new(),
            pending_snaps1: Vec::new(),
            pending_snaps2: Vec::new(),
            replay_cursor: 0,
            patch1: Vec::new(),
            patch2: Vec::new(),
            layer_dirty: Vec::new(),
        }
    }

    /// Turns on round logging: from now on every [`DeltaGainEngine::update`]
    /// records its exact mutations, and the `S = ∅` baselines are kept — the
    /// prerequisites for [`DeltaGainEngine::absorb`] /
    /// [`DeltaGainEngine::try_replay_recorded`]. Must be called before the
    /// first commit.
    pub fn enable_round_logging(&mut self) {
        assert!(
            self.core.selected.is_empty(),
            "round logging must be enabled before the first commit"
        );
        self.core.log_rounds = true;
        self.core.base1 = self.core.gain1.clone();
        self.core.base2 = self.core.gain2.clone();
    }

    /// Closed-form empty-set gains, `O(n)`: with `D1 ≡ L` every posting
    /// `(src, w) ∈ I[i][u]` contributes `L − w` and the own-slot term
    /// contributes `L` per layer, so
    /// `gain1[u] = R·L + L·count(u) − hopsum(u)`; with `D2 ≡ 0` every
    /// posting counts 1, so `gain2[u] = R + count(u)`. The per-node posting
    /// aggregates are precomputed by the index at construction, so this
    /// touches **no** posting list at all — which is what lets the delta
    /// path undercut even a single `gains_all` sweep. With many shards the
    /// aggregates sum across shards; the sums are the monolith's integers,
    /// so the closed form is unchanged.
    fn init_gains(shards: &[&WalkIndex], r: usize, rule: GainRule) -> (Vec<u64>, Vec<u64>) {
        let n = shards[0].n();
        let r = r as u64;
        let l = shards[0].l() as u64;
        let g1 = if rule.needs_f1() {
            (0..n)
                .map(|u| {
                    let u = NodeId::new(u);
                    let count: u64 = shards.iter().map(|s| s.posting_count(u)).sum();
                    let hopsum: u64 = shards.iter().map(|s| s.posting_hop_sum(u)).sum();
                    r * l + l * count - hopsum
                })
                .collect()
        } else {
            Vec::new()
        };
        let g2 = if rule.needs_f2() {
            (0..n)
                .map(|u| {
                    let u = NodeId::new(u);
                    let count: u64 = shards.iter().map(|s| s.posting_count(u)).sum();
                    r + count
                })
                .collect()
        } else {
            Vec::new()
        };
        (g1, g2)
    }

    /// Re-heapifies every candidate at its current exact gain, recycling
    /// the heap's storage.
    fn rebuild_heap(&mut self) {
        let mut entries = std::mem::take(&mut self.core.heap).into_vec();
        entries.clear();
        entries.extend((0..self.core.n).map(|u| CelfEntry {
            gain: self.gain(NodeId::new(u)),
            node: u as u32,
            round: 0,
        }));
        self.core.heap = BinaryHeap::from(entries);
    }

    /// The current target set `S`.
    pub fn selected(&self) -> &NodeSet {
        &self.core.selected
    }

    /// Current `F̂1(S) = nL − (Σ D1)/R` (Problem-1 rules only).
    pub fn est_f1(&self) -> f64 {
        assert!(self.core.rule.needs_f1(), "engine has no F1 table");
        self.core.n as f64 * self.core.l as f64 - self.core.d1_total as f64 / self.core.r as f64
    }

    /// Current `F̂2(S) = (Σ D2)/R` — members count 1 (Problem-2 rules only).
    pub fn est_f2(&self) -> f64 {
        assert!(self.core.rule.needs_f2(), "engine has no F2 table");
        self.core.d2_total as f64 / self.core.r as f64
    }

    /// Postings streamed by the most recent [`DeltaGainEngine::update`] —
    /// the per-round output-sensitivity measure (0 before any update). A
    /// replayed recorded round reports the count it would stream cold.
    pub fn last_update_touched(&self) -> usize {
        self.core.touched_last
    }

    /// The maintained blended gain of one candidate — bit-identical to what
    /// [`GainEngine::gain_single`](crate::greedy::approx::GainEngine)
    /// would recompute from scratch for the same target set.
    #[inline]
    pub fn gain(&self, u: NodeId) -> f64 {
        let r = self.core.r as f64;
        let g1 = self.core.gain1.get(u.index()).map_or(0.0, |&g| g as f64);
        let g2 = self.core.gain2.get(u.index()).map_or(0.0, |&g| g as f64);
        self.core
            .rule
            .blend(g1 / r, g2 / r, self.core.n, self.core.l)
    }

    /// All maintained blended gains (selected entries are the hypothetical
    /// re-add gain; callers skip them) — matches a fresh
    /// [`GainEngine::gains_all`](crate::greedy::approx::GainEngine) bit for
    /// bit.
    pub fn gains(&self) -> Vec<f64> {
        (0..self.core.n)
            .map(|u| self.gain(NodeId::new(u)))
            .collect()
    }

    /// Argmax over the maintained gain table, skipping selected nodes; ties
    /// break toward the smaller id, matching the sweep and CELF drivers
    /// exactly (the heap orders like [`CelfEntry`]: gain descending, id
    /// ascending on ties — the pop sequence of equal exact values is the
    /// ascending-id scan order). `None` once everything is selected.
    ///
    /// Runs in `O(stale pops · log n)` instead of `O(n)`: maintained gains
    /// only decrease, so every cached heap entry is an upper bound on its
    /// candidate's current gain, and a popped top whose cached value still
    /// equals the exact table value is the global argmax — the CELF
    /// argument, but with `O(1)` table lookups in place of Algorithm-4
    /// re-evaluations. Stale tops are re-pushed with their exact value.
    pub fn best_candidate(&mut self) -> Option<(NodeId, f64)> {
        while let Some(top) = self.core.heap.pop() {
            let node = NodeId(top.node);
            if self.core.selected.contains(node) {
                continue; // dropped for good; selected nodes never return
            }
            let current = self.gain(node);
            if current == top.gain {
                // Re-push so a caller that does not commit this pick (or
                // asks again before updating) still sees a complete heap.
                self.core.heap.push(top);
                return Some((node, current));
            }
            self.core.heap.push(CelfEntry {
                gain: current,
                node: top.node,
                round: 0,
            });
        }
        None
    }

    /// Patches the engine from its current post-selection state back to the
    /// **refreshed** index's `S = ∅` state, in time proportional to the
    /// delta plus the slots the logged rounds changed — never `O(k ·
    /// postings)` and never a table reallocation:
    ///
    /// 1. every logged `D`-slot drop is undone (the `S = ∅` values are the
    ///    closed-form constants `L` / `0`), and the selection set cleared;
    /// 2. the `S = ∅` gain baselines are patched posting-by-posting from
    ///    the delta (`±(L − hop)` on `gain1`, `±1` on `gain2` per edit —
    ///    exactly the closed form `init_gains` evaluates, one term
    ///    at a time);
    /// 3. the gain tables are restored from the patched baselines and the
    ///    heap re-heapified in place.
    ///
    /// The previous rounds' logs become the pending replay sequence for
    /// [`DeltaGainEngine::try_replay_recorded`]. Returns the number of
    /// **net** posting edits absorbed — postings a resampled group
    /// reproduced identically cancel before they can patch a baseline or
    /// poison a replay.
    ///
    /// The caller must have re-bound the engine to the refreshed shards
    /// ([`DeltaGainEngine::resume`]) and `deltas` must be exactly the edit
    /// scripts of the refreshes that took the shards from the engine's
    /// previous epoch to the current one (any order; layers are absolute).
    ///
    /// # Panics
    /// Panics when round logging is off — the engine has no baselines to
    /// rewind to.
    pub fn absorb(&mut self, deltas: &[PostingDelta]) -> usize {
        let core = &mut self.core;
        assert!(
            core.log_rounds,
            "absorb requires round logging (enable_round_logging)"
        );
        let n = core.n;
        // 1. Rewind: at `S = ∅` every `D` slot is its closed-form constant
        // (`L` / `0` — Algorithm 6 line 3), so the rewind is two sequential
        // fills, cheaper than re-walking the logged drops slot by slot.
        core.d1.fill(core.l);
        core.d2.fill(0);
        core.d1_total = (core.r * n) as u64 * core.l as u64;
        core.d2_total = 0;
        core.selected.clear();
        core.touched_last = 0;

        // 2. Patch the S = ∅ baselines by the edit script and mark the
        // owners/groups the delta touched for the replay validity checks.
        //
        // Identical removed/added pairs cancel first: a resampled walk that
        // diverges late (or not at all) reproduces most of its postings
        // verbatim, and a posting that is removed and re-added with the
        // same `(owner, src, hop)` leaves both the inverted row and the
        // group's forward list byte-identical (both views are canonically
        // ordered). Only *net* edits patch baselines or poison replays —
        // without the cancellation nearly every hub would come out dirty
        // and the recorded rounds would never replay.
        let words = (core.r * n).div_ceil(64);
        core.resampled.clear();
        core.resampled.resize(words, 0);
        let needs_f1 = core.rule.needs_f1();
        let needs_f2 = core.rule.needs_f2();
        let l = core.l as i64;
        let mut absorbed = 0usize;
        self.patch1.clear();
        self.patch2.clear();
        self.patch1.resize(if needs_f1 { n } else { 0 }, 0);
        self.patch2.resize(if needs_f2 { n } else { 0 }, 0);
        let (patch1, patch2) = (&mut self.patch1, &mut self.patch2);
        self.layer_dirty.clear();
        self.layer_dirty.resize(core.r, false);
        let layer_dirty = &mut self.layer_dirty;
        // One net edit: the closed-form S = ∅ contribution of the posting,
        // signed. `c` is ±1 — a posting names its group's unique first
        // visit of `owner`, so it appears at most once per side. The raw
        // terms also accumulate into the dense patch vectors, the additive
        // bridge that carries recorded gain snapshots across the epoch
        // boundary.
        let mut patch =
            |core: &mut EngineCore, base: usize, (owner, src, hop): (u32, u32, u16), c: i64| {
                absorbed += 1;
                let grp = base + src as usize;
                core.resampled[grp >> 6] |= 1 << (grp & 63);
                layer_dirty[base / n] = true;
                let p1 = if needs_f1 { c * (l - hop as i64) } else { 0 };
                let p2 = if needs_f2 { c } else { 0 };
                if needs_f1 {
                    patch1[owner as usize] += p1;
                }
                if needs_f2 {
                    patch2[owner as usize] += p2;
                }
                if needs_f1 {
                    let b = &mut core.base1[owner as usize];
                    *b = (*b as i64 + p1) as u64;
                }
                if needs_f2 {
                    let b = &mut core.base2[owner as usize];
                    *b = (*b as i64 + p2) as u64;
                }
            };
        for delta in deltas {
            for layer in &delta.layers {
                let base = layer.layer * n;
                // Both edit lists are grouped by ascending source, and a
                // group's entries are its first-visit postings in walk
                // order — hop-ascending with distinct hops. `(src, hop)`
                // is therefore a strictly increasing key on each side, and
                // identical reproductions cancel in one ordered merge.
                let (rem, add) = (&layer.removed, &layer.added);
                let key = |e: &(u32, u32, u16)| (e.1, e.2, e.0);
                debug_assert!(rem.windows(2).all(|w| key(&w[0]) < key(&w[1])));
                debug_assert!(add.windows(2).all(|w| key(&w[0]) < key(&w[1])));
                let (mut i, mut j) = (0usize, 0usize);
                loop {
                    match (rem.get(i), add.get(j)) {
                        (Some(r), Some(a)) if r == a => {
                            i += 1; // reproduced verbatim: not an edit
                            j += 1;
                        }
                        (Some(&r), Some(&a)) if key(&r) < key(&a) => {
                            patch(core, base, r, -1);
                            i += 1;
                        }
                        (Some(_), Some(&a)) => {
                            patch(core, base, a, 1);
                            j += 1;
                        }
                        (Some(&r), None) => {
                            patch(core, base, r, -1);
                            i += 1;
                        }
                        (None, Some(&a)) => {
                            patch(core, base, a, 1);
                            j += 1;
                        }
                        (None, None) => break,
                    }
                }
            }
        }

        // 3. Restore the gain tables from the patched baselines and
        // re-heapify — both recycle their allocations.
        core.gain1.copy_from_slice(&core.base1);
        core.gain2.copy_from_slice(&core.base2);
        self.pending = std::mem::take(&mut core.rounds);
        std::mem::swap(&mut self.pending_snaps1, &mut core.snaps1);
        std::mem::swap(&mut self.pending_snaps2, &mut core.snaps2);
        core.snaps1.clear();
        core.snaps2.clear();
        // The epoch will snapshot about as many rounds as the last one —
        // reserve up front so per-round appends never reallocate.
        core.snaps1.reserve(self.pending_snaps1.len());
        core.snaps2.reserve(self.pending_snaps2.len());
        self.replay_cursor = 0;
        self.rebuild_heap();
        absorbed
    }

    /// Attempts to commit the next pending recorded round, taking as much
    /// of it as possible from the log instead of streaming the index.
    /// Applies only when a pending log exists and its pick equals `pick`
    /// (the argmax the caller just obtained — computed over exact current
    /// gains, so a mismatch means the delta genuinely moved this round's
    /// argmax); returns `false`, leaving the engine untouched, otherwise.
    ///
    /// The round commits at **slot grain**, in three strokes:
    ///
    /// 1. **Gains** restore from the recorded post-round snapshot — one
    ///    `memcpy` instead of re-applying the round's decrement log, which
    ///    costs as much as a live round — re-based onto this epoch by the
    ///    absorbed baseline patches plus the fixups accumulated by earlier
    ///    replayed rounds.
    /// 2. **Clean recorded slots** (walk group not resampled by the delta)
    ///    apply their logged `D` drop directly; their gain decrements are
    ///    already inside the snapshot. A *resampled* slot's decrement
    ///    range is instead un-applied from the gains — the log streamed a
    ///    forward list that no longer exists.
    /// 3. A **live pass** scans the pick's fresh inverted row once per
    ///    dirty layer, bit-testing each entry against the resampled set,
    ///    and redoes, exactly as a cold update would, the slot decision
    ///    and forward walk of every *resampled* group it finds — work
    ///    bounded by the row length, independent of how many groups the
    ///    batch resampled elsewhere.
    ///
    /// Per-group `D` evolution is independent (a group's slot is only
    /// ever written by that group's postings) and gain decrements are
    /// commutative integer adds, so the post-round state is bit-identical
    /// to a cold commit on the refreshed index — there is no validity
    /// cliff: a batch that touches 1% of the walk groups costs 1% live
    /// work, never a whole layer or round. The merged round is logged
    /// afresh (and snapshotted) for the *next* epoch.
    pub fn try_replay_recorded(&mut self, pick: NodeId) -> bool {
        let cursor = self.replay_cursor;
        let Some(log) = self.pending.get(cursor) else {
            return false;
        };
        if log.pick != pick.raw() {
            return false;
        }
        let log = std::mem::take(&mut self.pending[cursor]);
        self.replay_cursor = cursor + 1;
        let core = &mut self.core;
        assert!(core.selected.insert(pick), "node {pick} selected twice");
        let n = core.n;

        // 1. Gains ← recorded post-round snapshot, re-based onto this
        // epoch: + the absorbed S = ∅ baseline patches, + the fixups of
        // previously replayed rounds (both additive, both signed).
        // All gain arithmetic below is wrapping: the rebase and the
        // slot-by-slot fixups are exact in ℤ/2⁶⁴ but individual partial
        // sums may transit below zero (e.g. a round's recorded decrements
        // exceeding a delta-shrunken gain) before later terms restore
        // them. The final per-node values are the cold engine's exact
        // non-negative integers.
        let start = cursor * n;
        if !core.gain1.is_empty() {
            let snap = &self.pending_snaps1[start..start + n];
            for (g, (&s, &p)) in core.gain1.iter_mut().zip(snap.iter().zip(&self.patch1)) {
                *g = s.wrapping_add(p as u64);
            }
        }
        if !core.gain2.is_empty() {
            let snap = &self.pending_snaps2[start..start + n];
            for (g, (&s, &p)) in core.gain2.iter_mut().zip(snap.iter().zip(&self.patch2)) {
                *g = s.wrapping_add(p as u64);
            }
        }

        let EngineCore {
            d1,
            d2,
            gain1,
            gain2,
            d1_total,
            d2_total,
            resampled,
            ..
        } = core;
        let (patch1, patch2) = (&mut self.patch1, &mut self.patch2);
        let layer_dirty = &self.layer_dirty;
        let shards = &self.shards;
        let layer_map = &self.layer_map;
        let bit =
            |bits: &[u64], idx: usize| bits.get(idx >> 6).is_some_and(|w| w >> (idx & 63) & 1 != 0);
        let mut touched_sum = 0usize;
        let mut layers: Vec<LayerLog> = Vec::with_capacity(log.layers.len());
        for mut rec in log.layers {
            let gl = rec.gl;
            let base = gl as usize * n;
            let (sh, li) = layer_map[gl as usize];
            let idx = shards[sh];
            if !layer_dirty[gl as usize] {
                // The delta left this layer alone, so the recorded log IS
                // this round's cold log: apply its slot drops (the gain
                // decrements are already inside the snapshot) and re-log
                // it verbatim — no row scan, no decrement copies. The
                // pick's row is unchanged too (a row edit implies a
                // resampled group here), so `touched` carries over.
                for &(g, v) in &rec.slot1 {
                    if g == DEAD_SLOT {
                        continue;
                    }
                    let slot = &mut d1[base + g as usize];
                    debug_assert!(v < *slot, "replayed drop must lower the slot");
                    *d1_total -= (*slot - v) as u64;
                    *slot = v;
                }
                for &g in &rec.slot2 {
                    if g == DEAD_SLOT {
                        continue;
                    }
                    let slot = &mut d2[base + g as usize];
                    debug_assert_eq!(*slot, 0, "replayed flip must set a clear slot");
                    *slot = 1;
                    *d2_total += 1;
                }
                touched_sum += rec.touched;
                layers.push(rec);
                continue;
            }
            let mut touched = 0usize;

            // 2. Recorded slots. A clean slot replays byte-for-byte: the
            // logged drop lowers the same current value a cold commit
            // would read (clean groups' slots evolve only through these
            // logs), and its decrement count re-accounts the forward
            // postings a cold commit would stream (every decrement past
            // the slot's self-term is one streamed posting). A resampled
            // slot's recorded work is rolled back out of the snapshot.
            let dec1_end = rec.dec1.len();
            for k in 0..rec.slot1.len() {
                let (g, v) = rec.slot1[k];
                if g == DEAD_SLOT {
                    continue;
                }
                if bit(resampled, base + g as usize) {
                    let lo = rec.off1[k] as usize;
                    let hi = rec.off1.get(k + 1).map_or(dec1_end, |&x| x as usize);
                    for &(node, dec) in &rec.dec1[lo..hi] {
                        gain1[node as usize] = gain1[node as usize].wrapping_add(dec as u64);
                        patch1[node as usize] += dec as i64;
                    }
                    rec.slot1[k].0 = DEAD_SLOT;
                } else {
                    let lo = rec.off1[k] as usize;
                    let hi = rec.off1.get(k + 1).map_or(dec1_end, |&x| x as usize);
                    let slot = &mut d1[base + g as usize];
                    debug_assert!(v < *slot, "replayed drop must lower the slot");
                    *d1_total -= (*slot - v) as u64;
                    *slot = v;
                    touched += hi - lo - 1;
                }
            }
            let dec2_end = rec.dec2.len();
            for k in 0..rec.slot2.len() {
                let g = rec.slot2[k];
                if g == DEAD_SLOT {
                    continue;
                }
                if bit(resampled, base + g as usize) {
                    let lo = rec.off2[k] as usize;
                    let hi = rec.off2.get(k + 1).map_or(dec2_end, |&x| x as usize);
                    for &node in &rec.dec2[lo..hi] {
                        gain2[node as usize] = gain2[node as usize].wrapping_add(1);
                        patch2[node as usize] += 1;
                    }
                    rec.slot2[k] = DEAD_SLOT;
                } else {
                    let lo = rec.off2[k] as usize;
                    let hi = rec.off2.get(k + 1).map_or(dec2_end, |&x| x as usize);
                    let slot = &mut d2[base + g as usize];
                    debug_assert_eq!(*slot, 0, "replayed flip must set a clear slot");
                    *slot = 1;
                    *d2_total += 1;
                    touched += hi - lo - 1;
                }
            }

            // 3. Live pass — [`Self::update_layer`] restricted to the
            // resampled groups of the pick's row, against the fresh
            // index. Gain decrements
            // apply directly and fold into the patch vectors (signed
            // opposite to the un-apply above): later snapshots predate
            // them. New log entries append to `rec` — their offsets point
            // past every recorded decrement, so the ranges stay disjoint.
            let pr = idx.postings(li, pick);
            touched += pr.len();
            debug_assert!(
                pr.ids().windows(2).all(|p| p[0] < p[1]),
                "inverted rows must be strictly src-sorted"
            );
            if !d1.is_empty() {
                let d = &mut d1[base..base + n];
                if bit(resampled, base + pick.index()) {
                    let old = d[pick.index()];
                    if old > 0 {
                        d[pick.index()] = 0;
                        *d1_total -= old as u64;
                        rec.off1.push(rec.dec1.len() as u32);
                        rec.slot1.push((pick.raw(), 0));
                        gain1[pick.index()] = gain1[pick.index()].wrapping_sub(old as u64);
                        patch1[pick.index()] += -(old as i64);
                        rec.dec1.push((pick.raw(), old));
                        let fwd = idx.forward(li, pick);
                        for (&v, &w) in fwd.ids().iter().zip(fwd.weights()) {
                            let w = w as u32;
                            if w >= old {
                                break;
                            }
                            touched += 1;
                            let dec = old - w;
                            gain1[v as usize] = gain1[v as usize].wrapping_sub(dec as u64);
                            patch1[v as usize] += -(dec as i64);
                            rec.dec1.push((v, dec));
                        }
                    }
                }
                for (pos, &src) in pr.ids().iter().enumerate() {
                    if !bit(resampled, base + src as usize) {
                        continue;
                    }
                    let new = pr.weights()[pos] as u32;
                    let old = d[src as usize];
                    if new < old {
                        d[src as usize] = new;
                        *d1_total -= (old - new) as u64;
                        rec.off1.push(rec.dec1.len() as u32);
                        rec.slot1.push((src, new));
                        let dec = old - new;
                        gain1[src as usize] = gain1[src as usize].wrapping_sub(dec as u64);
                        patch1[src as usize] += -(dec as i64);
                        rec.dec1.push((src, dec));
                        let fwd = idx.forward(li, NodeId(src));
                        for (&v, &hw) in fwd.ids().iter().zip(fwd.weights()) {
                            let hw = hw as u32;
                            if hw >= old {
                                break;
                            }
                            touched += 1;
                            let dec = old - hw.max(new);
                            gain1[v as usize] = gain1[v as usize].wrapping_sub(dec as u64);
                            patch1[v as usize] += -(dec as i64);
                            rec.dec1.push((v, dec));
                        }
                    }
                }
            }
            if !d2.is_empty() {
                let d = &mut d2[base..base + n];
                if bit(resampled, base + pick.index()) && d[pick.index()] == 0 {
                    d[pick.index()] = 1;
                    *d2_total += 1;
                    rec.off2.push(rec.dec2.len() as u32);
                    rec.slot2.push(pick.raw());
                    gain2[pick.index()] = gain2[pick.index()].wrapping_sub(1);
                    patch2[pick.index()] -= 1;
                    rec.dec2.push(pick.raw());
                    let fwd = idx.forward(li, pick);
                    touched += fwd.len();
                    for &v in fwd.ids() {
                        gain2[v as usize] = gain2[v as usize].wrapping_sub(1);
                        patch2[v as usize] -= 1;
                        rec.dec2.push(v);
                    }
                }
                for &src in pr.ids() {
                    if !bit(resampled, base + src as usize) {
                        continue;
                    }
                    if d[src as usize] == 0 {
                        d[src as usize] = 1;
                        *d2_total += 1;
                        rec.off2.push(rec.dec2.len() as u32);
                        rec.slot2.push(src);
                        gain2[src as usize] = gain2[src as usize].wrapping_sub(1);
                        patch2[src as usize] -= 1;
                        rec.dec2.push(src);
                        let fwd = idx.forward(li, NodeId(src));
                        touched += fwd.len();
                        for &v in fwd.ids() {
                            gain2[v as usize] = gain2[v as usize].wrapping_sub(1);
                            patch2[v as usize] -= 1;
                            rec.dec2.push(v);
                        }
                    }
                }
            }

            rec.touched = touched;
            touched_sum += touched;
            layers.push(rec);
        }
        core.touched_last = touched_sum;
        core.rounds.push(RoundLog {
            pick: pick.raw(),
            layers,
        });
        core.snaps1.extend_from_slice(&core.gain1);
        core.snaps2.extend_from_slice(&core.gain2);
        true
    }

    /// Commits `u` to the target set: applies the Algorithm-5 table refresh
    /// *and* repairs the gain table via the forward view — only candidates
    /// reachable from a changed slot are touched.
    ///
    /// Layers fan out over workers above the shared work gate; each layer
    /// owns a disjoint slice of the `D` tables and stages its gain
    /// decrements, which are applied in layer-chunk order on the calling
    /// thread. Decrements are integers, so the tables are bit-identical at
    /// any worker count.
    pub fn update(&mut self, u: NodeId) {
        // A cold commit invalidates any recorded rounds not yet replayed:
        // their logs presumed the recorded history, which this commit now
        // departs from.
        self.pending.clear();
        self.pending_snaps1.clear();
        self.pending_snaps2.clear();
        self.replay_cursor = 0;
        let core = &mut self.core;
        assert!(core.selected.insert(u), "node {u} selected twice");
        // Each improved slot streams its forward list (≤ L entries), so the
        // repair work is up to (1 + L)× the seed's inverted postings — gate
        // on that estimate, not the posting count alone.
        let postings: usize = self
            .layer_map
            .iter()
            .map(|&(s, li)| self.shards[s].postings(li, u).len())
            .sum();
        let work = postings * (1 + core.l as usize);
        let workers = if work < MIN_PARALLEL_SWEEP_WORK {
            1
        } else {
            resolve_threads(core.threads).min(core.r)
        };
        let n = core.n;
        let shards = &self.shards;
        let log_on = core.log_rounds;
        core.touched_last = 0;
        let mut log = RoundLog {
            pick: u.raw(),
            ..RoundLog::default()
        };

        if workers == 1 {
            let gain1 = &mut core.gain1;
            let gain2 = &mut core.gain2;
            let mut it1 = core.d1.chunks_mut(n);
            let mut it2 = core.d2.chunks_mut(n);
            let (mut dec1_sum, mut inc2_sum, mut touched_sum) = (0u64, 0u64, 0usize);
            for (gl, &(s, li)) in self.layer_map.iter().enumerate() {
                let mut ll = LayerLog {
                    gl: gl as u32,
                    ..LayerLog::default()
                };
                let LayerLog {
                    slot1: ls1,
                    off1: lo1,
                    slot2: ls2,
                    off2: lo2,
                    dec1: ld1,
                    dec2: ld2,
                    ..
                } = &mut ll;
                // The slot sinks need each slot's decrement start offset,
                // but the dec sinks own the log vectors — shared counters
                // bridge the two closures.
                let (c1, c2) = (std::cell::Cell::new(0u32), std::cell::Cell::new(0u32));
                let (dec1, inc2, touched) = Self::update_layer(
                    shards[s],
                    u,
                    li,
                    it1.next(),
                    it2.next(),
                    &mut |v, dec| {
                        gain1[v as usize] -= dec as u64;
                        if log_on {
                            ld1.push((v, dec));
                            c1.set(c1.get() + 1);
                        }
                    },
                    &mut |v| {
                        gain2[v as usize] -= 1;
                        if log_on {
                            ld2.push(v);
                            c2.set(c2.get() + 1);
                        }
                    },
                    &mut |node, value| {
                        if log_on {
                            lo1.push(c1.get());
                            ls1.push((node, value));
                        }
                    },
                    &mut |node| {
                        if log_on {
                            lo2.push(c2.get());
                            ls2.push(node);
                        }
                    },
                );
                dec1_sum += dec1;
                inc2_sum += inc2;
                touched_sum += touched;
                if log_on {
                    ll.touched = touched;
                    log.layers.push(ll);
                }
            }
            core.d1_total -= dec1_sum;
            core.d2_total += inc2_sum;
            core.touched_last = touched_sum;
            if log_on {
                core.rounds.push(log);
                core.snaps1.extend_from_slice(&core.gain1);
                core.snaps2.extend_from_slice(&core.gain2);
            }
            return;
        }

        /// One layer's update job: its owning index, its global and local
        /// layer indices and its disjoint `D` slices.
        type LayerJob<'s, 'i> = (
            &'i WalkIndex,
            u32,
            usize,
            Option<&'s mut [u32]>,
            Option<&'s mut [u8]>,
        );

        let mut it1 = core.d1.chunks_mut(n);
        let mut it2 = core.d2.chunks_mut(n);
        let mut per_layer: Vec<LayerJob<'_, 'a>> = self
            .layer_map
            .iter()
            .enumerate()
            .map(|(gl, &(s, li))| (shards[s], gl as u32, li, it1.next(), it2.next()))
            .collect();
        let chunk = core.r.div_ceil(workers);
        /// Per-worker staged output: `(Σ dec1, Σ inc2, touched, per-layer
        /// logs)`. The gain decrements ride inside the layer logs — they
        /// double as the staging buffers — and are applied in layer-chunk
        /// order after the join (integer adds commute, so the tables are
        /// bit-identical to the serial path).
        type Staged = (u64, u64, usize, Vec<LayerLog>);
        let mut partials: Vec<Staged> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = per_layer
                .chunks_mut(chunk)
                .map(|group| {
                    scope.spawn(move || {
                        let (mut dec1, mut inc2, mut touched) = (0u64, 0u64, 0usize);
                        let mut layers: Vec<LayerLog> = Vec::with_capacity(group.len());
                        for (idx, gl, li, d1, d2) in group.iter_mut() {
                            let mut ll = LayerLog {
                                gl: *gl,
                                ..LayerLog::default()
                            };
                            let LayerLog {
                                slot1: ls1,
                                off1: lo1,
                                slot2: ls2,
                                off2: lo2,
                                dec1: ld1,
                                dec2: ld2,
                                ..
                            } = &mut ll;
                            let (c1, c2) = (std::cell::Cell::new(0u32), std::cell::Cell::new(0u32));
                            let (a, b, t) = Self::update_layer(
                                idx,
                                u,
                                *li,
                                d1.as_deref_mut(),
                                d2.as_deref_mut(),
                                &mut |v, dec| {
                                    ld1.push((v, dec));
                                    c1.set(c1.get() + 1);
                                },
                                &mut |v| {
                                    ld2.push(v);
                                    c2.set(c2.get() + 1);
                                },
                                &mut |node, value| {
                                    if log_on {
                                        lo1.push(c1.get());
                                        ls1.push((node, value));
                                    }
                                },
                                &mut |node| {
                                    if log_on {
                                        lo2.push(c2.get());
                                        ls2.push(node);
                                    }
                                },
                            );
                            ll.touched = t;
                            dec1 += a;
                            inc2 += b;
                            touched += t;
                            layers.push(ll);
                        }
                        (dec1, inc2, touched, layers)
                    })
                })
                .collect();
            for h in handles {
                partials.push(h.join().expect("delta update worker panicked"));
            }
        });
        for (dec1, inc2, touched, layers) in partials {
            core.d1_total -= dec1;
            core.d2_total += inc2;
            core.touched_last += touched;
            for ll in layers {
                for &(v, dec) in &ll.dec1 {
                    core.gain1[v as usize] -= dec as u64;
                }
                for &v in &ll.dec2 {
                    core.gain2[v as usize] -= 1;
                }
                if log_on {
                    log.layers.push(ll);
                }
            }
        }
        if log_on {
            core.rounds.push(log);
            core.snaps1.extend_from_slice(&core.gain1);
            core.snaps2.extend_from_slice(&core.gain2);
        }
    }

    /// Algorithm 5 for layer `i` plus gain repair: every slot the refresh
    /// lowers (the new member's own slot and each improved posting source)
    /// streams its forward list once, emitting the closed-form decrement
    /// for each affected candidate into `sink1`/`sink2`. Forward lists are
    /// hop-ascending, so the Problem-1 streams stop at the first hop `≥`
    /// the slot's old value — entries past it contribute `max(0, d − w) =
    /// 0` before *and* after the drop. Every slot drop/flip is also
    /// reported to `slot1`/`slot2` (for round logs). Returns `(Σ D1
    /// decrease, Σ D2 increase, postings streamed)`.
    #[allow(clippy::too_many_arguments)]
    fn update_layer(
        idx: &WalkIndex,
        u: NodeId,
        i: usize,
        d1: Option<&mut [u32]>,
        d2: Option<&mut [u8]>,
        sink1: &mut impl FnMut(u32, u32),
        sink2: &mut impl FnMut(u32),
        slot1: &mut impl FnMut(u32, u32),
        slot2: &mut impl FnMut(u32),
    ) -> (u64, u64, usize) {
        let (mut dec1, mut inc2, mut touched) = (0u64, 0u64, 0usize);
        let pr = idx.postings(i, u);
        touched += pr.len();
        if let Some(d) = d1 {
            // The seed's own slot: D1[i][u] → 0. Affected candidates are
            // forward(i, u); with d' = 0 ≤ w the decrement is `old − w`.
            let old = d[u.index()];
            if old > 0 {
                d[u.index()] = 0;
                slot1(u.raw(), 0);
                dec1 += old as u64;
                sink1(u.raw(), old);
                let fwd = idx.forward(i, u);
                for (&v, &w) in fwd.ids().iter().zip(fwd.weights()) {
                    let w = w as u32;
                    if w >= old {
                        break;
                    }
                    touched += 1;
                    sink1(v, old - w);
                }
            }
            // Each posting source whose first-hit improves: D1[i][src]
            // drops `old → new`; candidates in forward(i, src) lose
            // `max(0, old − w) − max(0, new − w) = old − max(w, new)`.
            for (&src, &w) in pr.ids().iter().zip(pr.weights()) {
                let new = w as u32;
                let old = d[src as usize];
                if new < old {
                    d[src as usize] = new;
                    slot1(src, new);
                    dec1 += (old - new) as u64;
                    sink1(src, old - new);
                    let fwd = idx.forward(i, NodeId(src));
                    for (&v, &hw) in fwd.ids().iter().zip(fwd.weights()) {
                        let hw = hw as u32;
                        if hw >= old {
                            break;
                        }
                        touched += 1;
                        sink1(v, old - hw.max(new));
                    }
                }
            }
        }
        if let Some(d) = d2 {
            // Coverage: a slot flip 0 → 1 costs every candidate the slot's
            // walk visits (and the slot's own-term) exactly one unit.
            if d[u.index()] == 0 {
                d[u.index()] = 1;
                slot2(u.raw());
                inc2 += 1;
                sink2(u.raw());
                let fwd = idx.forward(i, u);
                touched += fwd.len();
                for &v in fwd.ids() {
                    sink2(v);
                }
            }
            for &src in pr.ids() {
                if d[src as usize] == 0 {
                    d[src as usize] = 1;
                    slot2(src);
                    inc2 += 1;
                    sink2(src);
                    let fwd = idx.forward(i, NodeId(src));
                    touched += fwd.len();
                    for &v in fwd.ids() {
                        sink2(v);
                    }
                }
            }
        }
        (dec1, inc2, touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::approx::GainEngine;
    use rwd_graph::generators::{barabasi_albert, paper_example};

    /// The Example 3.1 index: R = 1, L = 2, fixed walks.
    fn example31_index() -> WalkIndex {
        let v = |i: usize| NodeId::new(i - 1);
        let walks: Vec<Vec<NodeId>> = [
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
        .collect();
        WalkIndex::from_walks(8, 2, &walks)
    }

    const ALL_RULES: [GainRule; 3] = [
        GainRule::HittingTime,
        GainRule::Coverage,
        GainRule::Combined { lambda: 0.3 },
    ];

    #[test]
    fn initial_gains_match_sweep_engine_bitwise() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 5, 12, 21);
        for rule in ALL_RULES {
            let sweep = GainEngine::new(&idx, rule).gains_all();
            let delta = DeltaGainEngine::new(&idx, rule).gains();
            for (u, (a, b)) in delta.iter().zip(&sweep).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "rule {rule:?} node {u}");
            }
        }
    }

    #[test]
    fn example_3_1_first_round_gains_and_picks() {
        // Paper: σ(∅) = (2, 5, 3, 2, 3, 2, 5, 2) for v1..v8; v2 wins the
        // v2/v7 tie, then v7 is the second pick.
        let idx = example31_index();
        let mut engine = DeltaGainEngine::new(&idx, GainRule::HittingTime);
        assert_eq!(engine.gains(), vec![2.0, 5.0, 3.0, 2.0, 3.0, 2.0, 5.0, 2.0]);
        let (first, gain) = engine.best_candidate().unwrap();
        assert_eq!((first, gain), (NodeId(1), 5.0));
        engine.update(first);
        let (second, _) = engine.best_candidate().unwrap();
        assert_eq!(second, NodeId(6), "v7 is the paper's second pick");
    }

    #[test]
    fn maintained_gains_track_sweep_engine_across_rounds() {
        // After every commit, the delta-maintained table must equal a
        // sweep engine's fresh gains_all bit for bit — on non-selected
        // candidates (selected entries are maintained but unused).
        let g = barabasi_albert(200, 3, 11).unwrap();
        let idx = WalkIndex::build(&g, 6, 8, 5);
        for rule in ALL_RULES {
            let mut delta = DeltaGainEngine::new(&idx, rule);
            let mut sweep = GainEngine::new(&idx, rule);
            for round in 0..6 {
                let (pick, gain) = delta.best_candidate().unwrap();
                assert_eq!(
                    gain.to_bits(),
                    sweep.gain_single(pick).to_bits(),
                    "rule {rule:?} round {round}"
                );
                delta.update(pick);
                sweep.update(pick);
                let fresh = sweep.gains_all();
                let maintained = delta.gains();
                for u in 0..idx.n() {
                    if delta.selected().contains(NodeId::new(u)) {
                        continue;
                    }
                    assert_eq!(
                        maintained[u].to_bits(),
                        fresh[u].to_bits(),
                        "rule {rule:?} round {round} node {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn estimates_match_sweep_engine() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 4, 16, 3);
        let mut delta = DeltaGainEngine::new(&idx, GainRule::HittingTime);
        let mut sweep = GainEngine::new(&idx, GainRule::HittingTime);
        for pick in [NodeId(1), NodeId(6), NodeId(3)] {
            delta.update(pick);
            sweep.update(pick);
            assert_eq!(delta.est_f1().to_bits(), sweep.est_f1().to_bits());
        }
        let mut delta = DeltaGainEngine::new(&idx, GainRule::Coverage);
        let mut sweep = GainEngine::new(&idx, GainRule::Coverage);
        for pick in [NodeId(6), NodeId(0)] {
            delta.update(pick);
            sweep.update(pick);
            assert_eq!(delta.est_f2().to_bits(), sweep.est_f2().to_bits());
        }
    }

    #[test]
    fn update_is_thread_invariant_above_threshold() {
        // Star hub: r = 32 layers on a 2000-node star puts update(hub)
        // past the parallel gate; staged gain decrements must reproduce the
        // serial tables exactly.
        let g = rwd_graph::generators::classic::star(2_000).unwrap();
        let idx = WalkIndex::build(&g, 3, 32, 17);
        let hub = NodeId(0);
        let work: usize = (0..idx.r()).map(|i| idx.postings(i, hub).len()).sum();
        assert!(
            work >= MIN_PARALLEL_SWEEP_WORK,
            "fixture must cross the parallel threshold (work = {work})"
        );
        for rule in ALL_RULES {
            let mut serial = DeltaGainEngine::with_threads(&idx, rule, 1);
            serial.update(hub);
            for threads in [2, 8] {
                let mut engine = DeltaGainEngine::with_threads(&idx, rule, threads);
                engine.update(hub);
                assert_eq!(engine.last_update_touched(), serial.last_update_touched());
                for u in 0..idx.n() {
                    let u = NodeId::new(u);
                    assert_eq!(
                        engine.gain(u).to_bits(),
                        serial.gain(u).to_bits(),
                        "rule {rule:?} node {u} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn touched_postings_shrink_after_first_round() {
        // Output sensitivity: once the D tables tighten, later commits
        // change fewer slots, so the repair pass touches fewer postings
        // than a full sweep would.
        let g = barabasi_albert(300, 4, 9).unwrap();
        let idx = WalkIndex::build(&g, 6, 16, 2);
        let mut engine = DeltaGainEngine::new(&idx, GainRule::HittingTime);
        let mut touched = Vec::new();
        for _ in 0..8 {
            let (pick, _) = engine.best_candidate().unwrap();
            engine.update(pick);
            touched.push(engine.last_update_touched());
        }
        let total = idx.total_postings();
        assert!(
            touched[1..].iter().all(|&t| t < total),
            "later rounds must touch fewer postings than one full sweep \
             ({touched:?} vs {total})"
        );
    }

    #[test]
    fn sharded_engine_matches_monolith_bitwise() {
        // Shard the index's layers contiguously; the over_shards engine
        // must reproduce the monolithic picks, gains and estimates bit for
        // bit at every shard and thread count.
        use rwd_walks::LayerRange;
        let g = barabasi_albert(180, 3, 13).unwrap();
        let (l, r, seed) = (5u32, 8usize, 27u64);
        let idx = WalkIndex::build(&g, l, r, seed);
        for rule in ALL_RULES {
            let mut mono = DeltaGainEngine::with_threads(&idx, rule, 1);
            let mut mono_trace = Vec::new();
            for _ in 0..5 {
                let (pick, gain) = mono.best_candidate().unwrap();
                mono.update(pick);
                mono_trace.push((pick, gain.to_bits(), mono.last_update_touched()));
            }
            for shards in [1usize, 2, 4, 8] {
                let parts: Vec<WalkIndex> = LayerRange::partition(r, shards)
                    .into_iter()
                    .map(|rg| WalkIndex::build_layer_range(&g, l, rg, seed, 0))
                    .collect();
                let refs: Vec<&WalkIndex> = parts.iter().collect();
                for threads in [1usize, 2, 8] {
                    let mut engine = DeltaGainEngine::over_shards(&refs, rule, threads);
                    for (round, &(pick, gain_bits, touched)) in mono_trace.iter().enumerate() {
                        let (p, gain) = engine.best_candidate().unwrap();
                        assert_eq!(p, pick, "rule {rule:?} shards {shards} round {round}");
                        assert_eq!(gain.to_bits(), gain_bits);
                        engine.update(p);
                        assert_eq!(engine.last_update_touched(), touched);
                    }
                    for u in 0..idx.n() {
                        let u = NodeId::new(u);
                        assert_eq!(
                            engine.gain(u).to_bits(),
                            mono.gain(u).to_bits(),
                            "rule {rule:?} shards {shards} threads {threads} node {u}"
                        );
                    }
                    if rule.needs_f1() {
                        assert_eq!(engine.est_f1().to_bits(), mono.est_f1().to_bits());
                    }
                    if rule.needs_f2() {
                        assert_eq!(engine.est_f2().to_bits(), mono.est_f2().to_bits());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "contiguous layer tiling")]
    fn over_shards_rejects_gapped_ranges() {
        use rwd_walks::LayerRange;
        let g = paper_example::figure1();
        let a = WalkIndex::build_layer_range(&g, 3, LayerRange::new(0, 2), 5, 0);
        let b = WalkIndex::build_layer_range(&g, 3, LayerRange::new(3, 4), 5, 0);
        let _ = DeltaGainEngine::over_shards(&[&a, &b], GainRule::Coverage, 0);
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn double_update_panics() {
        let idx = example31_index();
        let mut engine = DeltaGainEngine::new(&idx, GainRule::Coverage);
        engine.update(NodeId(0));
        engine.update(NodeId(0));
    }

    /// Removes one deterministic edge from `g` and refreshes `idx`
    /// incrementally, returning the post-churn graph plus the refresh's
    /// edit script.
    fn churned(
        idx: &mut WalkIndex,
        g: &rwd_graph::CsrGraph,
        (u, v): (u32, u32),
    ) -> (rwd_graph::CsrGraph, PostingDelta) {
        let (g2, touched) = g.with_edits(&[], &[(u, v)]).expect("edge exists");
        let touched = NodeSet::from_nodes(g2.n(), touched);
        let (_, delta) = idx.refresh(&g2, &touched, 1);
        (g2, delta)
    }

    /// A BA core (ids `0..core_n`) plus a disjoint cycle (ids
    /// `core_n..core_n + tail`): walks never cross components, so churning
    /// a cycle edge provably leaves every core candidate's postings — and
    /// therefore the greedy rounds picked from the core — untouched.
    fn two_component_graph(core_n: usize, tail: usize, seed: u64) -> rwd_graph::CsrGraph {
        let core = barabasi_albert(core_n, 3, seed).unwrap();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for a in 0..core_n {
            for &b in core.neighbors(NodeId::new(a)) {
                if (a as u32) < b.raw() {
                    edges.push((a as u32, b.raw()));
                }
            }
        }
        let base = core_n as u32;
        for i in 0..tail as u32 {
            edges.push((base + i, base + (i + 1) % tail as u32));
        }
        rwd_graph::CsrGraph::from_edges(core_n + tail, &edges).unwrap()
    }

    #[test]
    fn absorb_rewinds_to_the_fresh_engine_state_bitwise() {
        // Select a few rounds, churn the index, absorb the delta: the
        // engine must equal a freshly constructed engine on the refreshed
        // index — gains, estimates, and argmax alike.
        let g = barabasi_albert(160, 3, 31).unwrap();
        let edge = (7u32, *g.neighbors(NodeId(7)).first().unwrap());
        let edge = (edge.0, edge.1.raw());
        for rule in ALL_RULES {
            let mut idx = WalkIndex::build(&g, 5, 6, 19);
            let mut engine = DeltaGainEngine::with_threads(&idx, rule, 1);
            engine.enable_round_logging();
            for _ in 0..4 {
                let (pick, _) = engine.best_candidate().unwrap();
                engine.update(pick);
            }
            let core = engine.into_core();
            let (_, delta) = churned(&mut idx, &g, edge);
            assert!(!delta.is_empty(), "churn must touch the index");
            let mut warm = DeltaGainEngine::resume(&[&idx], core);
            let absorbed = warm.absorb(std::slice::from_ref(&delta));
            // Net edits: identically reproduced postings cancel out.
            assert!(absorbed <= delta.postings_changed());
            let cold = DeltaGainEngine::with_threads(&idx, rule, 1);
            for u in 0..idx.n() {
                let u = NodeId::new(u);
                assert_eq!(
                    warm.gain(u).to_bits(),
                    cold.gain(u).to_bits(),
                    "rule {rule:?} node {u}"
                );
            }
            if rule.needs_f1() {
                assert_eq!(warm.est_f1().to_bits(), cold.est_f1().to_bits());
            }
            if rule.needs_f2() {
                assert_eq!(warm.est_f2().to_bits(), cold.est_f2().to_bits());
            }
            assert!(warm.selected().is_empty());
        }
    }

    #[test]
    fn warm_replay_reproduces_cold_rounds_bitwise() {
        // After absorb, drive the warm engine with the cold engine's picks:
        // replayed or not, every round's gains and tables must match the
        // cold engine exactly. The churn lives in a disjoint component, so
        // the recorded rounds (picked from the dense core) must all replay.
        let g = two_component_graph(160, 40, 3);
        let edge = (160u32, 161u32);
        for rule in ALL_RULES {
            let mut idx = WalkIndex::build(&g, 5, 6, 23);
            let mut engine = DeltaGainEngine::with_threads(&idx, rule, 1);
            engine.enable_round_logging();
            for _ in 0..5 {
                let (pick, _) = engine.best_candidate().unwrap();
                engine.update(pick);
            }
            let core = engine.into_core();
            let (_, delta) = churned(&mut idx, &g, edge);
            let mut warm = DeltaGainEngine::resume(&[&idx], core);
            warm.absorb(std::slice::from_ref(&delta));
            let mut cold = DeltaGainEngine::with_threads(&idx, rule, 1);
            let mut replayed_any = false;
            for round in 0..5 {
                let (wp, wg) = warm.best_candidate().unwrap();
                let (cp, cg) = cold.best_candidate().unwrap();
                assert_eq!(wp, cp, "rule {rule:?} round {round}");
                assert_eq!(wg.to_bits(), cg.to_bits());
                cold.update(cp);
                if warm.try_replay_recorded(wp) {
                    replayed_any = true;
                } else {
                    warm.update(wp);
                }
                assert_eq!(
                    warm.last_update_touched(),
                    cold.last_update_touched(),
                    "rule {rule:?} round {round}"
                );
                for u in 0..idx.n() {
                    let u = NodeId::new(u);
                    assert_eq!(
                        warm.gain(u).to_bits(),
                        cold.gain(u).to_bits(),
                        "rule {rule:?} round {round} node {u}"
                    );
                }
            }
            // The single-edge churn leaves most rounds' reads untouched;
            // the fast path must actually fire for the test to mean much.
            assert!(replayed_any, "rule {rule:?}: no round replayed warm");
        }
    }

    #[test]
    fn replay_refuses_after_a_cold_commit() {
        // Once any round goes cold, the remaining recorded rounds are
        // discarded — their logs presumed the recorded history.
        let idx = example31_index();
        let mut engine = DeltaGainEngine::new(&idx, GainRule::Coverage);
        engine.enable_round_logging();
        for _ in 0..3 {
            let (pick, _) = engine.best_candidate().unwrap();
            engine.update(pick);
        }
        let core = engine.into_core();
        let mut warm = DeltaGainEngine::resume(&[&idx], core);
        warm.absorb(&[]); // empty delta: everything replayable
        let (first, _) = warm.best_candidate().unwrap();
        warm.update(first); // cold commit instead of replay
        let (second, _) = warm.best_candidate().unwrap();
        assert!(
            !warm.try_replay_recorded(second),
            "pending logs must be invalidated by the cold commit"
        );
    }
}
