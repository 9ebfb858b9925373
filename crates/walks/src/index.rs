//! The inverted walk index — the paper's Algorithm 3 (`Invert_Index`).
//!
//! For every node `w` the builder runs `R` L-length walks; walk `i` from `w`
//! contributes a posting `⟨w, j⟩` to list `I[i][v]` when it *first* visits
//! `v` at hop `j` (repeated visits are dropped, matching the definition of
//! hitting time). Postings are materialized per layer (one layer = one walk
//! index `i` across all sources) in **struct-of-arrays** form: parallel
//! `ids: Vec<u32>` / `weights: Vec<u16>` columns plus per-node CSR offsets —
//! `O(nRL)` entries at 6 bytes each, so a greedy sweep touching only ids (or
//! only weights) streams just the column it needs instead of 8-byte AoS
//! structs.
//!
//! Construction fans out over a 2-D `(layer × node-chunk)` task grid, so the
//! machine saturates even when `R` is smaller than the core count. Every
//! walk derives from its own `(seed, node, layer)` RNG stream, so output is
//! bit-identical at any thread count.
//!
//! A single index serves *both* problems: Problem 1 consumes the true hop
//! weights, Problem 2 treats any posting as the indicator "source hits `v`"
//! (the paper's `weight ← 1` comment in Algorithm 3).
//!
//! Every layer additionally stores the **forward view** — the exact
//! transpose of its inverted lists: `forward(i, src)` enumerates the nodes
//! that walk `i` from `src` first-visits, with the same hops. The forward
//! view is what makes greedy rounds output-sensitive: when Algorithm 5
//! lowers `D[i][src]`, the only candidates whose Algorithm-4 gain changed
//! are precisely `forward(i, src)`. It is derived canonically from the
//! inverted columns (per owner-ascending transposition) in every
//! construction path — build, explicit walks, and the deserializing
//! `load`, which re-derives it instead of trusting the stored copy — so a
//! reloaded index carries an identical forward view.
//!
//! On disk an index is one RWDIDX4 file ([`WalkIndex::save`]): both CSR
//! views and the per-node aggregates in 8-byte-aligned little-endian
//! sections under a CRC-32 trailer. One header reader serves the three
//! decoders — the validating [`WalkIndex::load`], the zero-copy
//! [`WalkIndex::open_mapped`] and [`inspect_index_file`] — and refuses the
//! retired `RWDIDX1`/`RWDIDX2`/`RWDIDX3` layouts by name.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rwd_graph::NodeId;

use crate::delta::{LayerDelta, PostingDelta};
use crate::nodeset::NodeSet;
use crate::parallel::resolve_threads;
use crate::rng::WalkRng;
use crate::storage::{le_bytes, Column, MmapRegion, Pod};
use crate::walker::WalkGraph;

/// One inverted-list entry: the walk from `id` first reaches the list's
/// owner node at hop `weight` (`1 ≤ weight ≤ L`).
///
/// This is the *logical* item type; storage is columnar (see
/// [`PostingsRef`]), and iterators materialize `Posting`s on the fly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Posting {
    /// Source node whose walk produced this posting.
    pub id: NodeId,
    /// Hop at which the source's walk first visits the owner node.
    pub weight: u32,
}

/// Zero-copy view of one inverted list `I[layer][v]` in SoA form.
///
/// The two columns are index-aligned: `ids()[k]` hit the owner at hop
/// `weights()[k]`. Sweeps that only need one column (e.g. the Problem-2
/// coverage rule, which ignores hop weights) borrow just that slice.
#[derive(Clone, Copy)]
pub struct PostingsRef<'a> {
    ids: &'a [u32],
    weights: &'a [u16],
}

impl<'a> PostingsRef<'a> {
    /// Number of postings in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The source-id column.
    #[inline]
    pub fn ids(&self) -> &'a [u32] {
        self.ids
    }

    /// The first-visit-hop column (always `1 ≤ w ≤ L`, hence `u16`).
    #[inline]
    pub fn weights(&self) -> &'a [u16] {
        self.weights
    }

    /// The `k`-th posting, materialized.
    #[inline]
    pub fn get(&self, k: usize) -> Posting {
        Posting {
            id: NodeId(self.ids[k]),
            weight: self.weights[k] as u32,
        }
    }

    /// Iterates the list as materialized [`Posting`]s.
    #[inline]
    pub fn iter(&self) -> PostingsIter<'a> {
        PostingsIter {
            ids: self.ids.iter(),
            weights: self.weights.iter(),
        }
    }

    /// Collects the list into owned [`Posting`]s (tests, debugging).
    pub fn to_vec(&self) -> Vec<Posting> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for PostingsRef<'a> {
    type Item = Posting;
    type IntoIter = PostingsIter<'a>;

    fn into_iter(self) -> PostingsIter<'a> {
        self.iter()
    }
}

impl PartialEq for PostingsRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids && self.weights == other.weights
    }
}
impl Eq for PostingsRef<'_> {}

impl std::fmt::Debug for PostingsRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`PostingsRef`], yielding [`Posting`]s by value.
pub struct PostingsIter<'a> {
    ids: std::slice::Iter<'a, u32>,
    weights: std::slice::Iter<'a, u16>,
}

impl Iterator for PostingsIter<'_> {
    type Item = Posting;

    #[inline]
    fn next(&mut self) -> Option<Posting> {
        let id = *self.ids.next()?;
        let weight = *self.weights.next()? as u32;
        Some(Posting {
            id: NodeId(id),
            weight,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for PostingsIter<'_> {}

/// `(owner, source, hop)` triple produced while walking, before CSR packing.
type Triple = (u32, u32, u16);

/// One walk layer: the inverted lists `I[i][·]` for a fixed walk index `i`,
/// CSR-packed by owner node in struct-of-arrays form, plus the **forward
/// view** — the transpose CSR keyed by *source*: `fwd_*[src]` lists the
/// nodes walk `i` from `src` first-visits and at which hop. The forward
/// columns are always derived from the inverted columns by a two-pass
/// stable radix transposition (bucket by hop, then counting-sort by
/// source), so within one forward list the visited nodes appear in
/// **ascending hop order** (ties by ascending id) — walk-visit order, which
/// lets incremental-gain repairs stop at the first hop that can no longer
/// matter. The order is canonical: every construction path, including
/// `load`, produces it.
/// Each column is a [`Column`] — heap-owned after a build or refresh,
/// zero-copy mapped after [`WalkIndex::open_mapped`]. Equality compares
/// values, so a mapped layer equals the owned layer it was saved from.
///
/// A layer is immutable once built and lives behind an [`Arc`], so cloning
/// a [`WalkIndex`] shares its layers instead of copying them; a refresh
/// replaces a patched layer's `Arc` and never writes through a shared one.
#[derive(Debug, PartialEq, Eq)]
struct Layer {
    offsets: Column<u32>,
    ids: Column<u32>,
    weights: Column<u16>,
    fwd_offsets: Column<u32>,
    fwd_ids: Column<u32>,
    fwd_weights: Column<u16>,
}

/// The recycled heap buffers of a displaced [`Layer`] generation (see
/// [`PatchScratch::buf`]). A mapped column has no heap buffer to recycle,
/// so displacing a mapped layer yields empty vectors — the next patch
/// simply allocates fresh, which is exactly the copy-on-write promotion
/// cost.
#[derive(Default)]
struct LayerBufs {
    offsets: Vec<u32>,
    ids: Vec<u32>,
    weights: Vec<u16>,
    fwd_offsets: Vec<u32>,
    fwd_ids: Vec<u32>,
    fwd_weights: Vec<u16>,
}

impl Layer {
    /// A fully heap-owned layer from freshly built column vectors.
    fn owned(
        offsets: Vec<u32>,
        ids: Vec<u32>,
        weights: Vec<u16>,
        fwd_offsets: Vec<u32>,
        fwd_ids: Vec<u32>,
        fwd_weights: Vec<u16>,
    ) -> Layer {
        Layer {
            offsets: offsets.into(),
            ids: ids.into(),
            weights: weights.into(),
            fwd_offsets: fwd_offsets.into(),
            fwd_ids: fwd_ids.into(),
            fwd_weights: fwd_weights.into(),
        }
    }

    /// Reclaims the heap buffers for recycling (empty for mapped columns).
    fn into_bufs(self) -> LayerBufs {
        LayerBufs {
            offsets: self.offsets.take_buffer(),
            ids: self.ids.take_buffer(),
            weights: self.weights.take_buffer(),
            fwd_offsets: self.fwd_offsets.take_buffer(),
            fwd_ids: self.fwd_ids.take_buffer(),
            fwd_weights: self.fwd_weights.take_buffer(),
        }
    }

    /// Whether any column still borrows from a mapped file.
    fn is_mapped(&self) -> bool {
        self.offsets.is_mapped()
            || self.ids.is_mapped()
            || self.weights.is_mapped()
            || self.fwd_offsets.is_mapped()
            || self.fwd_ids.is_mapped()
            || self.fwd_weights.is_mapped()
    }

    /// Heap bytes owned by this layer's columns.
    fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes()
            + self.ids.heap_bytes()
            + self.weights.heap_bytes()
            + self.fwd_offsets.heap_bytes()
            + self.fwd_ids.heap_bytes()
            + self.fwd_weights.heap_bytes()
    }

    /// Bytes this layer borrows from a mapped file.
    fn mapped_bytes(&self) -> usize {
        self.offsets.mapped_bytes()
            + self.ids.mapped_bytes()
            + self.weights.mapped_bytes()
            + self.fwd_offsets.mapped_bytes()
            + self.fwd_ids.mapped_bytes()
            + self.fwd_weights.mapped_bytes()
    }
    /// Packs the triples of one layer — supplied as consecutive node-chunk
    /// outputs, in ascending node order — into SoA CSR columns. Counting
    /// sort by owner keeps construction O(n + entries) and preserves the
    /// generation order (source ascending, hop ascending) within each list.
    ///
    /// Each part's buffer is freed as soon as it has been placed, so the
    /// triple staging (12 B/entry) and the SoA columns (6 B/entry) overlap
    /// only one part at a time instead of layer-by-layer doubling.
    fn from_parts(n: usize, parts: &mut [Vec<Triple>]) -> Layer {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert!(
            total <= u32::MAX as usize,
            "layer posting count {total} overflows u32 CSR offsets"
        );
        let mut counts = vec![0u32; n + 1];
        for part in parts.iter() {
            for &(v, _, _) in part {
                counts[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut ids = vec![0u32; total];
        let mut weights = vec![0u16; total];
        for part in parts.iter_mut() {
            for &(v, id, w) in part.iter() {
                let slot = counts[v as usize] as usize;
                ids[slot] = id;
                weights[slot] = w;
                counts[v as usize] += 1;
            }
            *part = Vec::new();
        }
        Layer::from_inverted(n, offsets, ids, weights)
    }

    /// Finishes a layer from its inverted CSR columns by materializing the
    /// forward view via a two-pass stable radix transposition (`O(n + L +
    /// entries)`): postings are first bucketed by hop, then counting-sorted
    /// by source, so each forward list comes out in ascending `(hop, id)`
    /// order — walk-visit order. Because the transposition only reads the
    /// inverted columns, every construction path (parallel build, explicit
    /// walks, `load`) yields a bit-identical forward view for identical
    /// postings.
    fn from_inverted(n: usize, offsets: Vec<u32>, ids: Vec<u32>, weights: Vec<u16>) -> Layer {
        let total = ids.len();
        assert!(
            total <= u32::MAX as usize,
            "layer posting count {total} overflows u32 CSR offsets"
        );
        // Pass 1: stable bucket by hop. Hops are 1..=L (≤ u16::MAX), so
        // this is a counting sort over at most 65535 buckets; within one
        // hop bucket, entries keep (owner asc) order.
        let max_hop = weights.iter().copied().max().unwrap_or(0) as usize;
        let mut hop_counts = vec![0u32; max_hop + 2];
        for &w in &weights {
            hop_counts[w as usize + 1] += 1;
        }
        for h in 0..=max_hop {
            hop_counts[h + 1] += hop_counts[h];
        }
        let mut by_hop: Vec<(u32, u32, u16)> = vec![(0, 0, 0); total]; // (src, owner, hop)
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            for k in lo..hi {
                let slot = &mut hop_counts[weights[k] as usize];
                by_hop[*slot as usize] = (ids[k], v as u32, weights[k]);
                *slot += 1;
            }
        }
        // Pass 2: stable counting sort by source; per source the (hop asc,
        // owner asc) order from pass 1 is preserved.
        let mut counts = vec![0u32; n + 1];
        for &src in &ids {
            counts[src as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let fwd_offsets = counts.clone();
        let mut fwd_ids = vec![0u32; total];
        let mut fwd_weights = vec![0u16; total];
        for &(src, owner, hop) in &by_hop {
            let slot = &mut counts[src as usize];
            fwd_ids[*slot as usize] = owner;
            fwd_weights[*slot as usize] = hop;
            *slot += 1;
        }
        Layer::owned(offsets, ids, weights, fwd_offsets, fwd_ids, fwd_weights)
    }

    #[inline]
    fn postings(&self, v: NodeId) -> PostingsRef<'_> {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        PostingsRef {
            ids: &self.ids[lo..hi],
            weights: &self.weights[lo..hi],
        }
    }

    #[inline]
    fn forward(&self, src: NodeId) -> PostingsRef<'_> {
        let lo = self.fwd_offsets[src.index()] as usize;
        let hi = self.fwd_offsets[src.index() + 1] as usize;
        PostingsRef {
            ids: &self.fwd_ids[lo..hi],
            weights: &self.fwd_weights[lo..hi],
        }
    }
}

/// A contiguous range of walk layers `[start, end)` — the unit of sharding.
///
/// The estimators of the paper are sums of independent per-layer integer
/// contributions divided once by `R` at the end, so an index restricted to
/// a layer range is a *complete* description of those layers: a shard
/// owning `[start, end)` builds, refreshes and queries exactly the layers
/// the monolithic index stores at the same absolute positions, bit for bit
/// (walk RNG streams are keyed by the **absolute** layer index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LayerRange {
    start: usize,
    end: usize,
}

impl LayerRange {
    /// The range `[start, end)`.
    ///
    /// # Panics
    /// Panics when `start >= end` — every range owns at least one layer.
    pub fn new(start: usize, end: usize) -> LayerRange {
        assert!(start < end, "layer range [{start}, {end}) is empty");
        LayerRange { start, end }
    }

    /// First layer of the range (absolute index).
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last layer of the range (absolute index).
    #[inline]
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of layers in the range.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Always false — ranges are non-empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the absolute layer index lies in the range.
    #[inline]
    pub fn contains(&self, layer: usize) -> bool {
        self.start <= layer && layer < self.end
    }

    /// Splits `[0, r)` into `shards` contiguous, balanced ranges: the first
    /// `r % shards` ranges get one extra layer. The concatenation of the
    /// returned ranges is exactly `[0, r)` in order — the invariant the
    /// scatter-gather coordinator merges by.
    ///
    /// # Panics
    /// Panics when `shards == 0` or `shards > r` (a shard must own at least
    /// one layer); engine layers turn these into named errors first.
    pub fn partition(r: usize, shards: usize) -> Vec<LayerRange> {
        assert!(shards > 0, "cannot partition {r} layers into 0 shards");
        assert!(
            shards <= r,
            "cannot partition {r} layers into {shards} shards (empty shard)"
        );
        let base = r / shards;
        let extra = r % shards;
        let mut out = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            out.push(LayerRange::new(start, start + len));
            start += len;
        }
        debug_assert_eq!(start, r);
        out
    }
}

/// Per-batch accounting of an incremental [`WalkIndex::refresh`]: how many
/// `(src, layer)` walk groups were actually re-walked and how many postings
/// the layer surgery rewrote. The resampled-group count is the
/// output-sensitivity measure of the evolving-graph pipeline — it scales
/// with the touched set (via the inverted lists of the touched nodes), not
/// with `n`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// `(src, layer)` groups re-walked on the new graph.
    pub groups_resampled: usize,
    /// Total groups in the index (`n · R`).
    pub groups_total: usize,
    /// Old postings dropped by resampled groups.
    pub postings_removed: usize,
    /// New postings produced by resampled groups.
    pub postings_added: usize,
}

impl RefreshStats {
    /// Total postings rewritten by the batch (removed + added).
    pub fn postings_rewritten(&self) -> usize {
        self.postings_removed + self.postings_added
    }

    /// Merges another batch's stats into this one (totals must agree).
    pub fn merge(&mut self, other: &RefreshStats) {
        self.groups_resampled += other.groups_resampled;
        self.groups_total = self.groups_total.max(other.groups_total);
        self.postings_removed += other.postings_removed;
        self.postings_added += other.postings_added;
    }
}

/// The materialized sample store `I[1:R][1:n]` of Algorithm 3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalkIndex {
    n: usize,
    l: u32,
    /// Shared with every clone of the index (a pinned epoch); a refresh
    /// swaps in fresh `Arc`s only for the layers it patches.
    layers: Vec<Arc<Layer>>,
    seed: u64,
    /// Absolute index of `layers[0]` in the full `R`-layer index. `0` for a
    /// monolithic index; a shard built over `LayerRange { start, .. }`
    /// stores `start`, so every RNG stream and refresh replay uses absolute
    /// layer indices and the shard's layers stay bitwise identical to the
    /// monolith's.
    layer_base: usize,
    /// Per-node inverted-posting count across all layers
    /// (`Σ_i |I[i][v]|`), precomputed at construction — the `S = ∅`
    /// closed-form gain initializers read these instead of re-streaming
    /// every list. Mapped straight from an RWDIDX4 file on a zero-copy
    /// open; promoted on the first refresh that changes any posting.
    posting_counts: Column<u64>,
    /// Per-node sum of posting hop weights across all layers
    /// (`Σ_i Σ_{(src,w) ∈ I[i][v]} w`).
    posting_hop_sums: Column<u64>,
}

/// Node chunks smaller than this are not worth a task of their own.
const MIN_NODE_CHUNK: usize = 512;

/// Reusable per-worker first-visit dedup: each source walk bumps the stamp
/// instead of clearing the whole buffer.
struct VisitScratch {
    visited: Vec<u32>,
    stamp: u32,
}

impl VisitScratch {
    fn new(n: usize) -> Self {
        VisitScratch {
            visited: vec![u32::MAX; n],
            stamp: 0,
        }
    }

    /// Advances to a fresh stamp, resetting the buffer on (practically
    /// unreachable — 2^32 walks per worker) stamp-space exhaustion.
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == u32::MAX {
            self.visited.fill(u32::MAX);
            self.stamp = 1;
        }
        self.stamp
    }
}

/// Runs the single `(seed, src, layer)` walk, appending its first-visit
/// triples. Every construction *and maintenance* path funnels through this
/// function, so a resampled group is bit-identical to the group a
/// from-scratch build would produce on the same graph.
#[inline]
fn walk_one<G: WalkGraph>(
    layer_idx: usize,
    src: usize,
    l: u32,
    seed: u64,
    g: &G,
    scratch: &mut VisitScratch,
    triples: &mut Vec<Triple>,
) {
    let s = scratch.next_stamp();
    let mut rng = WalkRng::for_stream(seed, src as u64, layer_idx as u64);
    let mut u = NodeId::new(src);
    scratch.visited[src] = s;
    for j in 1..=l {
        u = g.step(u, &mut rng);
        if scratch.visited[u.index()] != s {
            scratch.visited[u.index()] = s;
            triples.push((u.raw(), src as u32, j as u16));
        }
    }
}

/// Per-worker scratch for incremental layer patching: stamped affected-set
/// marks (reset-free across layers) and the worker's staged per-node
/// aggregate deltas.
struct PatchScratch {
    visit: VisitScratch,
    /// `affected[src] == stamp` ⟺ src's walk group resamples this layer.
    affected: Vec<u32>,
    /// `owner_stamp[v] == stamp` ⟺ `v`'s inverted row loses or gains a
    /// posting this layer (and must be re-merged instead of spliced), i.e.
    /// `v` is already in `owners`.
    owner_stamp: Vec<u32>,
    /// The owners stamped this layer, ascending after step 3 of
    /// [`patch_layer`]; the rows between them are spliced in bulk.
    owners: Vec<u32>,
    stamp: u32,
    /// Σ over this worker's layers of posting-count changes per node.
    agg_dcount: Vec<i64>,
    /// Σ over this worker's layers of hop-sum changes per node.
    agg_dhops: Vec<i64>,
    /// Reused staging for the fresh postings re-sorted by `(owner, src)`.
    adds: Vec<Triple>,
    /// Recycled column buffers: each patch builds the next epoch's columns
    /// here, and when the layer it displaces is held by nobody else, that
    /// layer's buffers become the next patch's. The scratch lives for one
    /// refresh call, so a worker allocates fresh columns for the first
    /// layer it patches and reuses them for the rest of its chunk. A
    /// displaced layer still pinned by a snapshot is never recycled — the
    /// snapshot keeps reading it — and a displaced *mapped* layer
    /// contributes empty buffers (its bytes belong to the map), which is
    /// precisely the one-time copy-on-write promotion cost.
    buf: LayerBufs,
}

impl PatchScratch {
    fn new(n: usize) -> Self {
        PatchScratch {
            visit: VisitScratch::new(n),
            affected: vec![u32::MAX; n],
            owner_stamp: vec![u32::MAX; n],
            owners: Vec::new(),
            stamp: 0,
            agg_dcount: vec![0; n],
            agg_dhops: vec![0; n],
            adds: Vec::new(),
            buf: LayerBufs::default(),
        }
    }

    /// Advances to a fresh stamp for both mark arrays (same wrap policy as
    /// [`VisitScratch`]).
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == u32::MAX {
            self.affected.fill(u32::MAX);
            self.owner_stamp.fill(u32::MAX);
            self.stamp = 1;
        }
        self.stamp
    }
}

/// Appends CSR rows `rows` of the view `(offsets, ids, weights)` verbatim:
/// one bulk copy per posting column and one wrapping add that rebases the
/// run's offsets onto the output's current length. The rebased offsets are
/// exact because every output offset fits in `u32` (checked by the caller).
fn splice_rows(
    old: (&[u32], &[u32], &[u16]),
    rows: std::ops::Range<usize>,
    offsets: &mut Vec<u32>,
    ids: &mut Vec<u32>,
    weights: &mut Vec<u16>,
) {
    let (old_offsets, old_ids, old_weights) = old;
    let lo = old_offsets[rows.start] as usize;
    let hi = old_offsets[rows.end] as usize;
    let shift = (ids.len() as u32).wrapping_sub(lo as u32);
    offsets.extend(
        old_offsets[rows.start + 1..=rows.end]
            .iter()
            .map(|&o| o.wrapping_add(shift)),
    );
    ids.extend_from_slice(&old_ids[lo..hi]);
    weights.extend_from_slice(&old_weights[lo..hi]);
}

/// Patches one layer for the next graph epoch: detects the affected walk
/// groups through the *old* inverted lists of the touched nodes, re-walks
/// exactly those groups on the new graph, and writes both CSR views of the
/// next epoch once — each maximal run of untouched rows is spliced in bulk
/// ([`splice_rows`]), only rows with stale or fresh postings are re-merged.
/// The canonical orders are preserved exactly (inverted rows: ascending
/// source; forward rows: ascending hop = walk order), so the patched layer
/// is bit-identical to the layer a from-scratch build on the new graph
/// would produce.
///
/// The old layer is only read (through its `Arc`, which a pinned snapshot
/// may share); the patched layer replaces the `Arc` in `layer`.
///
/// When at least one group resampled, the layer's **net** edit script (see
/// [`LayerDelta`]) is appended to `deltas`: each affected group's old and
/// new forward rows are merged in hop order and verbatim reproductions
/// cancel at the source, so the script holds only postings that actually
/// differ — a resampled walk that never diverges contributes nothing, and
/// downstream absorption is `O(net)` rather than `O(gross)`.
#[allow(clippy::too_many_arguments)]
fn patch_layer<G: WalkGraph>(
    layer: &mut Arc<Layer>,
    n: usize,
    l: u32,
    seed: u64,
    layer_idx: usize,
    touched: &NodeSet,
    g: &G,
    ws: &mut PatchScratch,
    deltas: &mut Vec<LayerDelta>,
) -> RefreshStats {
    let old: &Layer = layer;
    let mut out = RefreshStats::default();
    // --- 1. affected groups: touched sources ∪ sources visiting them ----
    let stamp = ws.next_stamp();
    let mut affected_srcs: Vec<u32> = Vec::new();
    for v in touched.iter() {
        if ws.affected[v.index()] != stamp {
            ws.affected[v.index()] = stamp;
            affected_srcs.push(v.raw());
        }
        for &src in old.postings(v).ids() {
            if ws.affected[src as usize] != stamp {
                ws.affected[src as usize] = stamp;
                affected_srcs.push(src);
            }
        }
    }
    affected_srcs.sort_unstable();
    out.groups_resampled = affected_srcs.len();
    if affected_srcs.is_empty() {
        return out;
    }

    // --- 2. re-walk affected groups with their original RNG streams -----
    // Ascending source order makes the triple stream canonical; per-source
    // bounds let the forward patch splice each group back in directly.
    let mut new_triples: Vec<Triple> = Vec::with_capacity(affected_srcs.len() * 4);
    let mut new_src_bounds: Vec<u32> = Vec::with_capacity(affected_srcs.len() + 1);
    new_src_bounds.push(0);
    for &src in &affected_srcs {
        walk_one(
            layer_idx,
            src as usize,
            l,
            seed,
            g,
            &mut ws.visit,
            &mut new_triples,
        );
        new_src_bounds.push(new_triples.len() as u32);
    }
    out.postings_added = new_triples.len();

    // --- 3. per-owner deltas: stale rows, fresh rows, aggregate edits ---
    // Owners needing a re-merge are exactly those losing a stale posting
    // (they appear in an affected source's old forward list) or gaining a
    // fresh one; every other row is spliced wholesale below.
    ws.owners.clear();
    for &src in &affected_srcs {
        let lo = old.fwd_offsets[src as usize] as usize;
        let hi = old.fwd_offsets[src as usize + 1] as usize;
        out.postings_removed += hi - lo;
        for k in lo..hi {
            let owner = old.fwd_ids[k] as usize;
            if ws.owner_stamp[owner] != stamp {
                ws.owner_stamp[owner] = stamp;
                ws.owners.push(owner as u32);
            }
            ws.agg_dcount[owner] -= 1;
            ws.agg_dhops[owner] -= old.fwd_weights[k] as i64;
        }
    }
    // The fresh postings re-sorted by `(owner, src)` — the inverted rows'
    // canonical order. The sort is over the (small) add set only, so the
    // patch stays proportional to the churn, not to `n`.
    ws.adds.clear();
    ws.adds.extend_from_slice(&new_triples);
    ws.adds
        .sort_unstable_by_key(|&(owner, src, _)| (owner, src));
    for &(owner, _, hop) in &ws.adds {
        if ws.owner_stamp[owner as usize] != stamp {
            ws.owner_stamp[owner as usize] = stamp;
            ws.owners.push(owner);
        }
        ws.agg_dcount[owner as usize] += 1;
        ws.agg_dhops[owner as usize] += hop as i64;
    }
    ws.owners.sort_unstable();

    // --- 3b. net edit script: verbatim reproductions cancel here --------
    // A resampled walk that diverges late (or never) re-emits most of its
    // old forward row byte for byte; the gain engine only cares about the
    // difference. Both rows are hop-ascending (walk order), so one ordered
    // merge per group emits exactly the net edits — downstream absorption
    // is O(net), and a fully reproduced group contributes nothing at all.
    let mut removed: Vec<Triple> = Vec::new();
    let mut added: Vec<Triple> = Vec::new();
    for (gi, &src) in affected_srcs.iter().enumerate() {
        let lo = old.fwd_offsets[src as usize] as usize;
        let hi = old.fwd_offsets[src as usize + 1] as usize;
        let tlo = new_src_bounds[gi] as usize;
        let thi = new_src_bounds[gi + 1] as usize;
        let same = hi - lo == thi - tlo
            && (0..hi - lo).all(|k| {
                let (owner, _, hop) = new_triples[tlo + k];
                old.fwd_ids[lo + k] == owner && old.fwd_weights[lo + k] == hop
            });
        if same {
            continue;
        }
        let (mut k, mut t) = (lo, tlo);
        while k < hi || t < thi {
            // Order within a group is strictly ascending hop on both sides.
            let old_key = (k < hi).then(|| (old.fwd_weights[k], old.fwd_ids[k]));
            let new_key = (t < thi).then(|| (new_triples[t].2, new_triples[t].0));
            match (old_key, new_key) {
                (Some(o), Some(w)) if o == w => {
                    k += 1;
                    t += 1;
                }
                (Some(o), Some(w)) if o < w => {
                    removed.push((o.1, src, o.0));
                    k += 1;
                }
                (Some(_), Some(_)) | (None, Some(_)) => {
                    added.push(new_triples[t]);
                    t += 1;
                }
                (Some(o), None) => {
                    removed.push((o.1, src, o.0));
                    k += 1;
                }
                (None, None) => unreachable!(),
            }
        }
    }

    // --- 4. inverted columns: untouched runs spliced, owners re-merged ---
    let new_total = old.ids.len() + out.postings_added - out.postings_removed;
    assert!(
        new_total <= u32::MAX as usize,
        "layer posting count {new_total} overflows u32 CSR offsets"
    );
    let mut offsets = std::mem::take(&mut ws.buf.offsets);
    offsets.clear();
    offsets.reserve(n + 1);
    offsets.push(0u32);
    let mut ids = std::mem::take(&mut ws.buf.ids);
    ids.clear();
    ids.reserve(new_total);
    let mut weights = std::mem::take(&mut ws.buf.weights);
    weights.clear();
    weights.reserve(new_total);
    let inv = (&old.offsets[..], &old.ids[..], &old.weights[..]);
    let mut row = 0usize; // first old row not yet emitted
    let mut ac = 0usize; // cursor into ws.adds (owner-ascending)
    for &v in &ws.owners {
        let v = v as usize;
        splice_rows(inv, row..v, &mut offsets, &mut ids, &mut weights);
        // Merge kept old entries (stale sources dropped) with this owner's
        // adds, both ascending by source id. All adds belong to stamped
        // owners, and owners are visited ascending, so the cursor is
        // already positioned at `v`'s first add.
        let mut ahi = ac;
        while ahi < ws.adds.len() && ws.adds[ahi].0 as usize == v {
            ahi += 1;
        }
        for k in old.offsets[v] as usize..old.offsets[v + 1] as usize {
            let src = old.ids[k];
            if ws.affected[src as usize] == stamp {
                continue;
            }
            while ac < ahi && ws.adds[ac].1 < src {
                ids.push(ws.adds[ac].1);
                weights.push(ws.adds[ac].2);
                ac += 1;
            }
            ids.push(src);
            weights.push(old.weights[k]);
        }
        for &(_, src, hop) in &ws.adds[ac..ahi] {
            ids.push(src);
            weights.push(hop);
        }
        ac = ahi;
        offsets.push(ids.len() as u32);
        row = v + 1;
    }
    splice_rows(inv, row..n, &mut offsets, &mut ids, &mut weights);

    // --- 5. forward columns: affected rows replaced, runs spliced -------
    let mut fwd_offsets = std::mem::take(&mut ws.buf.fwd_offsets);
    fwd_offsets.clear();
    fwd_offsets.reserve(n + 1);
    fwd_offsets.push(0u32);
    let mut fwd_ids = std::mem::take(&mut ws.buf.fwd_ids);
    fwd_ids.clear();
    fwd_ids.reserve(new_total);
    let mut fwd_weights = std::mem::take(&mut ws.buf.fwd_weights);
    fwd_weights.clear();
    fwd_weights.reserve(new_total);
    let fwd = (&old.fwd_offsets[..], &old.fwd_ids[..], &old.fwd_weights[..]);
    let mut row = 0usize;
    for (gi, &src) in affected_srcs.iter().enumerate() {
        let src = src as usize;
        splice_rows(
            fwd,
            row..src,
            &mut fwd_offsets,
            &mut fwd_ids,
            &mut fwd_weights,
        );
        let tlo = new_src_bounds[gi] as usize;
        let thi = new_src_bounds[gi + 1] as usize;
        for &(owner, _, hop) in &new_triples[tlo..thi] {
            fwd_ids.push(owner);
            fwd_weights.push(hop);
        }
        fwd_offsets.push(fwd_ids.len() as u32);
        row = src + 1;
    }
    splice_rows(
        fwd,
        row..n,
        &mut fwd_offsets,
        &mut fwd_ids,
        &mut fwd_weights,
    );

    // Swap the fresh (always owned) columns in. The displaced generation
    // becomes the next patch's buffers only when this index held its last
    // reference; a snapshot still sharing it keeps it intact, and its
    // memory is freed when that snapshot drops. When the displaced layer
    // was mapped, this swap *is* the copy-on-write promotion: exactly this
    // layer's columns leave the file region, untouched layers stay mapped.
    let patched = Layer::owned(offsets, ids, weights, fwd_offsets, fwd_ids, fwd_weights);
    let displaced = std::mem::replace(layer, Arc::new(patched));
    ws.buf = Arc::try_unwrap(displaced).map_or_else(|_| LayerBufs::default(), Layer::into_bufs);
    deltas.push(LayerDelta {
        layer: layer_idx,
        resampled: affected_srcs,
        removed,
        added,
    });
    out
}

/// Walks nodes `[lo, hi)` of one layer, appending first-visit triples.
fn walk_node_range<G: WalkGraph>(
    layer_idx: usize,
    lo: usize,
    hi: usize,
    l: u32,
    seed: u64,
    g: &G,
    scratch: &mut VisitScratch,
) -> Vec<Triple> {
    let mut triples: Vec<Triple> = Vec::with_capacity((hi - lo) * (l as usize).min(8));
    for w in lo..hi {
        walk_one(layer_idx, w, l, seed, g, scratch, &mut triples);
    }
    triples
}

/// Runs all `r × n` walks and packs them into per-layer SoA CSR lists.
/// `layer_base` offsets every walk's RNG-stream layer index, so building
/// layers `[layer_base, layer_base + r)` of a sharded index reproduces the
/// monolith's layers at those absolute positions bit for bit.
///
/// Work is split over a 2-D `(layer × node-chunk)` task grid drained from an
/// atomic queue, so the build saturates the machine even when `r` is below
/// the core count; each task's output is a pure function of
/// `(seed, node range, layer)`, so scheduling never affects the result.
fn build_layers<G: WalkGraph>(
    g: &G,
    l: u32,
    r: usize,
    layer_base: usize,
    seed: u64,
    threads: usize,
) -> Vec<Layer> {
    let n = g.n();
    let workers = resolve_threads(threads);
    let max_chunks = n.div_ceil(MIN_NODE_CHUNK).max(1);
    // Oversubscribe ~4× for load balance across skewed chunks.
    let target_chunks = (workers * 4).div_ceil(r).clamp(1, max_chunks);
    let chunk_nodes = n.div_ceil(target_chunks).max(1);
    // Re-derive the chunk count from the rounded-up chunk size, so the last
    // chunk's range never starts past `n` (ceil(n/c) chunks of c nodes can
    // need fewer chunks than first targeted).
    let chunks_per_layer = n.div_ceil(chunk_nodes).max(1);
    let tasks = r * chunks_per_layer;

    let mut parts: Vec<Vec<Triple>> = (0..tasks).map(|_| Vec::new()).collect();
    let task_range = |t: usize| {
        let layer_idx = layer_base + t / chunks_per_layer;
        let lo = ((t % chunks_per_layer) * chunk_nodes).min(n);
        let hi = (lo + chunk_nodes).min(n);
        (layer_idx, lo, hi)
    };

    if workers == 1 {
        let mut scratch = VisitScratch::new(n);
        for (t, part) in parts.iter_mut().enumerate() {
            let (layer_idx, lo, hi) = task_range(t);
            *part = walk_node_range(layer_idx, lo, hi, l, seed, g, &mut scratch);
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.min(tasks))
                .map(|_| {
                    scope.spawn(|| {
                        let mut out: Vec<(usize, Vec<Triple>)> = Vec::new();
                        let mut scratch = VisitScratch::new(n);
                        loop {
                            let t = next.fetch_add(1, Ordering::Relaxed);
                            if t >= tasks {
                                break;
                            }
                            let (layer_idx, lo, hi) = task_range(t);
                            out.push((
                                t,
                                walk_node_range(layer_idx, lo, hi, l, seed, g, &mut scratch),
                            ));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                for (t, v) in h.join().expect("index build worker panicked") {
                    parts[t] = v;
                }
            }
        });
    }

    // Pack each layer's chunk outputs (already in node order) into SoA CSR,
    // parallel over layers; each layer's staging buffers are freed as it
    // packs, so triple staging and final columns barely overlap.
    let mut layers: Vec<Option<Layer>> = (0..r).map(|_| None).collect();
    let pack_workers = workers.min(r);
    if pack_workers == 1 {
        for (slot, group) in layers.iter_mut().zip(parts.chunks_mut(chunks_per_layer)) {
            *slot = Some(Layer::from_parts(n, group));
        }
    } else {
        let lchunk = r.div_ceil(pack_workers);
        let mut layer_groups: Vec<&mut [Vec<Triple>]> =
            parts.chunks_mut(chunks_per_layer).collect();
        std::thread::scope(|scope| {
            for (slots, groups) in layers
                .chunks_mut(lchunk)
                .zip(layer_groups.chunks_mut(lchunk))
            {
                scope.spawn(move || {
                    for (slot, group) in slots.iter_mut().zip(groups.iter_mut()) {
                        *slot = Some(Layer::from_parts(n, group));
                    }
                });
            }
        });
    }
    layers
        .into_iter()
        .map(|o| o.expect("layer built"))
        .collect()
}

impl WalkIndex {
    /// Finishes construction from built layers: computes the per-node
    /// posting aggregates (count and hop-weight sum across layers) in one
    /// pass over each layer's columns — parallel over node chunks above
    /// the shared work gate, honoring the caller's worker budget
    /// (`0` = all cores). Every public constructor funnels through here,
    /// so the aggregates always agree with the stored postings.
    fn assemble(
        n: usize,
        l: u32,
        layers: Vec<Layer>,
        layer_base: usize,
        seed: u64,
        threads: usize,
    ) -> WalkIndex {
        let layers: Vec<Arc<Layer>> = layers.into_iter().map(Arc::new).collect();
        let (posting_counts, posting_hop_sums) = Self::compute_aggregates(n, &layers, threads);
        WalkIndex {
            n,
            l,
            layers,
            seed,
            layer_base,
            posting_counts: posting_counts.into(),
            posting_hop_sums: posting_hop_sums.into(),
        }
    }

    /// Recomputes the per-node posting aggregates from the layer columns —
    /// shared by [`WalkIndex::assemble`] and the incremental
    /// [`WalkIndex::refresh`] path (all sums are integers, so the result is
    /// independent of the worker layout).
    fn compute_aggregates(n: usize, layers: &[Arc<Layer>], threads: usize) -> (Vec<u64>, Vec<u64>) {
        let total: usize = layers.iter().map(|la| la.ids.len()).sum();
        let mut posting_counts = vec![0u64; n];
        let mut posting_hop_sums = vec![0u64; n];
        let fill = |lo: usize, counts: &mut [u64], sums: &mut [u64]| {
            for layer in layers {
                for (slot, v) in (lo..lo + counts.len()).enumerate() {
                    let a = layer.offsets[v] as usize;
                    let b = layer.offsets[v + 1] as usize;
                    counts[slot] += (b - a) as u64;
                    let mut s = 0u64;
                    for &w in &layer.weights[a..b] {
                        s += w as u64;
                    }
                    sums[slot] += s;
                }
            }
        };
        let workers = if n + total < crate::parallel::MIN_PARALLEL_SWEEP_WORK {
            1
        } else {
            resolve_threads(threads).min(n.max(1))
        };
        if workers == 1 {
            fill(0, &mut posting_counts, &mut posting_hop_sums);
        } else {
            let chunk = n.div_ceil(workers);
            std::thread::scope(|scope| {
                for (ci, (counts, sums)) in posting_counts
                    .chunks_mut(chunk)
                    .zip(posting_hop_sums.chunks_mut(chunk))
                    .enumerate()
                {
                    let fill = &fill;
                    scope.spawn(move || fill(ci * chunk, counts, sums));
                }
            });
        }
        (posting_counts, posting_hop_sums)
    }

    /// Builds the index by running `r` walks per node (Algorithm 3),
    /// parallelized over a `(layer × node-chunk)` grid; the result is a pure
    /// function of `(graph, l, r, seed)` regardless of thread count. Walks
    /// step by the graph's own rule ([`WalkGraph`]): uniform on a
    /// [`CsrGraph`](rwd_graph::CsrGraph), weight-proportional on a
    /// [`WeightedCsrGraph`](rwd_graph::weighted::WeightedCsrGraph) — the
    /// paper's weighted extension, after which Algorithm 6 works unchanged
    /// because it only ever touches the index.
    ///
    /// ```
    /// use rwd_graph::generators::paper_example::figure1;
    /// use rwd_walks::WalkIndex;
    ///
    /// let g = figure1();
    /// let idx = WalkIndex::build(&g, 4, 16, 7);
    /// assert_eq!((idx.n(), idx.l(), idx.r()), (8, 4, 16));
    /// assert!(idx.total_postings() <= 8 * 16 * 4); // ≤ nRL
    /// ```
    pub fn build<G: WalkGraph>(g: &G, l: u32, r: usize, seed: u64) -> WalkIndex {
        Self::build_with_threads(g, l, r, seed, 0)
    }

    /// [`WalkIndex::build`] with an explicit worker count (`0` = all cores).
    pub fn build_with_threads<G: WalkGraph>(
        g: &G,
        l: u32,
        r: usize,
        seed: u64,
        threads: usize,
    ) -> WalkIndex {
        assert!(r > 0, "need at least one walk per node");
        Self::build_layer_range(g, l, LayerRange::new(0, r), seed, threads)
    }

    /// Builds only the layers of `range` — the shard-local view of the
    /// monolithic `WalkIndex::build(g, l, r, seed)` for any `r >= range.end()`.
    /// Walk RNG streams are keyed by the absolute layer index, so
    /// `idx.layers == monolith.layers[range.start()..range.end()]` bit for
    /// bit, and [`WalkIndex::refresh`] on the partial index replays exactly
    /// the monolith's walks for those layers.
    pub fn build_layer_range<G: WalkGraph>(
        g: &G,
        l: u32,
        range: LayerRange,
        seed: u64,
        threads: usize,
    ) -> WalkIndex {
        assert!(
            l <= u16::MAX as u32,
            "walk length {l} exceeds u16 hop range"
        );
        let layers = build_layers(g, l, range.len(), range.start(), seed, threads);
        WalkIndex::assemble(g.n(), l, layers, range.start(), seed, threads)
    }

    /// [`WalkIndex::build_layer_range`] under its weighted name, kept
    /// because the end-to-end benchmark (`e2e-bench/`) calls it.
    pub fn build_weighted_layer_range(
        g: &rwd_graph::weighted::WeightedCsrGraph,
        l: u32,
        range: LayerRange,
        seed: u64,
        threads: usize,
    ) -> WalkIndex {
        Self::build_layer_range(g, l, range, seed, threads)
    }

    /// Incrementally maintains the index after edge churn: given the
    /// next-epoch graph and the set of **touched** nodes (nodes whose
    /// adjacency list changed, e.g. from
    /// [`CsrGraph::with_edits`](rwd_graph::CsrGraph::with_edits) or
    /// [`WeightedCsrGraph::with_edits`](rwd_graph::weighted::WeightedCsrGraph::with_edits),
    /// which patches alias tables only for touched rows), re-walks exactly
    /// the `(src, layer)` groups the churn can have changed and replaces
    /// each layer holding one with its patched successor (clones of the
    /// index sharing the old layer keep it). `threads` is the worker count
    /// (`0` = all cores); the maintained index is **bit-identical** to
    /// [`WalkIndex::build`] on the new graph at any worker count.
    ///
    /// Returns the refresh's accounting and its edit script: per resampled
    /// `(src, layer)` group, the inverted postings dropped and produced
    /// (see [`PostingDelta`]). The script is assembled from buffers the
    /// layer surgery materializes anyway, so it costs
    /// `O(postings rewritten)`.
    ///
    /// Why resampling only touched groups is exact: a walk is a pure
    /// function of its counter-based `(seed, src, layer)` RNG stream and of
    /// the adjacency lists of the nodes it steps from, all of which it
    /// visits. A group whose recorded visit set (`src` plus its forward
    /// list) avoids every touched node therefore replays **identically** on
    /// the new graph — its stored postings already are what a from-scratch
    /// build would sample. Conversely any group whose walk *would* change
    /// must step differently somewhere, and the first deviating step is
    /// drawn at a touched node on the old walk — so the affected groups are
    /// exactly `{src touched} ∪ {src ∈ I[i][v] : v touched}`, found via the
    /// inverted lists of the touched nodes in time proportional to their
    /// postings, not to `n`.
    ///
    /// The caller must pass the graph the index's walks now live on: the
    /// index must have been built by [`WalkIndex::build`] (same seed, same
    /// graph type) on a predecessor of `g`, and `touched` must cover every
    /// node whose adjacency differs (indexes from explicit walks cannot be
    /// refreshed — there is no RNG stream to replay). Panics if `g` changed
    /// the node universe.
    ///
    /// Layers fan out over workers; each layer is patched independently by
    /// `patch_layer` (affected-group detection → selective re-walk →
    /// bulk-spliced column rebuild), and each worker accumulates integer
    /// deltas for the per-node aggregates that are applied after the join.
    pub fn refresh<G: WalkGraph>(
        &mut self,
        g: &G,
        touched: &NodeSet,
        threads: usize,
    ) -> (RefreshStats, PostingDelta) {
        let n = self.n;
        assert_eq!(g.n(), n, "refresh requires an unchanged node universe");
        assert_eq!(
            touched.capacity(),
            n,
            "touched-set universe must match the index"
        );
        let r = self.layers.len();
        let mut stats = RefreshStats {
            groups_total: n * r,
            ..RefreshStats::default()
        };
        // Dropping the timer records it, early return included.
        let timer = crate::obs::metrics().refresh_ns.time();
        if touched.is_empty() {
            return (stats, PostingDelta::default());
        }
        let (l, seed, layer_base) = (self.l, self.seed, self.layer_base);

        // Patches a chunk of layers with one reused scratch; returns the
        // chunk's stats, its layer edit scripts (ascending layers), and its
        // staged aggregate deltas.
        type ChunkOut = (RefreshStats, Vec<LayerDelta>, Vec<i64>, Vec<i64>);
        let patch_chunk = |base: usize, layers: &mut [Arc<Layer>]| -> ChunkOut {
            let mut ws = PatchScratch::new(n);
            let mut out = RefreshStats::default();
            let mut deltas = Vec::new();
            for (off, layer) in layers.iter_mut().enumerate() {
                let part = patch_layer(
                    layer,
                    n,
                    l,
                    seed,
                    layer_base + base + off,
                    touched,
                    g,
                    &mut ws,
                    &mut deltas,
                );
                out.groups_resampled += part.groups_resampled;
                out.postings_removed += part.postings_removed;
                out.postings_added += part.postings_added;
            }
            (out, deltas, ws.agg_dcount, ws.agg_dhops)
        };

        let workers = resolve_threads(threads).min(r);
        let mut partials: Vec<ChunkOut> = Vec::with_capacity(workers);
        if workers == 1 {
            partials.push(patch_chunk(0, &mut self.layers));
        } else {
            let chunk = r.div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .layers
                    .chunks_mut(chunk)
                    .enumerate()
                    .map(|(ci, layers)| {
                        let patch_chunk = &patch_chunk;
                        scope.spawn(move || patch_chunk(ci * chunk, layers))
                    })
                    .collect();
                for h in handles {
                    partials.push(h.join().expect("refresh worker panicked"));
                }
            });
        }
        // Chunks are gathered in layer order, so concatenating their edit
        // scripts keeps the delta ascending by absolute layer — the same
        // canonical order a single-threaded refresh emits.
        let mut delta = PostingDelta::default();
        // Any non-empty refresh may edit the aggregates, so promote them to
        // owned up front (a 16 B/node copy at most — negligible next to the
        // column surgery above, and a no-op for an already-owned index).
        let counts = self.posting_counts.make_mut();
        let hop_sums = self.posting_hop_sums.make_mut();
        for (p, deltas, dcount, dhops) in partials {
            stats.groups_resampled += p.groups_resampled;
            stats.postings_removed += p.postings_removed;
            stats.postings_added += p.postings_added;
            delta.layers.extend(deltas);
            // Integer deltas commute, so application order (and hence the
            // worker layout) cannot change the aggregates.
            for (slot, d) in counts.iter_mut().zip(dcount) {
                *slot = (*slot as i64 + d) as u64;
            }
            for (slot, d) in hop_sums.iter_mut().zip(dhops) {
                *slot = (*slot as i64 + d) as u64;
            }
        }
        timer.stop();
        crate::obs::metrics()
            .groups_resampled
            .add(stats.groups_resampled as u64);
        (stats, delta)
    }

    /// Builds an index from explicitly supplied walks: `walks[w]` is the
    /// recorded sequence (including the start, `l + 1` entries) of the
    /// single walk from node `w` — the `R = 1` case used by the paper's
    /// Example 3.1. See [`WalkIndex::from_walk_layers`] for general `R`.
    pub fn from_walks(n: usize, l: u32, walks: &[Vec<NodeId>]) -> WalkIndex {
        Self::from_walk_layers(n, l, std::slice::from_ref(&walks.to_vec()))
    }

    /// Builds an index from explicit walk layers:
    /// `layers[i][w]` = recorded walk `i` from node `w` (`l + 1` entries).
    pub fn from_walk_layers(n: usize, l: u32, layers: &[Vec<Vec<NodeId>>]) -> WalkIndex {
        assert!(!layers.is_empty());
        assert!(
            l <= u16::MAX as u32,
            "walk length {l} exceeds u16 hop range"
        );
        let built = layers
            .iter()
            .map(|layer_walks| {
                assert_eq!(layer_walks.len(), n, "one walk per node required");
                let mut triples: Vec<Triple> = Vec::new();
                let mut visited = vec![u32::MAX; n];
                for (w, walk) in layer_walks.iter().enumerate() {
                    assert_eq!(
                        walk.len(),
                        l as usize + 1,
                        "walk from node {w} must have l + 1 = {} entries",
                        l + 1
                    );
                    assert_eq!(walk[0], NodeId::new(w), "walk must start at its source");
                    visited[w] = w as u32;
                    for (j, &v) in walk.iter().enumerate().skip(1) {
                        if visited[v.index()] != w as u32 {
                            visited[v.index()] = w as u32;
                            triples.push((v.raw(), w as u32, j as u16));
                        }
                    }
                }
                Layer::from_parts(n, std::slice::from_mut(&mut triples))
            })
            .collect();
        WalkIndex::assemble(n, l, built, 0, 0, 0)
    }

    /// Node-universe size.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Walk-length bound `L`.
    #[inline]
    pub fn l(&self) -> u32 {
        self.l
    }

    /// Number of walk layers `R`.
    #[inline]
    pub fn r(&self) -> usize {
        self.layers.len()
    }

    /// Seed the index was built with (0 for explicit-walk indexes).
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Absolute index of the first stored layer — `0` for a monolithic
    /// index, `range.start()` for a shard built by
    /// [`WalkIndex::build_layer_range`]. Layer arguments to
    /// [`WalkIndex::postings`] / [`WalkIndex::forward`] stay *local*
    /// (`0..r()`); only RNG streams and refresh replays use the absolute
    /// index.
    #[inline]
    pub fn layer_base(&self) -> usize {
        self.layer_base
    }

    /// The absolute layer range this index stores:
    /// `[layer_base, layer_base + r)`.
    #[inline]
    pub fn layer_range(&self) -> LayerRange {
        LayerRange::new(self.layer_base, self.layer_base + self.layers.len())
    }

    /// The inverted list `I[layer][v]`: all sources whose `layer`-th walk
    /// visits `v`, each with its first-visit hop — a zero-copy SoA view.
    #[inline]
    pub fn postings(&self, layer: usize, v: NodeId) -> PostingsRef<'_> {
        self.layers[layer].postings(v)
    }

    /// The forward list of `src` in `layer`: the nodes that walk `layer`
    /// from `src` first-visits, with the visit hop — the exact transpose of
    /// [`WalkIndex::postings`] (`v ∈ forward(i, src) ⟺ src ∈ I[i][v]`, same
    /// hop). In the returned view, `ids()` are the *visited nodes* and
    /// `weights()` the first-visit hops, in ascending hop order (walk-visit
    /// order; ties by ascending id) — so a consumer that only cares about
    /// hops below a threshold can stop at the first hop past it.
    ///
    /// This is the view that makes incremental greedy output-sensitive:
    /// when a selection lowers `D[layer][src]`, the candidates whose
    /// Algorithm-4 gain changed are exactly this list.
    #[inline]
    pub fn forward(&self, layer: usize, src: NodeId) -> PostingsRef<'_> {
        self.layers[layer].forward(src)
    }

    /// Total number of stored postings (≤ nRL), counting each walk visit
    /// once (the forward view mirrors the same entries and is not counted).
    pub fn total_postings(&self) -> usize {
        self.layers.iter().map(|l| l.ids.len()).sum()
    }

    /// `Σ_i |I[i][v]|` — how many inverted postings `v` owns across all
    /// layers, precomputed at construction. With `D1 ≡ L` (the `S = ∅`
    /// state) this and [`WalkIndex::posting_hop_sum`] give every
    /// candidate's initial gain in closed form without touching a list.
    #[inline]
    pub fn posting_count(&self, v: NodeId) -> u64 {
        self.posting_counts[v.index()]
    }

    /// `Σ_i Σ_{(src,w) ∈ I[i][v]} w` — the total hop weight of `v`'s
    /// inverted postings across all layers, precomputed at construction.
    #[inline]
    pub fn posting_hop_sum(&self, v: NodeId) -> u64 {
        self.posting_hop_sums[v.index()]
    }

    /// Total bytes of index data: per layer, the inverted SoA posting
    /// columns (4-byte ids + 2-byte hop weights) **and** the forward-view
    /// columns of the same shape — 12 bytes per posting in total — plus
    /// one 4-byte CSR offset per node per view and the per-node aggregate
    /// tables. Always equals [`WalkIndex::heap_bytes`] `+`
    /// [`WalkIndex::mapped_bytes`]; for a fully owned index it is all
    /// heap, for a freshly mapped one almost all file-backed.
    pub fn memory_bytes(&self) -> usize {
        self.heap_bytes() + self.mapped_bytes()
    }

    /// Bytes of index data owned on the heap (the resident-set cost the
    /// process pays unconditionally). A freshly mapped index owns nothing;
    /// every refresh that touches a layer moves that layer's share here.
    pub fn heap_bytes(&self) -> usize {
        self.layers.iter().map(|la| la.heap_bytes()).sum::<usize>()
            + self.posting_counts.heap_bytes()
            + self.posting_hop_sums.heap_bytes()
    }

    /// Bytes of index data borrowed zero-copy from a mapped file (paged in
    /// on demand and evictable under memory pressure — the RSS the kernel
    /// can reclaim). Zero for an owned index.
    pub fn mapped_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|la| la.mapped_bytes())
            .sum::<usize>()
            + self.posting_counts.mapped_bytes()
            + self.posting_hop_sums.mapped_bytes()
    }

    /// How many of this index's layers still borrow their columns from a
    /// mapped file (diagnostics for the lazy-promotion path).
    pub fn mapped_layers(&self) -> usize {
        self.layers.iter().filter(|la| la.is_mapped()).count()
    }

    /// Replays the index against an arbitrary target set: returns per-layer
    /// first-hit times `D[i][u] = min(L, min_{s∈S} firsthit_i(u → s))`
    /// averaged over layers — the index-based estimate of `h^L_uS`.
    ///
    /// This is the batch (non-incremental) form of what Algorithm 5
    /// maintains; `rwd-core` uses the incremental form inside the greedy
    /// loop and the tests assert the two agree. Runs on all cores; see
    /// [`WalkIndex::estimate_hit_times_with_threads`].
    pub fn estimate_hit_times(&self, set: &NodeSet) -> Vec<f64> {
        self.estimate_hit_times_with_threads(set, 0)
    }

    /// [`WalkIndex::estimate_hit_times`] with an explicit worker count
    /// (`0` = all cores). Layers fan out over workers, each reusing one
    /// `D`-scratch buffer across its layers; per-layer sums are exact
    /// integers reduced in layer order, so the result is bit-identical at
    /// any worker count. Instances below the shared work gate run serially.
    pub fn estimate_hit_times_with_threads(&self, set: &NodeSet, threads: usize) -> Vec<f64> {
        self.replay_layers(threads, |layer, d| {
            d.fill(self.l);
            for s in set.iter() {
                d[s.index()] = 0;
                let pr = layer.postings(s);
                for (&id, &w) in pr.ids.iter().zip(pr.weights) {
                    let slot = &mut d[id as usize];
                    if (w as u32) < *slot {
                        *slot = w as u32;
                    }
                }
            }
        })
    }

    /// Index-based estimate of the hit probability `p^L_uS`: the fraction of
    /// layers in which `u`'s walk reaches `S` (members of `S` count 1).
    /// Runs on all cores; see
    /// [`WalkIndex::estimate_hit_probs_with_threads`].
    pub fn estimate_hit_probs(&self, set: &NodeSet) -> Vec<f64> {
        self.estimate_hit_probs_with_threads(set, 0)
    }

    /// [`WalkIndex::estimate_hit_probs`] with an explicit worker count
    /// (`0` = all cores); same parallel layout and determinism guarantees
    /// as [`WalkIndex::estimate_hit_times_with_threads`].
    pub fn estimate_hit_probs_with_threads(&self, set: &NodeSet, threads: usize) -> Vec<f64> {
        self.replay_layers(threads, |layer, d| {
            d.fill(0);
            for s in set.iter() {
                d[s.index()] = 1;
                for &id in layer.postings(s).ids {
                    d[id as usize] = 1;
                }
            }
        })
    }

    /// Shared layer-replay driver: `fill` recomputes one layer's per-node
    /// integer table into the reused scratch `d`, and the driver averages
    /// those tables over layers — serially below the work gate, otherwise
    /// parallel over layer chunks with one scratch buffer per worker and a
    /// chunk-ordered reduction. All summed values are small integers, so
    /// the result is bit-identical for any worker count.
    fn replay_layers(&self, threads: usize, fill: impl Fn(&Layer, &mut [u32]) + Sync) -> Vec<f64> {
        let r = self.layers.len();
        let work = r * self.n;
        let workers = if work < crate::parallel::MIN_PARALLEL_SWEEP_WORK {
            1
        } else {
            resolve_threads(threads).min(r)
        };
        let accumulate = |layers: &[Arc<Layer>]| {
            let mut acc = vec![0.0f64; self.n];
            let mut d = vec![0u32; self.n];
            for layer in layers {
                fill(layer, &mut d);
                for (a, &v) in acc.iter_mut().zip(d.iter()) {
                    *a += v as f64;
                }
            }
            acc
        };
        let mut acc = if workers == 1 {
            accumulate(&self.layers)
        } else {
            let chunk = r.div_ceil(workers);
            let mut partials: Vec<Vec<f64>> = Vec::with_capacity(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .layers
                    .chunks(chunk)
                    .map(|layers| scope.spawn(|| accumulate(layers)))
                    .collect();
                for h in handles {
                    partials.push(h.join().expect("estimate worker panicked"));
                }
            });
            let mut parts = partials.into_iter();
            let mut acc = parts.next().expect("at least one worker");
            for p in parts {
                for (a, b) in acc.iter_mut().zip(p) {
                    *a += b;
                }
            }
            acc
        };
        let r = r as f64;
        acc.iter_mut().for_each(|a| *a /= r);
        acc
    }

    /// Persists the index to disk (the paper's "sample materialization"
    /// made durable) in the RWDIDX4 layout, the one format this build
    /// reads. A paper-scale index builds in seconds but is reused across
    /// many `k`/`λ` sweeps — saving it makes experiment suites restartable.
    ///
    /// Layout: magic, a fixed header (`n`, `L`, layer count, seed, layer
    /// base, declared section alignment), a per-layer entry-count table,
    /// then per layer the six column sections (each zero-padded to the
    /// declared 8-byte alignment), the two per-node aggregate sections, and
    /// a 4-byte CRC-32 trailer over every preceding byte, so bit rot
    /// anywhere in the file is detected at open. Each section is the
    /// little-endian image of its column — a little-endian host writes its
    /// memory as is, any other host byte-swaps — so the file is the same on
    /// every host. Storing both CSR views and the aggregates lets
    /// [`WalkIndex::open_mapped`] serve the file without computing
    /// anything; a layer-range shard records its absolute layer base, so a
    /// reopened shard refreshes with the right RNG streams.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::Write;
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        let mut crc = crate::crc::Crc32::new();
        let mut header = Vec::with_capacity(V4_FIXED_HEADER + self.layers.len() * 8);
        header.extend_from_slice(MAGIC_V4);
        for v in [
            self.n as u64,
            self.l as u64,
            self.layers.len() as u64,
            self.seed,
            self.layer_base as u64,
            V4_ALIGN,
        ] {
            header.extend_from_slice(&v.to_le_bytes());
        }
        for layer in &self.layers {
            header.extend_from_slice(&(layer.ids.len() as u64).to_le_bytes());
        }
        crc.update(&header);
        w.write_all(&header)?;
        for layer in &self.layers {
            write_section(&mut w, &mut crc, &layer.offsets)?;
            write_section(&mut w, &mut crc, &layer.ids)?;
            write_section(&mut w, &mut crc, &layer.weights)?;
            write_section(&mut w, &mut crc, &layer.fwd_offsets)?;
            write_section(&mut w, &mut crc, &layer.fwd_ids)?;
            write_section(&mut w, &mut crc, &layer.fwd_weights)?;
        }
        write_section(&mut w, &mut crc, &self.posting_counts)?;
        write_section(&mut w, &mut crc, &self.posting_hop_sums)?;
        w.write_all(&crc.finish().to_le_bytes())?;
        w.flush()
    }

    /// Loads an index written by [`WalkIndex::save`], deserializing every
    /// column to the heap. Only the inverted sections are read: every
    /// offset, id and hop is validated as it decodes, and the forward view
    /// and aggregates are re-derived canonically rather than trusted, so
    /// the result is the validating reference [`WalkIndex::open_mapped`]
    /// is tested against — bitwise equal to it on the same file.
    ///
    /// Files in the retired `RWDIDX1`, `RWDIDX2` and `RWDIDX3` layouts are
    /// rejected by name; rebuild and re-save such indexes with this
    /// version.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<WalkIndex> {
        Self::load_with_stats(path, 0).map(|(idx, _)| idx)
    }

    /// [`WalkIndex::load`] with an explicit worker budget for the parallel
    /// layer parse and aggregate sweep: `0` means "all cores", anything
    /// else is taken literally. The loaded index is bit-identical either
    /// way — callers that pin an engine to a thread budget (benchmarks,
    /// per-engine quotas) use this so recovery honours the same budget.
    pub fn load_with_threads(
        path: impl AsRef<std::path::Path>,
        threads: usize,
    ) -> std::io::Result<WalkIndex> {
        Self::load_with_stats(path, threads).map(|(idx, _)| idx)
    }

    /// [`WalkIndex::load_with_threads`] that additionally reports the
    /// load's transient-memory accounting (see [`LoadStats`]) — the
    /// evidence behind the bounded-peak claim: a deserializing open never
    /// holds the whole file *and* the parsed index at once.
    ///
    /// The file is never pulled into memory whole: the CRC pass streams
    /// fixed-size chunks, and the parallel parse positioned-reads one
    /// layer's inverted sections at a time into a per-worker reused
    /// buffer. Every count in the file is untrusted: sizes are checked
    /// against the actual file length *before* any payload read, so a
    /// corrupt or crafted file yields `InvalidData`, never a panic or an
    /// absurd allocation.
    pub fn load_with_stats(
        path: impl AsRef<std::path::Path>,
        threads: usize,
    ) -> std::io::Result<(WalkIndex, LoadStats)> {
        let file = std::fs::File::open(path)?;
        let layout = read_layout(file.metadata()?.len(), |buf, off| pread(&file, buf, off))?;
        let crc_buf = verify_trailer(&file, layout.content_len)?;
        let (n, l) = (layout.n, layout.l);
        // Read each layer's inverted sections into one contiguous
        // [offsets | ids | weights] buffer and decode it.
        let read_parse = |buf: &mut Vec<u8>, spec: &V4LayerSpec| -> std::io::Result<Layer> {
            let ob = (n + 1) * 4;
            let ib = spec.entries * 4;
            let wb = spec.entries * 2;
            buf.clear();
            buf.resize(ob + ib + wb, 0);
            pread(&file, &mut buf[..ob], spec.offsets as u64)?;
            pread(&file, &mut buf[ob..ob + ib], spec.ids as u64)?;
            pread(&file, &mut buf[ob + ib..], spec.weights as u64)?;
            parse_layer_block(n, l, spec.entries, buf)
        };
        let specs = &layout.layers;
        let total_postings: usize = specs.iter().map(|s| s.entries).sum();
        let workers = if n + total_postings < crate::parallel::MIN_PARALLEL_SWEEP_WORK {
            1
        } else {
            resolve_threads(threads).min(specs.len())
        };
        // Off unix, positioned reads fall back to a shared-cursor seek.
        let workers = if cfg!(unix) { workers } else { 1 };
        // One worker's pass over its layer chunk: a reused read buffer, and
        // the chunk's transient high-water mark (section bytes + the 12 B
        // per posting the forward transposition stages). Results land in
        // per-layer slots, so layer order and the first failing layer's
        // error are scheduling-free.
        let run_chunk =
            |b_chunk: &[V4LayerSpec], s_chunk: &mut [Option<std::io::Result<Layer>>]| -> usize {
                let mut buf: Vec<u8> = Vec::new();
                let mut peak = 0usize;
                for (slot, spec) in s_chunk.iter_mut().zip(b_chunk) {
                    peak = peak.max((n + 1) * 4 + 18 * spec.entries);
                    *slot = Some(read_parse(&mut buf, spec));
                }
                peak
            };
        let mut slots: Vec<Option<std::io::Result<Layer>>> = Vec::new();
        slots.resize_with(specs.len(), || None);
        let parse_peak = if workers <= 1 {
            run_chunk(specs, &mut slots)
        } else {
            let chunk = specs.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = specs
                    .chunks(chunk)
                    .zip(slots.chunks_mut(chunk))
                    .map(|(b_chunk, s_chunk)| {
                        let run_chunk = &run_chunk;
                        scope.spawn(move || run_chunk(b_chunk, s_chunk))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("load worker panicked"))
                    .sum()
            })
        };
        let mut layers = Vec::with_capacity(specs.len());
        for slot in slots {
            layers.push(slot.expect("every layer has a parse slot")?);
        }
        let stats = LoadStats {
            transient_peak_bytes: crc_buf.max(parse_peak),
        };
        Ok((
            WalkIndex::assemble(n, l, layers, layout.layer_base, layout.seed, threads),
            stats,
        ))
    }

    /// Opens an index file zero-copy: the file is mapped once
    /// (`mmap(2)`), the CRC trailer and section layout are validated once,
    /// and every posting column becomes a borrowed window into the map —
    /// no per-element parse, no transposition, no allocation proportional
    /// to postings. Pages fault in on first touch and remain evictable, so
    /// a 100M-posting index answers its first point query at page-cache
    /// speed. The opened index is **bitwise equal** (by value) to
    /// [`WalkIndex::load`] of the same file; the first refresh that
    /// touches a layer promotes exactly that layer's columns to the heap
    /// (copy-on-write at layer grain).
    ///
    /// Requires a little-endian unix host (the on-disk columns are the LE
    /// in-memory image); elsewhere use [`WalkIndex::load`].
    pub fn open_mapped(path: impl AsRef<std::path::Path>) -> std::io::Result<WalkIndex> {
        if cfg!(not(target_endian = "little")) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "zero-copy index opens require a little-endian host \
                 (RWDIDX4 stores little-endian columns); use load() instead",
            ));
        }
        let file = std::fs::File::open(path)?;
        let region = Arc::new(MmapRegion::map(&file)?);
        let bytes = region.as_bytes();
        let layout = read_layout(bytes.len() as u64, |buf, off| {
            let at = usize::try_from(off).map_err(|_| truncated())?;
            let src = at
                .checked_add(buf.len())
                .and_then(|end| bytes.get(at..end))
                .ok_or_else(truncated)?;
            buf.copy_from_slice(src);
            Ok(())
        })?;
        // The one-and-only content scan: a chunked CRC sweep across all
        // cores, folded exactly with crc32_combine — the checksum is the
        // only O(file) work on this path, so it is the open time. After
        // this, bulk payloads are trusted; only the structural offsets
        // columns (which bound every later slice) are validated further.
        let content = layout.content_len as usize;
        let trailer = u32::from_le_bytes(bytes[content..content + 4].try_into().unwrap());
        let cores = std::thread::available_parallelism().map_or(1, |t| t.get());
        if trailer != crate::crc::crc32_parallel(&bytes[..content], cores) {
            return Err(bad_file(
                "corrupt walk-index file (content checksum mismatch)",
            ));
        }
        let n = layout.n;
        let mut layers = Vec::with_capacity(layout.layers.len());
        for spec in &layout.layers {
            let offsets: Column<u32> = Column::mapped(region.clone(), spec.offsets, n + 1)?;
            validate_mapped_offsets(&offsets, spec.entries)?;
            let fwd_offsets: Column<u32> = Column::mapped(region.clone(), spec.fwd_offsets, n + 1)?;
            validate_mapped_offsets(&fwd_offsets, spec.entries)?;
            layers.push(Arc::new(Layer {
                offsets,
                ids: Column::mapped(region.clone(), spec.ids, spec.entries)?,
                weights: Column::mapped(region.clone(), spec.weights, spec.entries)?,
                fwd_offsets,
                fwd_ids: Column::mapped(region.clone(), spec.fwd_ids, spec.entries)?,
                fwd_weights: Column::mapped(region.clone(), spec.fwd_weights, spec.entries)?,
            }));
        }
        // The stored aggregates are exactly what assemble() would compute
        // (save wrote them from a canonical index), so map them too.
        Ok(WalkIndex {
            n,
            l: layout.l,
            layers,
            seed: layout.seed,
            layer_base: layout.layer_base,
            posting_counts: Column::mapped(region.clone(), layout.counts, n)?,
            posting_hop_sums: Column::mapped(region.clone(), layout.hop_sums, n)?,
        })
    }
}

const MAGIC_V4: &[u8; 8] = b"RWDIDX4\0";

/// Section alignment RWDIDX4 declares in its header: every section start
/// is a multiple of 8 within the file, and `mmap(2)` bases are
/// page-aligned, so mapped element pointers inherit the alignment of the
/// widest stored scalar (`u64`).
const V4_ALIGN: u64 = 8;

/// RWDIDX4 fixed header: magic + 6 `u64` fields (`n`, `l`, layer count,
/// seed, layer base, section alignment). The per-layer entry table
/// follows immediately.
const V4_FIXED_HEADER: usize = 8 + 6 * 8;

/// Transient-memory accounting of one deserializing load
/// ([`WalkIndex::load_with_stats`]).
///
/// The load path never materializes the whole file: the CRC pass streams
/// 64 KiB chunks and each parse worker positioned-reads one layer's
/// inverted sections at a time into a reused buffer.
/// [`LoadStats::transient_peak_bytes`] is the high-water mark of those
/// short-lived buffers — raw section bytes plus the 12-byte-per-posting
/// forward-transposition staging — maximized over time per worker and
/// summed across workers (workers peak independently, so the sum bounds
/// any instant). Peak load memory is therefore bounded by `final index
/// size + transient_peak_bytes`; the storage suite asserts the transient
/// share stays ≤ 25% of [`WalkIndex::memory_bytes`] (peak ≤ 1.25× the
/// final index), where a whole-file buffer held across the parse would
/// peak near 2×.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// High-water mark (bytes) of buffers that live only during the load.
    pub transient_peak_bytes: usize,
}

fn bad_file(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn truncated() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "walk-index file is truncated",
    )
}

/// Positioned read (`pread(2)`): fills `buf` from absolute offset `off`
/// without touching the shared cursor, so parse workers can read one open
/// file concurrently.
fn pread(file: &std::fs::File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, off)
    }
    #[cfg(not(unix))]
    {
        // No positioned-read API: clone the handle and seek. Clones share
        // the cursor, so off-unix loads keep a single reader.
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file.try_clone()?;
        f.seek(SeekFrom::Start(off))?;
        f.read_exact(buf)
    }
}

/// Streams the checksummed content region in fixed chunks, compares the
/// CRC-32 trailer, and returns the chunk-buffer size it used (for the
/// transient accounting). The caller has already validated that
/// `content_len + 4` bytes exist.
fn verify_trailer(file: &std::fs::File, content_len: u64) -> std::io::Result<usize> {
    const CRC_CHUNK: u64 = 64 << 10;
    let cap = content_len.clamp(1, CRC_CHUNK) as usize;
    let mut buf = vec![0u8; cap];
    let mut crc = crate::crc::Crc32::new();
    let mut pos = 0u64;
    while pos < content_len {
        let take = cap.min((content_len - pos) as usize);
        pread(file, &mut buf[..take], pos)?;
        crc.update(&buf[..take]);
        pos += take as u64;
    }
    let mut t = [0u8; 4];
    pread(file, &mut t, content_len)?;
    if u32::from_le_bytes(t) != crc.finish() {
        return Err(bad_file(
            "corrupt walk-index file (content checksum mismatch)",
        ));
    }
    Ok(cap)
}

/// The cross-field header validation: the counts constrain each other and
/// the posting encoding, so values no builder can produce are rejected
/// here instead of yielding a nonsense index.
/// * posting ids are u32, so an index over more than `u32::MAX` nodes is
///   unrepresentable (every id bound check would pass vacuously);
/// * walks have `1 ≤ hop ≤ l ≤ u16::MAX` (the builder asserts it and hops
///   are stored as u16), so `l = 0` admits no posting at all;
/// * every constructor requires `r ≥ 1` — an index with zero layers would
///   make each estimator divide by zero.
fn check_header_fields(n64: u64, l64: u64, layer_count64: u64, base64: u64) -> std::io::Result<()> {
    if n64 > u32::MAX as u64 {
        return Err(bad_file(
            "corrupt walk-index file (node count exceeds the u32 posting-id range)",
        ));
    }
    if l64 == 0 || l64 > u16::MAX as u64 {
        return Err(bad_file(
            "corrupt walk-index file (walk length outside 1..=65535)",
        ));
    }
    if layer_count64 == 0 {
        return Err(bad_file("corrupt walk-index file (zero walk layers)"));
    }
    if base64.saturating_add(layer_count64) > u32::MAX as u64 {
        return Err(bad_file(
            "corrupt walk-index file (layer base outside the representable range)",
        ));
    }
    Ok(())
}

/// Parses one layer's `[offsets | ids | weights]` inverted sections,
/// read back to back into `block`, into a [`Layer`], validating structure
/// as it decodes.
fn parse_layer_block(n: usize, l: u32, entries: usize, block: &[u8]) -> std::io::Result<Layer> {
    let (off_bytes, rest) = block.split_at((n + 1) * 4);
    let (id_bytes, weight_bytes) = rest.split_at(entries * 4);
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut monotone = true;
    let mut prev = 0u32;
    for c in off_bytes.chunks_exact(4) {
        let v = u32::from_le_bytes(c.try_into().unwrap());
        monotone &= v >= prev;
        prev = v;
        offsets.push(v);
    }
    if !monotone || offsets.first() != Some(&0) || *offsets.last().unwrap_or(&0) as usize != entries
    {
        return Err(bad_file(
            "corrupt walk-index file (offset/posting mismatch)",
        ));
    }
    let mut ids: Vec<u32> = Vec::with_capacity(entries);
    let mut in_range = true;
    for c in id_bytes.chunks_exact(4) {
        let id = u32::from_le_bytes(c.try_into().unwrap());
        in_range &= (id as usize) < n;
        ids.push(id);
    }
    if !in_range {
        return Err(bad_file(
            "corrupt walk-index file (posting id out of range)",
        ));
    }
    let mut weights: Vec<u16> = Vec::with_capacity(entries);
    let mut hops_ok = true;
    for c in weight_bytes.chunks_exact(2) {
        let w = u16::from_le_bytes(c.try_into().unwrap());
        hops_ok &= (w as u32).wrapping_sub(1) < l;
        weights.push(w);
    }
    if !hops_ok {
        return Err(bad_file(
            "corrupt walk-index file (hop weight outside 1..=L)",
        ));
    }
    Ok(Layer::from_inverted(n, offsets, ids, weights))
}

/// Absolute file positions of one layer's six sections in an RWDIDX4 file.
struct V4LayerSpec {
    entries: usize,
    offsets: usize,
    ids: usize,
    weights: usize,
    fwd_offsets: usize,
    fwd_ids: usize,
    fwd_weights: usize,
}

/// Everything the RWDIDX4 fixed header + entry table determine: validated
/// field values and the absolute position of every section.
struct V4Layout {
    n: usize,
    l: u32,
    seed: u64,
    layer_base: usize,
    layers: Vec<V4LayerSpec>,
    counts: usize,
    hop_sums: usize,
    /// Checksummed bytes (everything before the 4-byte CRC trailer).
    content_len: u64,
}

/// The one reader of an index file's header, shared by
/// [`WalkIndex::load`], [`WalkIndex::open_mapped`] and
/// [`inspect_index_file`], so all three agree on the format byte for
/// byte. It checks the magic (naming the retired layouts), reads the fixed
/// header and the entry table through `read_at(buf, offset)` — a
/// positioned read of the file or a copy out of its map — and walks the
/// section structure. Every size is validated against the actual file
/// length with checked arithmetic, so a crafted header yields
/// `InvalidData`, never overflow or an absurd allocation, and the tiling
/// must account for every content byte.
fn read_layout(
    file_len: u64,
    read_at: impl Fn(&mut [u8], u64) -> std::io::Result<()>,
) -> std::io::Result<V4Layout> {
    let mut header = [0u8; V4_FIXED_HEADER];
    if file_len < 8 {
        return Err(bad_file("not a walk-index file (bad magic)"));
    }
    read_at(&mut header[..8], 0)?;
    match &header[..8] {
        m if m == MAGIC_V4 => {}
        b"RWDIDX1\0" | b"RWDIDX2\0" | b"RWDIDX3\0" => {
            return Err(bad_file(&format!(
                "walk-index file uses the retired {} layout; this build reads only \
                 RWDIDX4 — rebuild the index and save it again",
                String::from_utf8_lossy(&header[..7])
            )));
        }
        _ => return Err(bad_file("not a walk-index file (bad magic)")),
    }
    if file_len < V4_FIXED_HEADER as u64 {
        return Err(truncated());
    }
    read_at(&mut header[8..], 8)?;
    let f: Vec<u64> = le_u64s(&header[8..]).collect();
    let (n64, l64, layer_count64, seed, base64, align) = (f[0], f[1], f[2], f[3], f[4], f[5]);
    // Bound the entry-table allocation by the actual file size before
    // trusting the header's layer count.
    if layer_count64.saturating_mul(8) > file_len {
        return Err(bad_file(
            "corrupt walk-index file (header exceeds file size)",
        ));
    }
    check_header_fields(n64, l64, layer_count64, base64)?;
    if align != V4_ALIGN {
        return Err(bad_file(
            "corrupt walk-index file (unsupported section alignment; this build reads 8)",
        ));
    }
    let mut table = vec![0u8; layer_count64 as usize * 8];
    let mut cur = V4_FIXED_HEADER as u64 + table.len() as u64;
    if file_len < cur {
        return Err(truncated());
    }
    read_at(&mut table, V4_FIXED_HEADER as u64)?;
    let pad8 = |x: u64| x.div_ceil(8) * 8;
    let overflow = || bad_file("corrupt walk-index file (layer exceeds file size)");
    let off_bytes = pad8((n64 + 1) * 4);
    let mut layers = Vec::with_capacity(layer_count64 as usize);
    for e in le_u64s(&table) {
        if e > u32::MAX as u64 {
            return Err(bad_file(
                "corrupt walk-index file (layer posting count overflows u32 offsets)",
            ));
        }
        let ids_bytes = pad8(e * 4);
        let weight_bytes = pad8(e * 2);
        let mut section = |len: u64| -> std::io::Result<usize> {
            let at = cur;
            cur = cur.checked_add(len).ok_or_else(overflow)?;
            if cur > file_len {
                return Err(overflow());
            }
            Ok(at as usize)
        };
        layers.push(V4LayerSpec {
            entries: e as usize,
            offsets: section(off_bytes)?,
            ids: section(ids_bytes)?,
            weights: section(weight_bytes)?,
            fwd_offsets: section(off_bytes)?,
            fwd_ids: section(ids_bytes)?,
            fwd_weights: section(weight_bytes)?,
        });
    }
    let agg_bytes = pad8(n64 * 8);
    let counts = cur as usize;
    cur = cur.checked_add(agg_bytes).ok_or_else(overflow)?;
    let hop_sums = cur as usize;
    cur = cur.checked_add(agg_bytes).ok_or_else(overflow)?;
    if cur.checked_add(4) != Some(file_len) {
        return Err(bad_file(
            "corrupt walk-index file (size mismatch before checksum trailer)",
        ));
    }
    Ok(V4Layout {
        n: n64 as usize,
        l: l64 as u32,
        seed,
        layer_base: base64 as usize,
        layers,
        counts,
        hop_sums,
        content_len: cur,
    })
}

/// The little-endian `u64`s packed in `bytes` (a whole number of them).
fn le_u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
}

/// Structural validation a mapped open performs on each CSR offsets
/// column. The offsets bound every later postings slice, so they are
/// checked eagerly (one pass over `n + 1` values per view); the bulk
/// id/weight payloads are trusted under the CRC trailer — corruption that
/// survives a CRC match can only produce wrong answers or a clean
/// bounds-check panic, never out-of-bounds reads of the map.
fn validate_mapped_offsets(offsets: &[u32], entries: usize) -> std::io::Result<()> {
    let mut monotone = offsets.first() == Some(&0);
    let mut prev = 0u32;
    for &v in offsets {
        monotone &= v >= prev;
        prev = v;
    }
    if !monotone || offsets.last().map(|&e| e as usize) != Some(entries) {
        return Err(bad_file(
            "corrupt walk-index file (offset/posting mismatch)",
        ));
    }
    Ok(())
}

/// What [`inspect_index_file`] reports: the facts the header and section
/// structure encode, plus whether the CRC trailer matches — all without
/// constructing a [`WalkIndex`].
#[derive(Clone, Debug)]
pub struct IndexFileInfo {
    /// On-disk format version: always 4 (RWDIDX4, the one format this
    /// build reads).
    pub version: u32,
    /// Node-universe size `n`.
    pub n: u64,
    /// Walk-length bound `L`.
    pub l: u64,
    /// Number of layers the file stores (its `R`).
    pub layer_count: u64,
    /// Absolute index of the first stored layer (0 = monolithic).
    pub layer_base: u64,
    /// Build seed.
    pub seed: u64,
    /// Total inverted postings across the stored layers.
    pub total_postings: u64,
    /// Header-declared section alignment in bytes.
    pub section_align: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Whether the CRC-32 content trailer matches.
    pub crc_ok: bool,
}

/// Reads an index file's header and section structure — dimensions,
/// layer range, posting count, alignment — and verifies the CRC trailer,
/// without constructing an index: no column parse, no transposition,
/// `O(R)` memory and one streamed pass of I/O. Structural corruption
/// (impossible sizes, bad tiling, a retired or foreign magic) errors out;
/// a CRC mismatch is *reported* (`crc_ok: false`) so damaged files can
/// still be triaged.
pub fn inspect_index_file(path: impl AsRef<std::path::Path>) -> std::io::Result<IndexFileInfo> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let layout = read_layout(file_len, |buf, off| pread(&file, buf, off))?;
    Ok(IndexFileInfo {
        version: 4,
        n: layout.n as u64,
        l: layout.l as u64,
        layer_count: layout.layers.len() as u64,
        layer_base: layout.layer_base as u64,
        seed: layout.seed,
        total_postings: layout.layers.iter().map(|s| s.entries as u64).sum(),
        section_align: V4_ALIGN,
        file_bytes: file_len,
        crc_ok: verify_trailer(&file, layout.content_len).is_ok(),
    })
}

/// Writes one RWDIDX4 section: the column's little-endian image,
/// zero-padded to the declared 8-byte alignment, folded into the CRC.
fn write_section<W: std::io::Write, T: Pod>(
    w: &mut W,
    crc: &mut crate::crc::Crc32,
    col: &[T],
) -> std::io::Result<()> {
    let bytes = le_bytes(col);
    let pad = &[0u8; 8][..(8 - bytes.len() % 8) % 8];
    for part in [&bytes[..], pad] {
        crc.update(part);
        w.write_all(part)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::record_walk;
    use rwd_graph::generators::paper_example;

    fn figure1_index() -> WalkIndex {
        WalkIndex::build(&paper_example::figure1(), 2, 1, 42)
    }

    #[test]
    fn postings_reference_real_first_visits() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 4, 3, 7);
        // Recreate each walk with the same stream and check the postings of
        // every visited node agree.
        for layer in 0..idx.r() {
            for w in g.nodes() {
                let mut rng = WalkRng::for_stream(7, w.index() as u64, layer as u64);
                let mut buf = Vec::new();
                record_walk(&g, w, 4, &mut rng, &mut buf);
                // First-visit hops from the recorded walk.
                let mut first = std::collections::HashMap::new();
                for (j, &v) in buf.iter().enumerate().skip(1) {
                    if v != w {
                        first.entry(v).or_insert(j as u32);
                    }
                }
                for (&v, &j) in &first {
                    let hit = idx
                        .postings(layer, v)
                        .iter()
                        .find(|p| p.id == w)
                        .unwrap_or_else(|| panic!("missing posting {w}→{v}"));
                    assert_eq!(hit.weight, j);
                }
                // And no spurious postings for this source.
                for v in g.nodes() {
                    let has = idx.postings(layer, v).iter().any(|p| p.id == w);
                    assert_eq!(has, first.contains_key(&v), "{w} vs {v}");
                }
            }
        }
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let g = paper_example::figure1();
        let a = WalkIndex::build_with_threads(&g, 3, 8, 5, 1);
        let b = WalkIndex::build_with_threads(&g, 3, 8, 5, 4);
        assert_eq!(a.total_postings(), b.total_postings());
        for layer in 0..8 {
            for v in g.nodes() {
                assert_eq!(a.postings(layer, v), b.postings(layer, v));
            }
        }
    }

    #[test]
    fn from_walks_matches_example_3_1_table_1() {
        // The fixed walks of Example 3.1 (paper labels v1..v8 = ids 0..7).
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
        let idx = WalkIndex::from_walks(8, 2, &walks);

        let lists: Vec<Vec<(usize, u32)>> = (0..8)
            .map(|owner| {
                idx.postings(0, NodeId::new(owner))
                    .iter()
                    .map(|p| (p.id.index() + 1, p.weight)) // back to paper labels
                    .collect()
            })
            .collect();
        // Table 1 of the paper:
        assert_eq!(lists[0], vec![]); // v1
        assert_eq!(lists[1], vec![(1, 1), (3, 1), (5, 1)]); // v2
        assert_eq!(lists[2], vec![(1, 2), (2, 1)]); // v3
        assert_eq!(lists[3], vec![(8, 2)]); // v4
        assert_eq!(lists[4], vec![(2, 2), (3, 2), (4, 2), (6, 2), (7, 1)]); // v5
        assert_eq!(lists[5], vec![(5, 2)]); // v6
        assert_eq!(lists[6], vec![(4, 1), (6, 1), (8, 1)]); // v7
        assert_eq!(lists[7], vec![]); // v8
    }

    #[test]
    fn repeated_nodes_indexed_once() {
        // Walk (v7, v5, v7): the second v7 must not be indexed (it is the
        // source) and v5 gets weight 1 — already covered by the Table 1
        // test; here check a self-revisit of a non-source node.
        let walks = vec![
            vec![NodeId(0), NodeId(1), NodeId(0), NodeId(1)], // 0-1-0-1
            vec![NodeId(1), NodeId(0), NodeId(1), NodeId(0)],
        ];
        let idx = WalkIndex::from_walks(2, 3, &walks);
        // Walk from 0 visits 1 first at hop 1 (hop 3 revisit dropped).
        assert_eq!(
            idx.postings(0, NodeId(1)).to_vec(),
            vec![Posting {
                id: NodeId(0),
                weight: 1
            }]
        );
        // Walk from 1 visits 0 first at hop 1.
        assert_eq!(
            idx.postings(0, NodeId(0)).to_vec(),
            vec![Posting {
                id: NodeId(1),
                weight: 1
            }]
        );
    }

    #[test]
    fn estimate_hit_times_replays_correctly() {
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
        let idx = WalkIndex::from_walks(8, 2, &walks);
        // S = {v2}: first hits — v1 at 1, v3 at 1, v5 at 1; others miss (L = 2).
        let s = NodeSet::from_nodes(8, [v(2)]);
        let h = idx.estimate_hit_times(&s);
        assert_eq!(h[v(1).index()], 1.0);
        assert_eq!(h[v(2).index()], 0.0);
        assert_eq!(h[v(3).index()], 1.0);
        assert_eq!(h[v(4).index()], 2.0);
        assert_eq!(h[v(5).index()], 1.0);
        assert_eq!(h[v(6).index()], 2.0);
        let p = idx.estimate_hit_probs(&s);
        assert_eq!(p[v(1).index()], 1.0);
        assert_eq!(p[v(4).index()], 0.0);
        assert_eq!(p[v(2).index()], 1.0);
    }

    #[test]
    fn memory_accounting_is_positive() {
        let idx = figure1_index();
        assert!(idx.total_postings() > 0);
        // 12 bytes per posting — 6 for the inverted columns (4-byte id +
        // 2-byte weight) and 6 more for the forward view — plus offsets.
        assert!(idx.memory_bytes() >= idx.total_postings() * 12);
        assert_eq!(idx.l(), 2);
        assert_eq!(idx.r(), 1);
        assert_eq!(idx.n(), 8);
    }

    #[test]
    fn forward_view_is_exact_transpose() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 4, 3, 7);
        for layer in 0..idx.r() {
            // Collect both views as (src, visited, hop) triples; they must
            // be the same multiset (the proptest in tests/forward.rs covers
            // random graphs; this pins the small fixture).
            let mut inv: Vec<(u32, u32, u32)> = Vec::new();
            let mut fwd: Vec<(u32, u32, u32)> = Vec::new();
            for v in g.nodes() {
                for p in idx.postings(layer, v) {
                    inv.push((p.id.raw(), v.raw(), p.weight));
                }
                for p in idx.forward(layer, v) {
                    fwd.push((v.raw(), p.id.raw(), p.weight));
                }
            }
            inv.sort_unstable();
            fwd.sort_unstable();
            assert_eq!(inv, fwd, "layer {layer}");
            // Forward lists are (hop, id)-ascending (the canonical
            // transposition order documented on `WalkIndex::forward`).
            for src in g.nodes() {
                let fr = idx.forward(layer, src);
                let keys: Vec<(u16, u32)> = fr
                    .weights()
                    .iter()
                    .copied()
                    .zip(fr.ids().iter().copied())
                    .collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "src {src}");
            }
        }
    }

    #[test]
    fn forward_view_of_example_3_1() {
        // Table 1 transposed: the walk (v2, v3, v5) must give
        // forward(v2) = {v3@1, v5@2}; v5's walk (v5, v2, v6) gives
        // {v2@1, v6@2}.
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
        let idx = WalkIndex::from_walks(8, 2, &walks);
        let fwd = |src: usize| -> Vec<(usize, u32)> {
            idx.forward(0, v(src))
                .iter()
                .map(|p| (p.id.index() + 1, p.weight))
                .collect()
        };
        assert_eq!(fwd(1), vec![(2, 1), (3, 2)]);
        assert_eq!(fwd(2), vec![(3, 1), (5, 2)]);
        assert_eq!(fwd(5), vec![(2, 1), (6, 2)]);
        assert_eq!(fwd(7), vec![(5, 1)]); // v7's revisit of itself dropped
    }

    #[test]
    fn soa_columns_are_aligned_views() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 4, 3, 7);
        for layer in 0..idx.r() {
            for v in g.nodes() {
                let pr = idx.postings(layer, v);
                assert_eq!(pr.ids().len(), pr.weights().len());
                assert_eq!(pr.len(), pr.iter().count());
                for (k, p) in pr.iter().enumerate() {
                    assert_eq!(p, pr.get(k));
                    assert_eq!(p.id.raw(), pr.ids()[k]);
                    assert_eq!(p.weight, pr.weights()[k] as u32);
                    assert!(p.weight >= 1 && p.weight <= 4);
                }
            }
        }
    }

    #[test]
    fn save_load_round_trip() {
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 4, 6, 13);
        let dir = std::env::temp_dir().join("rwd_index_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.rwdidx");
        idx.save(&path).unwrap();
        let loaded = WalkIndex::load(&path).unwrap();
        assert_eq!(loaded.n(), idx.n());
        assert_eq!(loaded.l(), idx.l());
        assert_eq!(loaded.r(), idx.r());
        assert_eq!(loaded.seed(), idx.seed());
        for layer in 0..idx.r() {
            for v in g.nodes() {
                assert_eq!(loaded.postings(layer, v), idx.postings(layer, v));
                // load re-derives the forward view from the inverted
                // columns instead of reading the stored one, and the
                // transposition is canonical, so it must match too.
                assert_eq!(loaded.forward(layer, v), idx.forward(layer, v));
            }
        }
        // The reloaded index drives identical estimates.
        let set = NodeSet::from_nodes(8, [NodeId(1), NodeId(6)]);
        assert_eq!(
            loaded.estimate_hit_times(&set),
            idx.estimate_hit_times(&set)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("rwd_index_io_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.rwdidx");
        std::fs::write(&path, b"definitely not an index").unwrap();
        assert!(WalkIndex::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn high_thread_count_on_large_graph_does_not_overrun_chunk_grid() {
        // Regression: with chunk counts re-derived from the rounded-up chunk
        // size, the last task's node range must stay inside [0, n] even when
        // the oversubscribed 2-D grid wants more chunks than fit (formerly a
        // subtract-with-overflow for n = 512_486, r = 1, threads = 250).
        let g = rwd_graph::generators::classic::path(512_486).unwrap();
        let idx = WalkIndex::build_with_threads(&g, 1, 1, 3, 250);
        assert_eq!(idx.n(), 512_486);
        assert!(idx.total_postings() <= 512_486);
        let one = WalkIndex::build_with_threads(&g, 1, 1, 3, 1);
        assert_eq!(idx.total_postings(), one.total_postings());
    }

    /// An RWDIDX4 magic, fixed header and entry table with the given
    /// fields (seed 7, layer base 0, the declared 8-byte alignment).
    fn v4_header(n: u64, l: u64, layers: u64, entries: &[u64]) -> Vec<u8> {
        let mut bytes = MAGIC_V4.to_vec();
        for v in [n, l, layers, 7, 0, V4_ALIGN].iter().chain(entries) {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes
    }

    /// A structurally complete RWDIDX4 file of `layers` empty layers over
    /// `n` nodes with a valid CRC trailer, so only the header fields under
    /// test can make it fail.
    fn empty_v4_file(n: u64, l: u64, layers: u64) -> Vec<u8> {
        let mut bytes = v4_header(n, l, layers, &vec![0; layers as usize]);
        let offsets = ((n + 1) * 4).div_ceil(8) * 8;
        bytes.resize(bytes.len() + (2 * layers * offsets + 2 * n * 8) as usize, 0);
        let crc = crate::crc::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Writes `bytes` to `path` and asserts that every decoder — `load`,
    /// `inspect_index_file` and, where the host has it, `open_mapped` —
    /// refuses them with `InvalidData` naming `what`.
    fn assert_rejected_everywhere(path: &std::path::Path, bytes: &[u8], what: &str) {
        std::fs::write(path, bytes).unwrap();
        let mut errs = vec![
            WalkIndex::load(path).unwrap_err(),
            inspect_index_file(path).unwrap_err(),
        ];
        if cfg!(unix) && cfg!(target_endian = "little") {
            errs.push(WalkIndex::open_mapped(path).unwrap_err());
        }
        for err in errs {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(err.to_string().contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn load_rejects_oversized_header_counts_without_allocating() {
        // Absurd counts must be InvalidData, never a panic or a giant
        // allocation sized by the header.
        let dir = std::env::temp_dir().join("rwd_index_io_huge");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("huge.rwdidx");
        assert_rejected_everywhere(&path, &v4_header(u64::MAX, 4, 1, &[0]), "posting-id range");
        assert_rejected_everywhere(
            &path,
            &v4_header(8, 4, u64::MAX, &[]),
            "header exceeds file size",
        );
        // Plausible n but an absurd per-layer entry count.
        assert_rejected_everywhere(
            &path,
            &v4_header(8, 4, 1, &[u64::MAX]),
            "overflows u32 offsets",
        );
        assert_rejected_everywhere(
            &path,
            &v4_header(8, 4, 1, &[u32::MAX as u64]),
            "layer exceeds file size",
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_cross_field_header_corruption() {
        // Headers that pass the magic check and the raw size checks but
        // violate cross-field invariants no builder can produce: such files
        // must be InvalidData, never a nonsense index.
        let dir = std::env::temp_dir().join("rwd_index_io_header");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("header.rwdidx");
        // The body the cases below share is valid: only their headers fail.
        std::fs::write(&path, empty_v4_file(4, 4, 1)).unwrap();
        assert_eq!(WalkIndex::load(&path).unwrap().r(), 1);

        // n just past the u32 posting-id range (ids could never reference
        // the upper nodes, so the index is unrepresentable). Content is
        // irrelevant; the header rejects.
        let mut bytes = v4_header(u32::MAX as u64 + 1, 4, 1, &[0]);
        bytes.extend(vec![0u8; 64]);
        assert_rejected_everywhere(&path, &bytes, "posting-id range");

        // l = 0: no posting can satisfy 1 <= hop <= l; without the check
        // this would load "successfully" as an all-empty nonsense index.
        assert_rejected_everywhere(&path, &empty_v4_file(4, 0, 1), "walk length");

        // l past the u16 hop range (hops are stored as u16).
        assert_rejected_everywhere(
            &path,
            &empty_v4_file(4, u16::MAX as u64 + 1, 1),
            "walk length",
        );

        // layer_count = 0: r() would be 0 and every estimator would divide
        // by zero.
        assert_rejected_everywhere(&path, &empty_v4_file(4, 4, 0), "zero walk layers");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_old_rwdidx1_format_with_clear_message() {
        let dir = std::env::temp_dir().join("rwd_index_io_v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.rwdidx");
        let mut bytes = b"RWDIDX1\0".to_vec();
        bytes.extend_from_slice(&[0u8; 32]);
        std::fs::write(&path, &bytes).unwrap();
        let err = WalkIndex::load(&path).unwrap_err();
        assert!(
            err.to_string().contains("RWDIDX1"),
            "error should name the old format: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_magics_and_junk_are_rejected_by_name_on_every_decoder() {
        // One format remains: the retired RWDIDX1 (AoS), RWDIDX2 and
        // RWDIDX3 layouts are refused by name instead of parsed, and
        // arbitrary bytes are named as not an index at all.
        let dir = std::env::temp_dir().join("rwd_index_io_magic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.rwdidx");
        for old in ["RWDIDX1", "RWDIDX2", "RWDIDX3"] {
            let mut bytes = format!("{old}\0").into_bytes();
            bytes.extend_from_slice(&[0u8; 64]);
            assert_rejected_everywhere(&path, &bytes, &format!("retired {old} layout"));
        }
        assert_rejected_everywhere(&path, b"definitely not an index", "bad magic");
        assert_rejected_everywhere(&path, b"RWD", "bad magic");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_bit_rot_via_content_checksum() {
        // Corpus of single-damage variants of a valid file. The seed field
        // and posting payload bytes pass every structural check, so only
        // the CRC-32 trailer can catch them — the distinct "content
        // checksum mismatch" message proves the trailer (not a structural
        // check) fired. Truncation and trailing garbage are also detected.
        let dir = std::env::temp_dir().join("rwd_index_io_bitrot");
        std::fs::create_dir_all(&dir).unwrap();
        let g = paper_example::figure1();
        let idx = WalkIndex::build(&g, 4, 6, 13);
        let path = dir.join("good.rwdidx");
        idx.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        assert!(WalkIndex::load(&path).is_ok());

        let expect_crc_mismatch = |bytes: &[u8], what: &str| {
            let p = dir.join("damaged.rwdidx");
            std::fs::write(&p, bytes).unwrap();
            let err = WalkIndex::load(&p).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
            assert!(
                err.to_string().contains("content checksum mismatch"),
                "{what}: {err}"
            );
        };

        // Flip one bit in the RNG seed (header bytes 32..40): structurally
        // unconstrained, so before the trailer this loaded "successfully"
        // as an index whose refreshes would silently diverge.
        let mut rot = good.clone();
        rot[33] ^= 0x10;
        expect_crc_mismatch(&rot, "seed bit flip");

        // Flip one bit in a posting id byte deep in the payload (still a
        // valid node id, so the structural checks pass).
        let mut rot = good.clone();
        let mid = good.len() / 2;
        rot[mid] ^= 0x01;
        let p = dir.join("mid_flip.rwdidx");
        std::fs::write(&p, &rot).unwrap();
        // Depending on which field the bit lands in, a structural check may
        // fire first — either way the load must fail with InvalidData.
        let err = WalkIndex::load(&p).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Flip a bit in the trailer itself.
        let mut rot = good.clone();
        let last = rot.len() - 1;
        rot[last] ^= 0x80;
        expect_crc_mismatch(&rot, "trailer bit flip");

        // Trailing garbage after the trailer: the size accounting rejects
        // it before the checksum comparison.
        let mut fat = good.clone();
        fat.extend_from_slice(&[0u8; 16]);
        let p = dir.join("fat.rwdidx");
        std::fs::write(&p, &fat).unwrap();
        let err = WalkIndex::load(&p).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("size mismatch"), "{err}");

        // A shard file (nonzero layer base) gets the same protection.
        let part = WalkIndex::build_layer_range(&g, 4, LayerRange::new(2, 5), 13, 0);
        let spath = dir.join("shard.rwdidx");
        part.save(&spath).unwrap();
        let mut rot = std::fs::read(&spath).unwrap();
        rot[41] ^= 0x04; // inside the layer base field
        expect_crc_mismatch(&rot, "shard bit flip");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refresh_is_bit_identical_to_rebuild() {
        // Churn a G(n, p) graph and maintain the index incrementally; the
        // result must equal a from-scratch build on the final graph in every
        // column (PartialEq covers inverted + forward views and aggregates).
        let g0 = rwd_graph::generators::erdos_renyi_gnp(80, 0.06, 11).unwrap();
        let (g1, touched) = g0
            .with_edits(
                &[(0, 79), (3, 41), (17, 60)],
                &[g0.edges().next().map(|(u, v)| (u.raw(), v.raw())).unwrap()],
            )
            .unwrap();
        let touched = NodeSet::from_nodes(g1.n(), touched);
        let mut idx = WalkIndex::build(&g0, 5, 6, 23);
        let (stats, _) = idx.refresh(&g1, &touched, 0);
        let fresh = WalkIndex::build(&g1, 5, 6, 23);
        assert!(idx == fresh, "maintained index must equal a rebuild");
        assert!(stats.groups_resampled >= touched.len() * idx.r());
        assert!(stats.groups_resampled <= stats.groups_total);
        assert!(stats.postings_rewritten() > 0);
    }

    #[test]
    fn refresh_weighted_is_bit_identical_to_rebuild() {
        let g0 = rwd_graph::generators::erdos_renyi_gnp(60, 0.08, 5).unwrap();
        let w0 = rwd_graph::weighted::weighted_twin(&g0, 9).unwrap();
        let del = g0.edges().next().map(|(u, v)| (u.raw(), v.raw())).unwrap();
        let (w1, touched) = w0
            .with_edits(&[(2, 59, 1.25), (10, 30, 0.5)], &[del])
            .unwrap();
        let touched = NodeSet::from_nodes(w1.n(), touched);
        let mut idx = WalkIndex::build(&w0, 6, 5, 31);
        idx.refresh(&w1, &touched, 0);
        let fresh = WalkIndex::build(&w1, 6, 5, 31);
        assert!(
            idx == fresh,
            "maintained weighted index must equal a rebuild"
        );
    }

    #[test]
    fn refresh_empty_touched_is_a_noop() {
        let g = paper_example::figure1();
        let mut idx = WalkIndex::build(&g, 4, 3, 7);
        let before = idx.clone();
        let (stats, _) = idx.refresh(&g, &NodeSet::new(g.n()), 0);
        assert_eq!(
            stats,
            RefreshStats {
                groups_total: g.n() * 3,
                ..RefreshStats::default()
            }
        );
        assert!(idx == before);
    }

    #[test]
    fn refresh_is_thread_invariant() {
        let g0 = rwd_graph::generators::barabasi_albert(150, 3, 13).unwrap();
        // Insert the first two absent edges (hubs make fixed pairs brittle).
        let mut inserts = Vec::new();
        'outer: for u in 0..150u32 {
            for v in (u + 1)..150u32 {
                if !g0.has_edge(NodeId(u), NodeId(v)) {
                    inserts.push((u, v));
                    if inserts.len() == 2 {
                        break 'outer;
                    }
                }
            }
        }
        let (g1, touched) = g0.with_edits(&inserts, &[]).unwrap();
        let touched = NodeSet::from_nodes(g1.n(), touched);
        let mut serial = WalkIndex::build(&g0, 5, 8, 3);
        let (serial_stats, _) = serial.refresh(&g1, &touched, 1);
        for threads in [2, 8] {
            let mut idx = WalkIndex::build(&g0, 5, 8, 3);
            let (stats, _) = idx.refresh(&g1, &touched, threads);
            assert_eq!(stats, serial_stats, "threads {threads}");
            assert!(idx == serial, "threads {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "unchanged node universe")]
    fn refresh_rejects_resized_graph() {
        let g = paper_example::figure1();
        let mut idx = WalkIndex::build(&g, 3, 2, 1);
        let bigger = rwd_graph::generators::classic::path(9).unwrap();
        idx.refresh(&bigger, &NodeSet::new(9), 0);
    }

    #[test]
    fn layer_range_partition_is_balanced_and_contiguous() {
        for r in 1..=12usize {
            for shards in 1..=r {
                let ranges = LayerRange::partition(r, shards);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges[0].start(), 0);
                assert_eq!(ranges.last().unwrap().end(), r);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end(), w[1].start(), "contiguous");
                    assert!(w[0].len() >= w[1].len(), "extra layers lead");
                    assert!(w[0].len() - w[1].len() <= 1, "balanced");
                }
                for rg in &ranges {
                    assert!(rg.start() < rg.end());
                    assert!(rg.contains(rg.start()) && !rg.contains(rg.end()));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty shard")]
    fn layer_range_partition_rejects_more_shards_than_layers() {
        let _ = LayerRange::partition(3, 4);
    }

    #[test]
    fn layer_range_build_is_the_monolith_slice() {
        // A shard built over [lo, hi) must store exactly the monolith's
        // layers lo..hi — postings, forward views and aggregates — at any
        // thread count, and keep that property through a refresh.
        let g0 = rwd_graph::generators::barabasi_albert(120, 3, 17).unwrap();
        let (r, l, seed) = (7usize, 5u32, 29u64);
        let full = WalkIndex::build(&g0, l, r, seed);
        for shards in [1usize, 2, 3, 7] {
            for range in LayerRange::partition(r, shards) {
                for threads in [1usize, 4] {
                    let part = WalkIndex::build_layer_range(&g0, l, range, seed, threads);
                    assert_eq!(part.r(), range.len());
                    assert_eq!(part.layer_base(), range.start());
                    assert_eq!(part.layer_range(), range);
                    for local in 0..part.r() {
                        for v in g0.nodes() {
                            assert_eq!(
                                part.postings(local, v),
                                full.postings(range.start() + local, v)
                            );
                            assert_eq!(
                                part.forward(local, v),
                                full.forward(range.start() + local, v)
                            );
                        }
                    }
                }
            }
        }

        // Churn: refresh each shard and the monolith; shards must track the
        // monolith's slices (and a from-scratch shard build) bit for bit.
        let (g1, touched) = g0.with_edits(&[(0, 119), (5, 60)], &[]).unwrap();
        let touched = NodeSet::from_nodes(g1.n(), touched);
        let mut full2 = full.clone();
        full2.refresh(&g1, &touched, 0);
        for range in LayerRange::partition(r, 3) {
            let mut part = WalkIndex::build_layer_range(&g0, l, range, seed, 0);
            part.refresh(&g1, &touched, 0);
            let fresh = WalkIndex::build_layer_range(&g1, l, range, seed, 0);
            assert!(part == fresh, "refreshed shard must equal a rebuild");
            for local in 0..part.r() {
                for v in g1.nodes() {
                    assert_eq!(
                        part.postings(local, v),
                        full2.postings(range.start() + local, v)
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_layer_range_build_is_the_monolith_slice() {
        let g = rwd_graph::generators::erdos_renyi_gnp(70, 0.08, 3).unwrap();
        let w = rwd_graph::weighted::weighted_twin(&g, 11).unwrap();
        let full = WalkIndex::build(&w, 4, 6, 19);
        for range in LayerRange::partition(6, 4) {
            let part = WalkIndex::build_weighted_layer_range(&w, 4, range, 19, 0);
            for local in 0..part.r() {
                for v in g.nodes() {
                    assert_eq!(
                        part.postings(local, v),
                        full.postings(range.start() + local, v)
                    );
                }
            }
        }
    }

    #[test]
    fn shard_save_load_round_trips_via_rwdidx3() {
        let g = paper_example::figure1();
        let range = LayerRange::new(2, 5);
        let part = WalkIndex::build_layer_range(&g, 4, range, 13, 0);
        let dir = std::env::temp_dir().join("rwd_index_io_shard");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.rwdidx");
        part.save(&path).unwrap();
        let loaded = WalkIndex::load(&path).unwrap();
        assert_eq!(loaded.layer_base(), 2);
        assert_eq!(loaded.layer_range(), range);
        assert!(loaded == part);
        // A reloaded shard refreshes with the right absolute RNG streams.
        let (g1, touched) = g.with_edits(&[(0, 7)], &[]).unwrap();
        let touched = NodeSet::from_nodes(g1.n(), touched);
        let mut refreshed = loaded;
        refreshed.refresh(&g1, &touched, 0);
        assert!(refreshed == WalkIndex::build_layer_range(&g1, 4, range, 13, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "walk must start at its source")]
    fn from_walks_validates_start() {
        let _ = WalkIndex::from_walks(
            2,
            1,
            &[vec![NodeId(1), NodeId(0)], vec![NodeId(1), NodeId(0)]],
        );
    }
}
