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
//! sections under a CRC-32 trailer, one schema on the [`storage`] section
//! codec. Every decoder reads a file's bytes one way (mapped where the host
//! maps the file, read onto the heap otherwise), and one header reader
//! serves all three — the validating [`WalkIndex::load`], the zero-copy
//! [`WalkIndex::open_mapped`] and [`inspect_index_file`] — and refuses the
//! retired `RWDIDX1`/`RWDIDX2`/`RWDIDX3` layouts by name. Both opens then
//! make one checksum-and-range sweep over the bytes, which bounds every
//! stored id, hop, offset and aggregate, so a corrupt or crafted file is
//! refused by name on either open instead of panicking a later query.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rwd_graph::NodeId;

use crate::delta::{LayerDelta, PostingDelta};
use crate::nodeset::NodeSet;
use crate::parallel::{self, resolve_threads};
use crate::rng::WalkRng;
use crate::storage::{self, Column, MmapRegion, Schema, SectionWriter};
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

/// Fold crossover: a refresh that would leave a view's overlay holding more
/// than this share of the view's postings folds the view into a fresh base
/// instead (the same shape as the seed maintainer's warm-start crossover).
/// Below it a commit writes only the rows it changes; above it reads and
/// re-writes of the overlay would cost what a fresh base costs.
const FOLD_SHARE: f64 = 0.25;

/// One CSR table in struct-of-arrays form: row `k` is
/// `ids/weights[offsets[k]..offsets[k + 1]]`. Each column is a [`Column`] —
/// heap-owned after a build or fold, zero-copy mapped after
/// [`WalkIndex::open_mapped`] — and is never mutated once written.
#[derive(Debug)]
struct Csr {
    offsets: Column<u32>,
    ids: Column<u32>,
    weights: Column<u16>,
}

impl Csr {
    fn owned(offsets: Vec<u32>, ids: Vec<u32>, weights: Vec<u16>) -> Csr {
        Csr {
            offsets: offsets.into(),
            ids: ids.into(),
            weights: weights.into(),
        }
    }

    #[inline]
    fn row(&self, k: usize) -> PostingsRef<'_> {
        let lo = self.offsets[k] as usize;
        let hi = self.offsets[k + 1] as usize;
        PostingsRef {
            ids: &self.ids[lo..hi],
            weights: &self.weights[lo..hi],
        }
    }

    fn is_mapped(&self) -> bool {
        self.offsets.is_mapped() || self.ids.is_mapped() || self.weights.is_mapped()
    }

    fn heap_bytes(&self) -> usize {
        self.offsets.heap_bytes() + self.ids.heap_bytes() + self.weights.heap_bytes()
    }

    fn mapped_bytes(&self) -> usize {
        self.offsets.mapped_bytes() + self.ids.mapped_bytes() + self.weights.mapped_bytes()
    }

    /// Hands a mapped table's pages back ([`Column::release_pages`]).
    fn release_pages(&self) {
        self.offsets.release_pages();
        self.ids.release_pages();
        self.weights.release_pages();
    }
}

/// The replacement rows of one view. Bit `v` of `bits` marks row `v` as
/// replaced, and the replaced rows are packed in ascending row order in
/// `rows`, so the membership test and the slot lookup are `O(1)`: row `v`
/// is `rows.row(rank[v / 64] + popcount(bits[v / 64] below bit v % 64))`.
#[derive(Debug)]
struct Overlay {
    bits: Vec<u64>,
    /// `rank[w]` = set bits in `bits[..w]`.
    rank: Vec<u32>,
    rows: Csr,
}

impl Overlay {
    fn new(bits: Vec<u64>, rows: Csr) -> Overlay {
        let mut rank = Vec::with_capacity(bits.len());
        let mut below = 0u32;
        for &word in &bits {
            rank.push(below);
            below += word.count_ones();
        }
        Overlay { bits, rank, rows }
    }

    /// The slot of row `v` in `rows`, when the overlay replaces it.
    #[inline]
    fn slot(&self, v: usize) -> Option<usize> {
        let word = self.bits[v / 64];
        let bit = 1u64 << (v % 64);
        (word & bit != 0)
            .then(|| self.rank[v / 64] as usize + (word & (bit - 1)).count_ones() as usize)
    }

    /// The replaced rows, ascending (their slots are `0, 1, 2, …`).
    fn replaced(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    w as u32 * 64 + b
                })
            })
        })
    }

    fn heap_bytes(&self) -> usize {
        self.bits.capacity() * 8 + self.rank.capacity() * 4 + self.rows.heap_bytes()
    }
}

/// One CSR view of a layer (inverted or forward): an immutable base, shared
/// by `Arc` with every epoch that has not folded it, under an optional
/// immutable overlay of replacement rows. Row `v` is read from the overlay
/// when it replaces `v` and from the base otherwise, as one contiguous
/// slice either way. A mapped base stays mapped under its overlay; only a
/// fold writes a new (heap) base.
#[derive(Debug)]
struct View {
    base: Arc<Csr>,
    overlay: Option<Overlay>,
    /// Postings across the view's logical rows.
    len: usize,
}

impl View {
    fn new(base: Csr) -> View {
        View {
            len: base.ids.len(),
            base: Arc::new(base),
            overlay: None,
        }
    }

    /// Row count (`n`).
    fn rows(&self) -> usize {
        self.base.offsets.len() - 1
    }

    /// Logical row `v`: the overlay's replacement when there is one, the
    /// base row otherwise.
    #[inline]
    fn row(&self, v: usize) -> PostingsRef<'_> {
        if let Some(o) = &self.overlay {
            if let Some(k) = o.slot(v) {
                return o.rows.row(k);
            }
        }
        self.base.row(v)
    }

    fn heap_bytes(&self) -> usize {
        self.base.heap_bytes() + self.overlay.as_ref().map_or(0, Overlay::heap_bytes)
    }
}

/// Equality of logical rows: a view equals another exactly when every row
/// reads the same, whatever mix of base and overlay serves it.
impl PartialEq for View {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.rows() == other.rows()
            && (0..self.rows()).all(|v| self.row(v) == other.row(v))
    }
}

impl Eq for View {}

/// One walk layer: the inverted lists `I[i][·]` for a fixed walk index `i`,
/// CSR-packed by owner node in struct-of-arrays form, plus the **forward
/// view** — the transpose CSR keyed by *source*: forward row `src` lists
/// the nodes walk `i` from `src` first-visits and at which hop. A built or
/// loaded layer's forward view is derived from its inverted view by a
/// two-pass stable radix transposition (bucket by hop, then counting-sort
/// by source), so within one forward list the visited nodes appear in
/// **ascending hop order** (ties by ascending id) — walk-visit order, which
/// lets incremental-gain repairs stop at the first hop that can no longer
/// matter. The order is canonical: every construction path, including
/// `load`, produces it, and a refresh preserves it row by row.
/// Equality compares logical rows, so a mapped layer equals the owned layer
/// it was saved from, and an overlaid layer equals its cold rebuild.
///
/// A layer is written once and lives behind an [`Arc`], so cloning a
/// [`WalkIndex`] shares its layers (and its aggregate pair) instead of
/// copying them. A refresh that changes a layer writes a fresh one: each
/// view keeps its base and gets a fresh overlay holding the rows the batch
/// changed plus the old overlay's surviving rows, or — past
/// [`FOLD_SHARE`] — is folded into a fresh base. The old layer is freed
/// when its last holder drops it.
#[derive(Debug, PartialEq, Eq)]
struct Layer {
    inv: View,
    fwd: View,
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
            inv: View::new(Csr::owned(offsets, ids, weights)),
            fwd: View::new(Csr::owned(fwd_offsets, fwd_ids, fwd_weights)),
        }
    }

    /// Whether either view's base still borrows from a mapped file.
    fn is_mapped(&self) -> bool {
        self.inv.base.is_mapped() || self.fwd.base.is_mapped()
    }

    /// Heap bytes owned by this layer's bases and overlays.
    fn heap_bytes(&self) -> usize {
        self.inv.heap_bytes() + self.fwd.heap_bytes()
    }

    /// Bytes this layer borrows from a mapped file.
    fn mapped_bytes(&self) -> usize {
        self.inv.base.mapped_bytes() + self.fwd.base.mapped_bytes()
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
        self.inv.row(v.index())
    }

    #[inline]
    fn forward(&self, src: NodeId) -> PostingsRef<'_> {
        self.fwd.row(src.index())
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
/// they dropped and produced. The resampled-group count is the
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
    /// swaps in fresh `Arc`s only for the layers whose rows it changes.
    layers: Vec<Arc<Layer>>,
    seed: u64,
    /// Absolute index of `layers[0]` in the full `R`-layer index. `0` for a
    /// monolithic index; a shard built over `LayerRange { start, .. }`
    /// stores `start`, so every RNG stream and refresh replay uses absolute
    /// layer indices and the shard's layers stay bitwise identical to the
    /// monolith's.
    layer_base: usize,
    /// Shared with every clone of the index like the layers; each
    /// non-empty refresh swaps in a fresh pair.
    aggregates: Arc<Aggregates>,
}

/// The per-node posting aggregates across all layers, precomputed at
/// construction — the `S = ∅` closed-form gain initializers read these
/// instead of re-streaming every list. Mapped straight from an RWDIDX4
/// file on a zero-copy open; a refresh writes both afresh as owned
/// columns.
#[derive(Debug, PartialEq, Eq)]
struct Aggregates {
    /// Inverted-posting count per node (`Σ_i |I[i][v]|`).
    counts: Column<u64>,
    /// Posting hop-weight sum per node (`Σ_i Σ_{(src,w) ∈ I[i][v]} w`).
    hop_sums: Column<u64>,
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
/// marks (reset-free across layers), the worker's staged per-node
/// aggregate deltas, and reused buffers for the net edits re-sorted into
/// inverted-row order. It holds no column buffers: each overlay or folded
/// base is allocated fresh, at its exact final length.
struct PatchScratch {
    visit: VisitScratch,
    /// `affected[src] == stamp` ⟺ src's walk group resamples this layer.
    affected: Vec<u32>,
    stamp: u32,
    /// Σ over this worker's layers of posting-count changes per node.
    agg_dcount: Vec<i64>,
    /// Σ over this worker's layers of hop-sum changes per node.
    agg_dhops: Vec<i64>,
    /// The layer's net removals re-sorted by `(owner, src)`.
    drops: Vec<Triple>,
    /// The layer's net additions re-sorted by `(owner, src)`.
    adds: Vec<Triple>,
}

impl PatchScratch {
    fn new(n: usize) -> Self {
        PatchScratch {
            visit: VisitScratch::new(n),
            affected: vec![u32::MAX; n],
            stamp: 0,
            agg_dcount: vec![0; n],
            agg_dhops: vec![0; n],
            drops: Vec::new(),
            adds: Vec::new(),
        }
    }

    /// Advances to a fresh affected-set stamp (same wrap policy as
    /// [`VisitScratch`]).
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == u32::MAX {
            self.affected.fill(u32::MAX);
            self.stamp = 1;
        }
        self.stamp
    }
}

/// Appends base rows `rows` verbatim: one bulk copy per posting column and
/// one wrapping add that rebases the run's offsets onto the output's
/// current length. The rebased offsets are exact because every output
/// offset fits in `u32` (checked by the caller).
fn splice_rows(
    base: &Csr,
    rows: std::ops::Range<usize>,
    offsets: &mut Vec<u32>,
    ids: &mut Vec<u32>,
    weights: &mut Vec<u16>,
) {
    let lo = base.offsets[rows.start] as usize;
    let hi = base.offsets[rows.end] as usize;
    let shift = (ids.len() as u32).wrapping_sub(lo as u32);
    offsets.extend(
        base.offsets[rows.start + 1..=rows.end]
            .iter()
            .map(|&o| o.wrapping_add(shift)),
    );
    ids.extend_from_slice(&base.ids[lo..hi]);
    weights.extend_from_slice(&base.weights[lo..hi]);
}

/// The next epoch of one view — the one ordered merge behind every view
/// write. `changed` lists the rows this batch rewrites, ascending, each
/// with its new length, and `emit(i, ids, weights)` appends the new
/// postings of row `changed[i].0`.
///
/// The merge walks the next overlay's rows in ascending order: every
/// changed row, and every row of the old overlay the batch leaves alone.
/// Unless `force_fold`, the result keeps the old base (owned or mapped)
/// under a fresh overlay of exactly those rows, when their postings stay
/// within [`FOLD_SHARE`] of the view's. Otherwise the same merge also
/// splices the base runs between those rows, and the view folds into a
/// fresh base with no overlay. Either way every column is allocated at its
/// exact final length, and the old view is only read.
fn rewrite_view(
    old: &View,
    changed: &[(u32, u32)],
    force_fold: bool,
    mut emit: impl FnMut(usize, &mut Vec<u32>, &mut Vec<u16>),
) -> View {
    let n = old.rows();
    // Each row of the next overlay picks its source: `Ok(i)` is
    // `changed[i]`, `Err(k)` the old overlay's slot `k`.
    let carried = old.overlay.as_ref().map_or(0, |o| o.rows.offsets.len() - 1);
    let mut picks: Vec<(u32, Result<usize, usize>)> = Vec::with_capacity(changed.len() + carried);
    let mut kept = old
        .overlay
        .iter()
        .flat_map(|o| o.replaced().enumerate())
        .peekable();
    for (i, &(v, _)) in changed.iter().enumerate() {
        while let Some((k, w)) = kept.next_if(|&(_, w)| w <= v) {
            if w < v {
                picks.push((w, Err(k)));
            }
        }
        picks.push((v, Ok(i)));
    }
    picks.extend(kept.map(|(k, w)| (w, Err(k))));

    let kept_row = |k: usize| {
        old.overlay
            .as_ref()
            .expect("kept rows come from an overlay")
            .rows
            .row(k)
    };
    let overlay_len: usize = picks
        .iter()
        .map(|&(_, pick)| match pick {
            Ok(i) => changed[i].1 as usize,
            Err(k) => kept_row(k).len(),
        })
        .sum();
    let len = changed.iter().fold(old.len, |len, &(v, l)| {
        len + l as usize - old.row(v as usize).len()
    });
    assert!(
        len <= u32::MAX as usize,
        "layer posting count {len} overflows u32 CSR offsets"
    );
    let fold = force_fold || overlay_len as f64 > FOLD_SHARE * len as f64;

    let (rows, postings) = if fold {
        (n, len)
    } else {
        (picks.len(), overlay_len)
    };
    let mut offsets = Vec::with_capacity(rows + 1);
    offsets.push(0u32);
    let mut ids = Vec::with_capacity(postings);
    let mut weights = Vec::with_capacity(postings);
    let mut bits = vec![0u64; if fold { 0 } else { n.div_ceil(64) }];
    let mut next = 0usize; // first base row not yet spliced (fold only)
    for &(v, pick) in &picks {
        let v = v as usize;
        if fold {
            splice_rows(&old.base, next..v, &mut offsets, &mut ids, &mut weights);
            next = v + 1;
        } else {
            bits[v / 64] |= 1 << (v % 64);
        }
        match pick {
            Ok(i) => {
                emit(i, &mut ids, &mut weights);
                debug_assert_eq!(
                    ids.len() - *offsets.last().unwrap() as usize,
                    changed[i].1 as usize
                );
            }
            Err(k) => {
                let row = kept_row(k);
                ids.extend_from_slice(row.ids);
                weights.extend_from_slice(row.weights);
            }
        }
        offsets.push(ids.len() as u32);
    }
    if !fold {
        return View {
            base: old.base.clone(),
            overlay: Some(Overlay::new(bits, Csr::owned(offsets, ids, weights))),
            len,
        };
    }
    splice_rows(&old.base, next..n, &mut offsets, &mut ids, &mut weights);
    View::new(Csr::owned(offsets, ids, weights))
}

/// Patches one layer for the next graph epoch: detects the affected walk
/// groups through the *old* inverted lists of the touched nodes, re-walks
/// exactly those groups on the new graph, and writes only the rows whose
/// postings changed ([`rewrite_view`]). The canonical orders are preserved
/// exactly (inverted rows: ascending source; forward rows: ascending hop =
/// walk order), so the patched layer is bit-identical, row for row, to the
/// layer a from-scratch build on the new graph would produce.
///
/// When at least one group resampled, the layer's **net** edit script (see
/// [`LayerDelta`]) is appended to `deltas`: each affected group's old and
/// new forward rows are merged in hop order and verbatim reproductions
/// cancel at the source, so the script holds only postings that actually
/// differ — a resampled walk that never diverges contributes nothing, and
/// downstream absorption is `O(net)` rather than `O(gross)`. The same
/// script decides which rows are written: in the inverted view the owners
/// it names, in the forward view the sources whose row is not a verbatim
/// reproduction. Every other row is byte-identical and stays where it is.
///
/// The old layer is only read (through its `Arc`, which a pinned snapshot
/// may share, and only through the row accessors). A layer whose script
/// is empty is left as it is; otherwise each view is rewritten into a
/// fresh overlay over its old base, or folded past [`FOLD_SHARE`], and the
/// fresh layer replaces the `Arc` in `layer`. Returns the accounting and
/// the number of views folded.
#[allow(clippy::too_many_arguments)]
fn patch_layer<G: WalkGraph>(
    layer: &mut Arc<Layer>,
    l: u32,
    seed: u64,
    layer_idx: usize,
    touched: &NodeSet,
    g: &G,
    ws: &mut PatchScratch,
    deltas: &mut Vec<LayerDelta>,
) -> (RefreshStats, usize) {
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
        return (out, 0);
    }

    // --- 2. re-walk affected groups with their original RNG streams -----
    // Ascending source order makes the triple stream canonical; per-source
    // bounds delimit each group's new forward row.
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

    // --- 3. net edit script: verbatim reproductions cancel here --------
    // A resampled walk that diverges late (or never) re-emits most of its
    // old forward row byte for byte; neither the gain engine nor the views
    // care about that part. Both rows are hop-ascending (walk order), so
    // one ordered merge per group emits exactly the net edits, and a fully
    // reproduced group contributes nothing at all.
    let mut removed: Vec<Triple> = Vec::new();
    let mut added: Vec<Triple> = Vec::new();
    // Forward rows to rewrite (source, new length), with their groups.
    let mut fwd_rows: Vec<(u32, u32)> = Vec::new();
    let mut fwd_groups: Vec<usize> = Vec::new();
    for (gi, &src) in affected_srcs.iter().enumerate() {
        let row = old.forward(NodeId(src));
        out.postings_removed += row.len();
        let fresh = &new_triples[new_src_bounds[gi] as usize..new_src_bounds[gi + 1] as usize];
        let same = row.len() == fresh.len()
            && row
                .ids
                .iter()
                .zip(row.weights)
                .zip(fresh)
                .all(|((&id, &hop), &(owner, _, h))| id == owner && hop == h);
        if same {
            continue;
        }
        fwd_rows.push((src, fresh.len() as u32));
        fwd_groups.push(gi);
        let (mut k, mut t) = (0usize, 0usize);
        while k < row.len() || t < fresh.len() {
            // Order within a group is strictly ascending hop on both sides.
            let old_key = (k < row.len()).then(|| (row.weights[k], row.ids[k]));
            let new_key = (t < fresh.len()).then(|| (fresh[t].2, fresh[t].0));
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
                    added.push(fresh[t]);
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
    if fwd_rows.is_empty() {
        // Every resampled walk came out verbatim: the layer is unchanged.
        deltas.push(LayerDelta {
            layer: layer_idx,
            removed,
            added,
        });
        return (out, 0);
    }

    // --- 4. inverted rows: the owners the net script names --------------
    // The net edits re-sorted by `(owner, src)` — the inverted rows'
    // canonical order. The sorts cover the (small) net script only, so the
    // patch stays proportional to the churn, not to `n`.
    ws.drops.clear();
    ws.drops.extend_from_slice(&removed);
    ws.drops
        .sort_unstable_by_key(|&(owner, src, _)| (owner, src));
    ws.adds.clear();
    ws.adds.extend_from_slice(&added);
    ws.adds
        .sort_unstable_by_key(|&(owner, src, _)| (owner, src));
    for &(owner, _, hop) in &ws.drops {
        ws.agg_dcount[owner as usize] -= 1;
        ws.agg_dhops[owner as usize] -= hop as i64;
    }
    for &(owner, _, hop) in &ws.adds {
        ws.agg_dcount[owner as usize] += 1;
        ws.agg_dhops[owner as usize] += hop as i64;
    }
    let (drops, adds) = (&ws.drops, &ws.adds);
    let mut inv_rows: Vec<(u32, u32)> = Vec::new();
    let (mut d, mut a) = (0usize, 0usize);
    while d < drops.len() || a < adds.len() {
        let v = match (drops.get(d), adds.get(a)) {
            (Some(x), Some(y)) => x.0.min(y.0),
            (Some(x), None) | (None, Some(x)) => x.0,
            (None, None) => unreachable!(),
        };
        let (d0, a0) = (d, a);
        while d < drops.len() && drops[d].0 == v {
            d += 1;
        }
        while a < adds.len() && adds[a].0 == v {
            a += 1;
        }
        let len = old.postings(NodeId(v)).len() + (a - a0) - (d - d0);
        inv_rows.push((v, len as u32));
    }
    // Each rewritten owner row: its old row with the dropped sources left
    // out and the added ones merged in, both ascending by source. Rows are
    // emitted ascending, so both cursors only move forward.
    let (mut d, mut a) = (0usize, 0usize);
    let inv = rewrite_view(&old.inv, &inv_rows, false, |i, ids, weights| {
        let v = inv_rows[i].0;
        let row = old.inv.row(v as usize);
        for (&src, &hop) in row.ids.iter().zip(row.weights) {
            if d < drops.len() && drops[d].0 == v && drops[d].1 == src {
                d += 1;
                continue;
            }
            while a < adds.len() && adds[a].0 == v && adds[a].1 < src {
                ids.push(adds[a].1);
                weights.push(adds[a].2);
                a += 1;
            }
            ids.push(src);
            weights.push(hop);
        }
        while a < adds.len() && adds[a].0 == v {
            ids.push(adds[a].1);
            weights.push(adds[a].2);
            a += 1;
        }
    });

    // --- 5. forward rows: the sources whose walk changed -----------------
    let fwd = rewrite_view(&old.fwd, &fwd_rows, false, |i, ids, weights| {
        let gi = fwd_groups[i];
        for &(owner, _, hop) in
            &new_triples[new_src_bounds[gi] as usize..new_src_bounds[gi + 1] as usize]
        {
            ids.push(owner);
            weights.push(hop);
        }
    });

    // Swap the fresh layer in. The displaced one is freed here unless a
    // snapshot still shares it; its bases live on in the fresh layer
    // unless they folded. A folded mapped base hands its pages back now
    // (a pinned epoch that still reads it faults the same bytes back in).
    let mut folds = 0;
    for (fresh, was) in [(&inv, &old.inv), (&fwd, &old.fwd)] {
        if fresh.overlay.is_none() {
            was.base.release_pages();
            folds += 1;
        }
    }
    *layer = Arc::new(Layer { inv, fwd });
    deltas.push(LayerDelta {
        layer: layer_idx,
        removed,
        added,
    });
    (out, folds)
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

    let task_range = |t: usize| {
        let layer_idx = layer_base + t / chunks_per_layer;
        let lo = ((t % chunks_per_layer) * chunk_nodes).min(n);
        let hi = (lo + chunk_nodes).min(n);
        (layer_idx, lo, hi)
    };

    // Each worker part drains the shared task counter with one reused
    // scratch; a lone worker takes every task in order.
    let next = AtomicUsize::new(0);
    let done = parallel::fan_out(0..workers.min(tasks), |_| {
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
    });
    let mut parts: Vec<Vec<Triple>> = (0..tasks).map(|_| Vec::new()).collect();
    for (t, v) in done.into_iter().flatten() {
        parts[t] = v;
    }

    // Pack each layer's chunk outputs (already in node order) into SoA CSR,
    // parallel over layer chunks; each layer's staging buffers are freed as
    // it packs, so triple staging and final columns barely overlap.
    let lchunk = r.div_ceil(workers);
    parallel::fan_out(parts.chunks_mut(lchunk * chunks_per_layer), |groups| {
        groups
            .chunks_mut(chunks_per_layer)
            .map(|group| Layer::from_parts(n, group))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
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
        let (counts, hop_sums) = Self::compute_aggregates(n, &layers, threads);
        WalkIndex {
            n,
            l,
            layers,
            seed,
            layer_base,
            aggregates: Arc::new(Aggregates {
                counts: counts.into(),
                hop_sums: hop_sums.into(),
            }),
        }
    }

    /// Recomputes the per-node posting aggregates from the layer columns —
    /// shared by [`WalkIndex::assemble`] and the incremental
    /// [`WalkIndex::refresh`] path (all sums are integers, so the result is
    /// independent of the worker layout).
    fn compute_aggregates(n: usize, layers: &[Arc<Layer>], threads: usize) -> (Vec<u64>, Vec<u64>) {
        let total: usize = layers.iter().map(|la| la.inv.len).sum();
        let mut posting_counts = vec![0u64; n];
        let mut posting_hop_sums = vec![0u64; n];
        let chunk = parallel::part_len(n, n + total, threads);
        let parts = posting_counts
            .chunks_mut(chunk)
            .zip(posting_hop_sums.chunks_mut(chunk))
            .enumerate();
        parallel::fan_out(parts, |(ci, (counts, sums))| {
            let lo = ci * chunk;
            for layer in layers {
                for (slot, v) in (lo..lo + counts.len()).enumerate() {
                    let row = layer.inv.row(v);
                    counts[slot] += row.len() as u64;
                    let mut s = 0u64;
                    for &w in row.weights {
                        s += w as u64;
                    }
                    sums[slot] += s;
                }
            }
        });
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
    /// each layer whose rows they change with its successor (clones of the
    /// index sharing the old layer keep it). `threads` is the worker count
    /// (`0` = all cores); the maintained index is **bit-identical** to
    /// [`WalkIndex::build`] on the new graph at any worker count.
    ///
    /// Returns the refresh's accounting and its edit script: per resampled
    /// `(src, layer)` group, the inverted postings dropped and produced
    /// (see [`PostingDelta`]). The same net script decides which rows the
    /// refresh writes, so it costs `O(postings rewritten)`.
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
    /// `patch_layer` (affected-group detection → selective re-walk → net
    /// edit script → the changed rows of each view written into a fresh
    /// overlay over the view's unchanged base), and each worker accumulates
    /// integer deltas for the per-node aggregates that are applied after
    /// the join. A view whose overlay would pass `FOLD_SHARE` (0.25) of its
    /// postings is folded into a fresh base instead; the
    /// `rwd_walks_overlay_folds_total` counter counts those views, so a
    /// slow fold commit can be told apart from an overlay commit.
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

        // Each part patches a chunk of layers with one reused scratch and
        // returns the chunk's stats, its layer edit scripts (ascending
        // layers), and its staged aggregate deltas.
        let chunk = r.div_ceil(resolve_threads(threads));
        let parts = self.layers.chunks_mut(chunk).enumerate();
        let partials = parallel::fan_out(parts, |(ci, layers)| {
            let mut ws = PatchScratch::new(n);
            let mut out = RefreshStats::default();
            let mut deltas = Vec::new();
            let mut folds = 0;
            for (off, layer) in layers.iter_mut().enumerate() {
                let (part, folded) = patch_layer(
                    layer,
                    l,
                    seed,
                    layer_base + ci * chunk + off,
                    touched,
                    g,
                    &mut ws,
                    &mut deltas,
                );
                out.groups_resampled += part.groups_resampled;
                out.postings_removed += part.postings_removed;
                out.postings_added += part.postings_added;
                folds += folded;
            }
            (out, deltas, folds, ws.agg_dcount, ws.agg_dhops)
        });
        // Chunks are gathered in layer order, so concatenating their edit
        // scripts keeps the delta ascending by absolute layer — the same
        // canonical order a single-threaded refresh emits.
        let mut delta = PostingDelta::default();
        // The aggregates are written afresh (old value plus the staged
        // deltas), so an owned or mapped column is never edited in place
        // and a clone holding the old pair keeps it.
        let mut counts = self.aggregates.counts.to_vec();
        let mut hop_sums = self.aggregates.hop_sums.to_vec();
        let mut folds = 0;
        for (p, deltas, folded, dcount, dhops) in partials {
            folds += folded;
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
        self.aggregates = Arc::new(Aggregates {
            counts: counts.into(),
            hop_sums: hop_sums.into(),
        });
        timer.stop();
        let metrics = crate::obs::metrics();
        metrics.groups_resampled.add(stats.groups_resampled as u64);
        metrics.overlay_folds.add(folds as u64);
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
        self.layers.iter().map(|l| l.inv.len).sum()
    }

    /// `Σ_i |I[i][v]|` — how many inverted postings `v` owns across all
    /// layers, precomputed at construction. With `D1 ≡ L` (the `S = ∅`
    /// state) this and [`WalkIndex::posting_hop_sum`] give every
    /// candidate's initial gain in closed form without touching a list.
    #[inline]
    pub fn posting_count(&self, v: NodeId) -> u64 {
        self.aggregates.counts[v.index()]
    }

    /// `Σ_i Σ_{(src,w) ∈ I[i][v]} w` — the total hop weight of `v`'s
    /// inverted postings across all layers, precomputed at construction.
    #[inline]
    pub fn posting_hop_sum(&self, v: NodeId) -> u64 {
        self.aggregates.hop_sums[v.index()]
    }

    /// Total bytes of index data: per layer, the inverted SoA posting
    /// columns (4-byte ids + 2-byte hop weights) **and** the forward-view
    /// columns of the same shape — 12 bytes per posting in total — plus
    /// one 4-byte CSR offset per node per view, each view's overlay of
    /// replacement rows (its bitset and rank, 12 bytes per 64 nodes, plus
    /// its own offsets and postings; base rows it shadows still count),
    /// and the per-node aggregate tables. Always equals
    /// [`WalkIndex::heap_bytes`] `+` [`WalkIndex::mapped_bytes`]; for a
    /// fully owned index it is all heap, for a freshly mapped one almost
    /// all file-backed.
    pub fn memory_bytes(&self) -> usize {
        self.heap_bytes() + self.mapped_bytes()
    }

    /// Bytes of index data owned on the heap (the resident-set cost the
    /// process pays unconditionally), counted as each column's allocation.
    /// A freshly mapped index owns nothing. A refresh adds the overlays it
    /// writes (bitset, rank and replacement rows) and the aggregate pair;
    /// only a fold moves a view's base here.
    pub fn heap_bytes(&self) -> usize {
        self.layers.iter().map(|la| la.heap_bytes()).sum::<usize>()
            + self.aggregates.counts.heap_bytes()
            + self.aggregates.hop_sums.heap_bytes()
    }

    /// Bytes of index data borrowed zero-copy from a mapped file (paged in
    /// on demand and evictable under memory pressure — the RSS the kernel
    /// can reclaim). Zero for an owned index.
    pub fn mapped_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|la| la.mapped_bytes())
            .sum::<usize>()
            + self.aggregates.counts.mapped_bytes()
            + self.aggregates.hop_sums.mapped_bytes()
    }

    /// How many of this index's layers still borrow a view's base from a
    /// mapped file. A refresh writes its changed rows into heap overlays
    /// and leaves the bases mapped; only a fold moves a base to the heap.
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
    /// any worker count. Instances below the shared work gate run as one
    /// inline part.
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
    /// those tables over layers — one part below the work gate, otherwise
    /// parallel over layer chunks with one scratch buffer per part and a
    /// chunk-ordered reduction. All summed values are small integers, so
    /// the result is bit-identical for any worker count.
    fn replay_layers(&self, threads: usize, fill: impl Fn(&Layer, &mut [u32]) + Sync) -> Vec<f64> {
        let r = self.layers.len();
        let chunk = parallel::part_len(r, r * self.n, threads);
        let mut partials = parallel::fan_out(self.layers.chunks(chunk), |layers| {
            let mut acc = vec![0.0f64; self.n];
            let mut d = vec![0u32; self.n];
            for layer in layers {
                fill(layer, &mut d);
                for (a, &v) in acc.iter_mut().zip(d.iter()) {
                    *a += v as f64;
                }
            }
            acc
        })
        .into_iter();
        let mut acc = partials.next().expect("an index has at least one layer");
        for p in partials {
            for (a, b) in acc.iter_mut().zip(p) {
                *a += b;
            }
        }
        let r = r as f64;
        acc.iter_mut().for_each(|a| *a /= r);
        acc
    }

    /// Persists the index to disk (the paper's "sample materialization"
    /// made durable) in the RWDIDX4 layout, the one format this build
    /// reads. A paper-scale index builds in seconds but is reused across
    /// many `k`/`λ` sweeps — saving it makes experiment suites restartable.
    ///
    /// Layout, on the [`storage`] section codec: a fixed header (`n`, `L`,
    /// layer count, seed, layer base, declared section alignment), a
    /// per-layer entry-count table, then per layer the six column sections
    /// and the two per-node aggregate sections, each the little-endian
    /// image of its column padded to 8 bytes, under a CRC-32 trailer — the
    /// same file on every host, and bit rot anywhere is detected at open. Storing both CSR views and the aggregates lets
    /// [`WalkIndex::open_mapped`] serve the file without computing
    /// anything; a layer-range shard records its absolute layer base, so a
    /// reopened shard refreshes with the right RNG streams. A view under an
    /// overlay is written as its fold: it is folded into a temporary, one
    /// view at a time, so the file is byte for byte the one a cold build
    /// of the same rows writes, and the live index keeps its overlays.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let fields = [
            self.n as u64,
            self.l as u64,
            self.layers.len() as u64,
            self.seed,
            self.layer_base as u64,
            V4_ALIGN,
        ];
        let entries: Vec<u64> = self.layers.iter().map(|la| la.inv.len as u64).collect();
        let mut w = SectionWriter::new(file, &RWDIDX4, &fields, &entries)?;
        for layer in &self.layers {
            for view in [&layer.inv, &layer.fwd] {
                // An overlaid view is folded into a temporary first, so the
                // file holds exactly the folded view's columns.
                let folded = view
                    .overlay
                    .is_some()
                    .then(|| rewrite_view(view, &[], true, |_, _, _| {}));
                let csr = &folded.as_ref().unwrap_or(view).base;
                w.section(&csr.offsets)?;
                w.section(&csr.ids)?;
                w.section(&csr.weights)?;
            }
        }
        w.section(&self.aggregates.counts)?;
        w.section(&self.aggregates.hop_sums)?;
        w.finish()
    }

    /// Loads an index written by [`WalkIndex::save`], deserializing every
    /// column to the heap, on all cores ([`WalkIndex::load_with_threads`]).
    ///
    /// Files in the retired `RWDIDX1`, `RWDIDX2` and `RWDIDX3` layouts are
    /// rejected by name; rebuild and re-save such indexes with this
    /// version.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<WalkIndex> {
        Self::load_with_threads(path, 0)
    }

    /// [`WalkIndex::load`] with an explicit worker budget for the content
    /// sweep, the layer copies and the aggregate pass (`0` means "all
    /// cores", anything else is taken literally; the index is bit-identical
    /// either way, so an engine pinned to a thread budget recovers within
    /// it).
    ///
    /// The file's bytes pass the same checksum-and-range sweep as
    /// [`WalkIndex::open_mapped`]'s, read the same way: from a map, dropped
    /// before this returns, wherever the host maps the file. Then only the
    /// inverted sections are copied: the forward view and the aggregates
    /// are re-derived canonically rather than trusted, so the result is
    /// the validating reference `open_mapped` is tested against — bitwise
    /// equal to it on every file [`WalkIndex::save`] writes. Every count in
    /// the file is untrusted: sizes are checked against the file length
    /// before anything is read or allocated, so a corrupt or crafted file
    /// yields `InvalidData`, never a panic or an absurd allocation.
    ///
    /// Where the file cannot be mapped (off unix, on a filesystem that
    /// refuses the map, for an empty file), the sweep runs over one read
    /// of the whole file, which is dropped before the copies; each layer's
    /// inverted sections are then read again. Either way the heap never
    /// holds the file's bytes and the index at once: past the sweep it
    /// holds the index being built plus one layer in flight per worker. The
    /// sweep's checks cover the bytes it read: a file rewritten in place
    /// while it loads is not checked again, and a mapped one truncated
    /// meanwhile stops the process with `SIGBUS`.
    pub fn load_with_threads(
        path: impl AsRef<std::path::Path>,
        threads: usize,
    ) -> std::io::Result<WalkIndex> {
        Self::load_from(&IndexFile::open(path.as_ref())?, threads)
    }

    /// The body of [`WalkIndex::load_with_threads`], on a file already open.
    fn load_from(file: &IndexFile, threads: usize) -> std::io::Result<WalkIndex> {
        let layout = {
            let bytes = file.whole()?;
            let layout = read_layout(&bytes)?;
            sweep(&bytes, &layout, threads)?;
            layout
        };
        let (n, specs) = (layout.n, &layout.layers);
        let total_postings: usize = specs.iter().map(|s| s.entries).sum();
        let chunk = parallel::part_len(specs.len(), n + total_postings, threads);
        let layers = parallel::fan_out(specs.chunks(chunk), |run| {
            run.iter()
                .map(|spec| {
                    // The inverted sections, from the map or read again once
                    // the whole-file copy above is gone.
                    let (offsets, ids, hops) = {
                        let block = file.read(spec.offsets, spec.weights + 2 * spec.entries)?;
                        let column = |at: usize, len: usize| &block[at - spec.offsets..][..len];
                        (
                            storage::le_values(column(spec.offsets, (n + 1) * 4)).collect(),
                            storage::le_values(column(spec.ids, spec.entries * 4)).collect(),
                            storage::le_values(column(spec.weights, spec.entries * 2)).collect(),
                        )
                    };
                    Ok(Layer::from_inverted(n, offsets, ids, hops))
                })
                .collect::<std::io::Result<Vec<_>>>()
        });
        let layers = layers.into_iter().collect::<std::io::Result<Vec<_>>>()?;
        Ok(WalkIndex::assemble(
            n,
            layout.l,
            layers.into_iter().flatten().collect(),
            layout.layer_base,
            layout.seed,
            threads,
        ))
    }

    /// Opens an index file zero-copy: the file is mapped once
    /// (`mmap(2)`), its header is read, one checksum-and-range sweep runs
    /// over its bytes on all cores, and every posting column becomes a
    /// borrowed window into the map — no copy, no transposition, no
    /// allocation proportional to postings. The sweep reads every byte, so
    /// it also faults the whole file in before the first answer. On every
    /// file [`WalkIndex::save`] writes, the opened index is **bitwise
    /// equal** (by value) to [`WalkIndex::load`] of the same file. A
    /// refresh writes only the rows it changes, into heap overlays over the
    /// mapped bases; a base leaves the map only when a fold rewrites its
    /// view.
    ///
    /// The sweep bounds every stored offset, id, hop and aggregate, so no
    /// read of the opened index can index out of range. It does not check
    /// that the stored forward view is the transpose of the inverted one,
    /// nor that each node's stored posting count and hop sum are the exact
    /// sums over its inverted rows (it checks only that the counts sum to
    /// the entries and that `count ≤ hop sum ≤ L·count`); `load`
    /// re-derives both instead. An exact transpose check took about 27 ms
    /// per 39 MB shard file on 2 vCPUs, against about 6 ms for the whole
    /// open. A file whose forward view or aggregates disagree with its
    /// inverted view needs a CRC-valid rewrite — bit rot fails the
    /// checksum — and gives wrong answers (other posting counts and
    /// initial gains than `load`'s) rather than a panic on reads; a later
    /// refresh of it can stop at `patch_layer`'s assert that a patched
    /// row's length fits a `u32`.
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
        let layout = read_layout(bytes)?;
        sweep(bytes, &layout, 0)?;
        let n = layout.n;
        let mut layers = Vec::with_capacity(layout.layers.len());
        for spec in &layout.layers {
            layers.push(Arc::new(Layer {
                inv: View::new(Csr {
                    offsets: Column::mapped(region.clone(), spec.offsets, n + 1)?,
                    ids: Column::mapped(region.clone(), spec.ids, spec.entries)?,
                    weights: Column::mapped(region.clone(), spec.weights, spec.entries)?,
                }),
                fwd: View::new(Csr {
                    offsets: Column::mapped(region.clone(), spec.fwd_offsets, n + 1)?,
                    ids: Column::mapped(region.clone(), spec.fwd_ids, spec.entries)?,
                    weights: Column::mapped(region.clone(), spec.fwd_weights, spec.entries)?,
                }),
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
            aggregates: Arc::new(Aggregates {
                counts: Column::mapped(region.clone(), layout.counts, n)?,
                hop_sums: Column::mapped(region.clone(), layout.hop_sums, n)?,
            }),
        })
    }
}

/// Section alignment RWDIDX4 declares in its header: every section start
/// is a multiple of 8 within the file, and `mmap(2)` bases are
/// page-aligned, so mapped element pointers inherit the alignment of the
/// widest stored scalar (`u64`).
const V4_ALIGN: u64 = 8;

/// RWDIDX4 on the section codec: magic, 6 `u64` fields (`n`, `l`, layer
/// count, seed, layer base, section alignment), the per-layer entry table,
/// then per layer the six view sections and the two aggregate sections.
const RWDIDX4: Schema = Schema {
    noun: "walk-index file",
    magic: b"RWDIDX4\0",
    retired: &[b"RWDIDX1\0", b"RWDIDX2\0", b"RWDIDX3\0"],
    retired_hint: "rebuild the index and save it again",
    fields: 6,
    table_len: Some(2),
};

/// An index file as [`WalkIndex::load`] and [`inspect_index_file`] read
/// it: mapped read-only, as [`WalkIndex::open_mapped`] maps it, where the
/// host maps the file, and read through its handle otherwise — off unix,
/// on a filesystem that refuses the map, and for an empty file.
struct IndexFile {
    file: std::sync::Mutex<std::fs::File>,
    map: Option<MmapRegion>,
}

impl IndexFile {
    fn open(path: &std::path::Path) -> std::io::Result<IndexFile> {
        let file = std::fs::File::open(path)?;
        let map = MmapRegion::map(&file).ok();
        Ok(IndexFile {
            file: std::sync::Mutex::new(file),
            map,
        })
    }

    /// The whole file: the map, or one read of it onto the heap.
    fn whole(&self) -> std::io::Result<std::borrow::Cow<'_, [u8]>> {
        if let Some(map) = &self.map {
            return Ok(map.as_bytes().into());
        }
        let mut bytes = Vec::new();
        let mut file = self.file.lock().expect("no read panics holding the file");
        std::io::Seek::rewind(&mut *file)?;
        std::io::Read::read_to_end(&mut *file, &mut bytes)?;
        Ok(bytes.into())
    }

    /// The bytes in `[start, end)`, which [`read_layout`] has bounded by
    /// the file length: a window of the map, or read onto the heap.
    fn read(&self, start: usize, end: usize) -> std::io::Result<std::borrow::Cow<'_, [u8]>> {
        if let Some(map) = &self.map {
            return Ok(map.as_bytes()[start..end].into());
        }
        let mut bytes = vec![0; end - start];
        let mut file = self.file.lock().expect("no read panics holding the file");
        std::io::Seek::seek(&mut *file, std::io::SeekFrom::Start(start as u64))?;
        std::io::Read::read_exact(&mut *file, &mut bytes)?;
        Ok(bytes.into())
    }
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
    content_len: usize,
}

/// The one reader of an index file's header, shared by
/// [`WalkIndex::load`], [`WalkIndex::open_mapped`] and
/// [`inspect_index_file`], so all three agree on the format byte for
/// byte: the section codec ([`storage::read_header`]) reads the magic,
/// the fixed header and the entry table, and this checks the fields and
/// walks the section structure. Every size is validated against the file
/// length with checked arithmetic, and the tiling must account for every
/// content byte.
fn read_layout(bytes: &[u8]) -> std::io::Result<V4Layout> {
    let mut h = storage::read_header(&RWDIDX4, bytes)?;
    let [n64, l64, layer_count64, seed, base64, align] =
        <[u64; 6]>::try_from(&h.fields[..]).expect("RWDIDX4 has 6 header fields");
    // Values no builder can produce are refused, not loaded as nonsense:
    // posting ids are u32, hops are `1 ≤ hop ≤ l ≤ u16::MAX`, and every
    // constructor requires `r ≥ 1` (each estimator divides by it).
    if n64 > u32::MAX as u64 {
        return Err(RWDIDX4.corrupt("node count exceeds the u32 posting-id range"));
    }
    if l64 == 0 || l64 > u16::MAX as u64 {
        return Err(RWDIDX4.corrupt("walk length outside 1..=65535"));
    }
    if layer_count64 == 0 {
        return Err(RWDIDX4.corrupt("zero walk layers"));
    }
    if base64.saturating_add(layer_count64) > u32::MAX as u64 {
        return Err(RWDIDX4.corrupt("layer base outside the representable range"));
    }
    if align != V4_ALIGN {
        return Err(RWDIDX4.corrupt("unsupported section alignment; this build reads 8"));
    }
    let overflow = |_| RWDIDX4.corrupt("layer exceeds file size");
    let table = std::mem::take(&mut h.table);
    let mut layers = Vec::with_capacity(table.len());
    for e in table {
        if e > u32::MAX as u64 {
            return Err(RWDIDX4.corrupt("layer posting count overflows u32 offsets"));
        }
        layers.push(V4LayerSpec {
            entries: e as usize,
            offsets: h.section::<u32>(n64 + 1).map_err(overflow)?,
            ids: h.section::<u32>(e).map_err(overflow)?,
            weights: h.section::<u16>(e).map_err(overflow)?,
            fwd_offsets: h.section::<u32>(n64 + 1).map_err(overflow)?,
            fwd_ids: h.section::<u32>(e).map_err(overflow)?,
            fwd_weights: h.section::<u16>(e).map_err(overflow)?,
        });
    }
    let counts = h.section::<u64>(n64)?;
    let hop_sums = h.section::<u64>(n64)?;
    Ok(V4Layout {
        n: n64 as usize,
        l: l64 as u32,
        seed,
        layer_base: base64 as usize,
        layers,
        counts,
        hop_sums,
        content_len: h.content_len()? as usize,
    })
}

/// Bytes the sweep hashes and then checks at a time, so a block is checked
/// while the hash has just pulled it into cache.
const SWEEP_BLOCK: usize = 64 << 10;

/// The one content pass over an index file's bytes, made by both opens
/// after [`read_layout`]: the CRC-32 of every byte before the trailer, and
/// every value the header cannot bound. Offsets run from 0 to the entry
/// count without falling, ids are below `n` and hops in `1..=L` in both
/// views, the per-node counts sum to the entry total and each hop sum lies
/// in `[count, L·count]`, so no read of the opened index can index out of
/// range or underflow a gain.
///
/// Its parts are runs of layers on [`parallel::fan_out`] (the first also
/// hashes the header, the last also the aggregates), and their CRCs fold
/// with [`crc32_combine`](crate::crc::crc32_combine). The aggregates, `O(n)`
/// and last in the file, are checked after the parts. A checksum mismatch
/// is named before any fault, and faults are named in file order, at any
/// worker count.
fn sweep(bytes: &[u8], layout: &V4Layout, threads: usize) -> std::io::Result<()> {
    let (n, l, specs) = (layout.n, layout.l, &layout.layers);
    let entries: usize = specs.iter().map(|s| s.entries).sum();
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let chunk = parallel::part_len(specs.len(), n + entries, threads);
    let parts = parallel::fan_out(specs.chunks(chunk).enumerate(), |(i, run)| {
        let lo = if i == 0 { 0 } else { run[0].offsets };
        let hi = specs
            .get((i + 1) * chunk)
            .map_or(layout.content_len, |s| s.offsets);
        let (mut crc, mut pos, mut fault) = (crate::crc::Crc32::new(), lo, None);
        // Hashes up to the section of `len` bytes at `at`, then the section
        // one block at a time, each checked by `ok` just after it is hashed.
        // The first section to fail names the part's fault.
        let mut section = |at: usize, len: usize, what, ok: &mut dyn FnMut(&[u8]) -> bool| {
            crc.update(&bytes[pos..at]);
            pos = at + len;
            for block in bytes[at..pos].chunks(SWEEP_BLOCK) {
                crc.update(block);
                if fault.is_none() && !ok(block) {
                    fault = Some(what);
                }
            }
        };
        for s in run {
            let views = [
                (s.offsets, s.ids, s.weights),
                (s.fwd_offsets, s.fwd_ids, s.fwd_weights),
            ];
            for (offsets, ids, hops) in views {
                let ends = u32_at(offsets) == 0 && u32_at(offsets + 4 * n) == s.entries as u32;
                let mut prev = 0u32;
                section(offsets, 4 * (n + 1), "offset/posting mismatch", &mut |b| {
                    ends && storage::le_values(b).all(|v| std::mem::replace(&mut prev, v) <= v)
                });
                section(ids, 4 * s.entries, "posting id out of range", &mut |b| {
                    (storage::le_values(b).fold(0, u32::max) as usize) < n
                });
                // A hop of 0 wraps to the largest value, so one bound
                // refuses both 0 and L + 1.
                section(hops, 2 * s.entries, "hop weight outside 1..=L", &mut |b| {
                    storage::le_values(b).fold(0, |m, w: u16| m.max(w.wrapping_sub(1))) < l as u16
                });
            }
        }
        crc.update(&bytes[pos..hi]);
        (crc.finish(), (hi - lo) as u64, fault)
    });
    let mut parts = parts.into_iter();
    let (mut crc, _, mut fault) = parts.next().expect("an index has at least one layer");
    for (part_crc, len, part_fault) in parts {
        crc = crate::crc::crc32_combine(crc, part_crc, len);
        fault = fault.or(part_fault);
    }
    if bytes[layout.content_len..] != crc.to_le_bytes() {
        return Err(RWDIDX4.corrupt("content checksum mismatch"));
    }
    let counts = || storage::le_values::<u64>(&bytes[layout.counts..][..8 * n]);
    let hop_sums = storage::le_values::<u64>(&bytes[layout.hop_sums..][..8 * n]);
    let fault = fault
        .or_else(|| {
            let sum: u128 = counts().map(u128::from).sum();
            (sum != entries as u128)
                .then_some("aggregate posting counts disagree with the entry table")
        })
        .or_else(|| {
            let out = counts()
                .zip(hop_sums)
                .any(|(c, h)| h < c || h as u128 > l as u128 * c as u128);
            out.then_some("aggregate hop sum outside [count, L·count]")
        });
    fault.map_or(Ok(()), |what| Err(RWDIDX4.corrupt(what)))
}

/// What [`inspect_index_file`] reports: the facts the header and section
/// structure encode, plus whether the CRC trailer matches — all without
/// constructing a [`WalkIndex`]. It runs none of the opens' range checks,
/// so a checksum-valid file that both opens refuse for an out-of-range
/// value still reports `crc_ok: true`.
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
/// layer range, posting count, alignment — and checks the CRC trailer,
/// without constructing an index: the file's bytes are read as
/// [`WalkIndex::load`] reads them and hashed once on one thread; no column
/// is decoded, no value is range-checked, and memory beyond the bytes is
/// `O(R)`. The bytes are a map where the host maps the file, and a heap
/// copy of the whole file otherwise. Structural
/// corruption (impossible sizes, bad tiling, a retired or foreign magic)
/// errors out; a CRC mismatch is *reported* (`crc_ok: false`) so damaged
/// files can still be triaged.
pub fn inspect_index_file(path: impl AsRef<std::path::Path>) -> std::io::Result<IndexFileInfo> {
    let file = IndexFile::open(path.as_ref())?;
    let bytes = file.whole()?;
    let layout = read_layout(&bytes)?;
    Ok(IndexFileInfo {
        version: 4,
        n: layout.n as u64,
        l: layout.l as u64,
        layer_count: layout.layers.len() as u64,
        layer_base: layout.layer_base as u64,
        seed: layout.seed,
        total_postings: layout.layers.iter().map(|s| s.entries as u64).sum(),
        section_align: V4_ALIGN,
        file_bytes: bytes.len() as u64,
        crc_ok: storage::check_trailer(&RWDIDX4, &bytes).is_ok(),
    })
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
        let idx = WalkIndex::from_walks(8, 2, &paper_example::example31_walks());

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
        let idx = WalkIndex::from_walks(8, 2, &paper_example::example31_walks());
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
        let idx = WalkIndex::from_walks(8, 2, &paper_example::example31_walks());
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
        let mut bytes = RWDIDX4.magic.to_vec();
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

    /// Where a file cannot be mapped, the load sweeps one heap read of it
    /// and then reads each layer's inverted sections again: it lands on the
    /// mapped load's index at any worker count, and refuses a bit-rotted
    /// file, an out-of-range id under a valid trailer and an empty file by
    /// the same names.
    #[test]
    fn an_unmapped_load_lands_on_the_mapped_loads_index() {
        let dir = std::env::temp_dir().join(format!("rwd_index_unmapped_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.rwdidx");
        let g = rwd_graph::generators::barabasi_albert(400, 3, 5).unwrap();
        let idx = WalkIndex::build(&g, 5, 4, 11);
        idx.save(&path).unwrap();
        let unmapped = |threads| {
            let file = IndexFile {
                file: std::sync::Mutex::new(std::fs::File::open(&path).unwrap()),
                map: None,
            };
            WalkIndex::load_from(&file, threads)
        };
        assert!(WalkIndex::load(&path).unwrap() == idx);
        for threads in [1, 4] {
            assert!(unmapped(threads).unwrap() == idx, "{threads} workers");
        }
        let good = std::fs::read(&path).unwrap();
        let layout = read_layout(&good).unwrap();
        let mut rot = good.clone();
        rot[layout.layers[1].ids] ^= 0x01;
        let mut far = good.clone();
        far[layout.layers[1].ids..][..4].copy_from_slice(&1_000_000u32.to_le_bytes());
        let crc = crate::crc::crc32(&far[..layout.content_len]);
        far[layout.content_len..].copy_from_slice(&crc.to_le_bytes());
        for (bytes, what) in [
            (rot, "content checksum mismatch"),
            (far, "posting id out of range"),
            (Vec::new(), "bad magic"),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            for err in [
                WalkIndex::load(&path).unwrap_err(),
                unmapped(1).unwrap_err(),
            ] {
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
                assert!(err.to_string().contains(what), "{what}: {err}");
            }
        }
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

    // --- overlays: write-once rows over immutable bases ------------------

    /// A graph the overlay suite can churn one edge at a time.
    trait Flip: WalkGraph + Sized {
        /// The graph with edge `(u, v)` deleted when present or inserted
        /// (weight 1.5 where edges carry one) when absent, and its touched
        /// endpoints.
        fn flip(&self, u: u32, v: u32) -> (Self, Vec<NodeId>);
    }

    impl Flip for rwd_graph::CsrGraph {
        fn flip(&self, u: u32, v: u32) -> (Self, Vec<NodeId>) {
            if self.has_edge(NodeId(u), NodeId(v)) {
                self.with_edits(&[], &[(u, v)])
            } else {
                self.with_edits(&[(u, v)], &[])
            }
            .unwrap()
        }
    }

    impl Flip for rwd_graph::weighted::WeightedCsrGraph {
        fn flip(&self, u: u32, v: u32) -> (Self, Vec<NodeId>) {
            if self.has_edge(NodeId(u), NodeId(v)) {
                self.with_edits(&[], &[(u, v)])
            } else {
                self.with_edits(&[(u, v, 1.5)], &[])
            }
            .unwrap()
        }
    }

    fn mapped_path_available() -> bool {
        cfg!(unix) && cfg!(target_endian = "little")
    }

    /// The overlay suite's graph: a BA graph whose minimum-degree nodes
    /// give one-edge flips that change a few rows of every layer.
    fn overlay_graph() -> rwd_graph::CsrGraph {
        rwd_graph::generators::barabasi_albert(400, 3, 21).unwrap()
    }

    /// `steps` flips, each between two of `g`'s minimum-degree nodes.
    fn low_degree_flips(g: &rwd_graph::CsrGraph, steps: usize) -> Vec<(u32, u32)> {
        let low: Vec<u32> = (0..g.n() as u32)
            .filter(|&u| g.degree(NodeId(u)) == 3)
            .collect();
        (0..steps)
            .map(|i| (low[(2 * i) % low.len()], low[(2 * i + 7) % low.len()]))
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect()
    }

    /// The chain's graphs: each one flip away from the last, with the
    /// touched endpoints.
    fn flip_chain<G: Flip>(g0: &G, flips: &[(u32, u32)]) -> Vec<(G, NodeSet)> {
        let mut chain: Vec<(G, NodeSet)> = Vec::new();
        for &(u, v) in flips {
            let (next, touched) = chain.last().map_or(g0, |(g, _)| g).flip(u, v);
            chain.push((next, NodeSet::from_nodes(g0.n(), touched)));
        }
        chain
    }

    /// Each view's base pointer, layer by layer: a fold is a changed one.
    fn base_ptrs(idx: &WalkIndex) -> Vec<*const Csr> {
        idx.layers
            .iter()
            .flat_map(|la| [Arc::as_ptr(&la.inv.base), Arc::as_ptr(&la.fwd.base)])
            .collect()
    }

    fn has_overlay(idx: &WalkIndex) -> bool {
        idx.layers
            .iter()
            .any(|la| la.inv.overlay.is_some() || la.fwd.overlay.is_some())
    }

    /// `idx` answers exactly as `cold` on every read path.
    fn assert_same_answers(idx: &WalkIndex, cold: &WalkIndex, ctx: &str) {
        assert!(idx == cold, "{ctx}: index != cold build");
        let n = cold.n();
        assert_eq!(idx.total_postings(), cold.total_postings(), "{ctx}");
        for v in (0..n).map(NodeId::new) {
            for layer in 0..cold.r() {
                assert_eq!(
                    idx.postings(layer, v),
                    cold.postings(layer, v),
                    "{ctx}: postings"
                );
                assert_eq!(
                    idx.forward(layer, v),
                    cold.forward(layer, v),
                    "{ctx}: forward"
                );
            }
            assert_eq!(idx.posting_count(v), cold.posting_count(v), "{ctx}: count");
            assert_eq!(
                idx.posting_hop_sum(v),
                cold.posting_hop_sum(v),
                "{ctx}: hop sum"
            );
        }
        let sets = [
            NodeSet::from_nodes(n, [NodeId(0)]),
            NodeSet::from_nodes(n, (0..n).step_by(37).map(NodeId::new)),
        ];
        for set in &sets {
            for u in (0..n).map(NodeId::new) {
                assert_eq!(
                    idx.point_contribution(u, set),
                    cold.point_contribution(u, set),
                    "{ctx}: point contribution"
                );
            }
            assert_eq!(
                idx.covered_layer_counts(set),
                cold.covered_layer_counts(set),
                "{ctx}"
            );
            assert_eq!(
                idx.top_m_uncovered(10, set),
                cold.top_m_uncovered(10, set),
                "{ctx}"
            );
            assert_eq!(
                idx.estimate_hit_times(set),
                cold.estimate_hit_times(set),
                "{ctx}"
            );
            assert_eq!(
                idx.estimate_hit_probs(set),
                cold.estimate_hit_probs(set),
                "{ctx}"
            );
        }
    }

    /// Runs the overlay grid over one graph kind: from a built and a
    /// mapped start, pinned and unpinned, on 1 and 2 threads, refreshes
    /// along the flip chain. After every step the index must answer as a
    /// cold build on every read path, `save` must write the cold build's
    /// RWDIDX4 bytes, and `load` / `open_mapped` of that file must equal
    /// it. Every chain must both hold an overlay and fold at least twice,
    /// and the fold counter must rise by at least the folds seen.
    fn overlay_grid<G: Flip + Sync>(g0: &G, flips: &[(u32, u32)], what: &str) {
        let (l, r, seed) = (5u32, 4usize, 77u64);
        let dir = std::env::temp_dir().join(format!("rwd_overlay_{what}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.rwdidx");
        let chain = flip_chain(g0, flips);
        let colds: Vec<(WalkIndex, Vec<u8>)> = chain
            .iter()
            .map(|(g, _)| {
                let cold = WalkIndex::build_with_threads(g, l, r, seed, 1);
                cold.save(&path).unwrap();
                (cold, std::fs::read(&path).unwrap())
            })
            .collect();
        let built = WalkIndex::build_with_threads(g0, l, r, seed, 1);
        let start_path = dir.join("start.rwdidx");
        built.save(&start_path).unwrap();
        let mut starts = vec![("built", built)];
        if mapped_path_available() {
            starts.push(("mapped", WalkIndex::open_mapped(&start_path).unwrap()));
        }

        let counter_before = crate::obs::metrics().overlay_folds.get();
        let mut folds_seen = 0;
        for (start_name, start) in &starts {
            for pinned in [false, true] {
                for threads in [1, 2] {
                    let chain_ctx =
                        format!("{what}, {start_name} start, pinned {pinned}, {threads} threads");
                    let mut idx = start.clone();
                    let mut pins = Vec::new();
                    let (mut overlaid, mut folds) = (false, 0);
                    for (step, ((g, touched), (cold, bytes))) in
                        chain.iter().zip(&colds).enumerate()
                    {
                        let ctx = format!("{chain_ctx}, step {step}");
                        let before = base_ptrs(&idx);
                        if pinned {
                            pins.push(idx.clone());
                        }
                        idx.refresh(g, touched, threads);
                        folds += base_ptrs(&idx)
                            .iter()
                            .zip(&before)
                            .filter(|(a, b)| a != b)
                            .count();
                        overlaid |= has_overlay(&idx);
                        assert_same_answers(&idx, cold, &ctx);
                        idx.save(&path).unwrap();
                        assert!(
                            std::fs::read(&path).unwrap() == *bytes,
                            "{ctx}: saved bytes"
                        );
                        assert!(WalkIndex::load(&path).unwrap() == *cold, "{ctx}: load");
                        if mapped_path_available() {
                            assert!(
                                WalkIndex::open_mapped(&path).unwrap() == *cold,
                                "{ctx}: mapped"
                            );
                        }
                    }
                    for (pin, (cold, _)) in pins.iter().skip(1).zip(&colds) {
                        assert!(pin == cold, "{chain_ctx}: a pinned epoch changed");
                    }
                    assert!(overlaid, "{chain_ctx}: no step left an overlay");
                    assert!(folds >= 2, "{chain_ctx}: only {folds} views folded");
                    folds_seen += folds;
                }
            }
        }
        let counter = crate::obs::metrics().overlay_folds.get() - counter_before;
        assert!(
            counter >= folds_seen as u64,
            "fold counter rose by {counter}, {folds_seen} folds seen"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlay_chains_equal_cold_builds_on_every_read_path_and_in_saved_bytes() {
        let g0 = overlay_graph();
        let flips = low_degree_flips(&g0, 12);
        overlay_grid(&g0, &flips, "unweighted");
        let w0 = rwd_graph::weighted::weighted_twin(&g0, 3).unwrap();
        overlay_grid(&w0, &flips, "weighted");
    }

    #[test]
    fn overlay_reads_are_o1_slot_lookups_over_the_bitset() {
        // Rows 0, 63, 64 and 130 replaced over a 131-row view: each slot is
        // the replaced rows below it, and every other row reads the base.
        let mut bits = vec![0u64; 3];
        for v in [0usize, 63, 64, 130] {
            bits[v / 64] |= 1 << (v % 64);
        }
        let o = Overlay::new(
            bits,
            Csr::owned(vec![0, 1, 1, 3, 4], vec![9, 7, 8, 5], vec![1, 1, 2, 3]),
        );
        assert_eq!(o.rank, vec![0, 2, 3]);
        assert_eq!(o.replaced().collect::<Vec<_>>(), vec![0, 63, 64, 130]);
        for (slot, v) in [0usize, 63, 64, 130].into_iter().enumerate() {
            assert_eq!(o.slot(v), Some(slot));
        }
        assert_eq!(o.slot(1), None);
        assert_eq!(o.slot(129), None);
        let view = View {
            base: Arc::new(Csr::owned(vec![0; 132], Vec::new(), Vec::new())),
            overlay: Some(o),
            len: 4,
        };
        assert_eq!(view.row(64).ids(), &[7, 8]);
        assert_eq!(view.row(63).ids(), &[] as &[u32]);
        assert!(view.row(5).is_empty());
    }

    /// `heap_bytes() + mapped_bytes()` is the exact size of the columns:
    /// per view, a base of `4(n + 1)` offset bytes and 6 bytes per base
    /// posting (a 4-byte id and a 2-byte hop), plus, under an overlay, its
    /// bitset and rank (12 bytes per 64 rows), `4(rows + 1)` offset bytes
    /// and 6 bytes per replacement posting; plus 16 bytes per node of
    /// aggregates. A refresh allocates every column it writes at its exact
    /// length, so the identity holds along a refresh chain from a built, a
    /// loaded or a mapped-open index, whether or not a clone pins each
    /// previous epoch the way a serving snapshot does.
    #[test]
    fn heap_accounting_is_exact_along_refresh_chains() {
        let g0 = overlay_graph();
        let n = g0.n();
        let (l, r, seed) = (5, 6, 17);
        let built = WalkIndex::build(&g0, l, r, seed);
        let dir = std::env::temp_dir().join(format!("rwd_index_accounting_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mono.rwdidx");
        built.save(&path).unwrap();
        let mut starts = vec![
            ("built", built.clone()),
            ("loaded", WalkIndex::load(&path).unwrap()),
        ];
        if mapped_path_available() {
            starts.push(("mapped", WalkIndex::open_mapped(&path).unwrap()));
        }
        let view_bytes = |view: &View| {
            let base = 4 * (n + 1) + 6 * view.base.ids.len();
            base + view.overlay.as_ref().map_or(0, |o| {
                let rows = o.replaced().count();
                let postings: usize = (0..rows).map(|k| o.rows.row(k).len()).sum();
                12 * n.div_ceil(64) + 4 * (rows + 1) + 6 * postings
            })
        };
        let exact = |idx: &WalkIndex| {
            idx.layers
                .iter()
                .map(|la| view_bytes(&la.inv) + view_bytes(&la.fwd))
                .sum::<usize>()
                + 16 * n
        };

        let chain = flip_chain(&g0, &low_degree_flips(&g0, 8));
        let rebuilt = WalkIndex::build(&chain.last().unwrap().0, l, r, seed);
        for (what, start) in &starts {
            assert_eq!(start.heap_bytes() + start.mapped_bytes(), exact(start));
            for pinned in [false, true] {
                for threads in [1, 2] {
                    let mut idx = start.clone();
                    let mut pins = Vec::new();
                    let mut overlaid = false;
                    for (step, (g, touched)) in chain.iter().enumerate() {
                        if pinned {
                            pins.push(idx.clone());
                        }
                        idx.refresh(g, touched, threads);
                        overlaid |= has_overlay(&idx);
                        assert_eq!(
                            idx.heap_bytes() + idx.mapped_bytes(),
                            exact(&idx),
                            "{what} index, pinned {pinned}, {threads} threads, refresh {step}"
                        );
                    }
                    assert!(overlaid, "{what} refresh chain never held an overlay");
                    assert!(idx == rebuilt, "{what} refresh chain drifted");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A mapped base that folds away is dropped with its last holder, and
    /// the dropped table hands its pages back while the views still mapped
    /// keep reading the same file mapping. Refreshed until views fold,
    /// unpinned and pinned (each pin kept for two more epochs), the index
    /// must equal its cold build after every step, and so must every pin.
    #[test]
    fn released_mapped_bases_leave_the_index_equal_to_its_cold_build() {
        if !mapped_path_available() {
            return;
        }
        let g0 = overlay_graph();
        // L = 10 makes every id column several pages long, so a dropped
        // base has whole pages to release.
        let (l, r, seed) = (10u32, 4usize, 77u64);
        let chain = flip_chain(&g0, &low_degree_flips(&g0, 12));
        let dir = std::env::temp_dir().join(format!("rwd_index_release_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("start.rwdidx");
        let built = WalkIndex::build_with_threads(&g0, l, r, seed, 1);
        built.save(&path).unwrap();
        let mut colds = vec![built];
        colds.extend(
            chain
                .iter()
                .map(|(g, _)| WalkIndex::build_with_threads(g, l, r, seed, 1)),
        );
        for pinned in [false, true] {
            let mut idx = WalkIndex::open_mapped(&path).unwrap();
            let opened: Vec<_> = idx
                .layers
                .iter()
                .flat_map(|la| [Arc::downgrade(&la.inv.base), Arc::downgrade(&la.fwd.base)])
                .collect();
            let mut pins = std::collections::VecDeque::new();
            for (step, (g, touched)) in chain.iter().enumerate() {
                if pinned {
                    pins.push_back((step, idx.clone()));
                }
                idx.refresh(g, touched, 1);
                assert!(idx == colds[step + 1], "pinned {pinned}, step {step}");
                if pins.len() > 2 {
                    let (epoch, pin) = pins.pop_front().unwrap();
                    assert!(pin == colds[epoch], "pinned epoch {epoch} changed");
                }
            }
            for (epoch, pin) in &pins {
                assert!(*pin == colds[*epoch], "pinned epoch {epoch} changed");
            }
            let released = opened.iter().filter(|b| b.strong_count() == 0).count();
            assert!(
                released >= 2,
                "pinned {pinned}: only {released} mapped bases were dropped"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
