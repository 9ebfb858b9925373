//! Compact posting deltas emitted by incremental refreshes.
//!
//! [`WalkIndex::refresh`](crate::WalkIndex::refresh) re-walks exactly the
//! `(src, layer)` groups a batch can have changed and reports *what*
//! changed: per resampled group, the inverted postings the group dropped
//! and the postings it now produces, each with its first-visit hop. That
//! is the exact edit script between two index epochs — a consumer holding
//! epoch-`t` derived state (e.g. the persistent gain tables of
//! `DeltaGainEngine`) can patch itself to epoch `t+1` in `O(|delta|)`
//! instead of re-deriving from the full index.
//!
//! Layer indices in a delta are **absolute** (`layer_base + local`), so
//! deltas from a set of layer-range shards can be interpreted against the
//! global layer order without translation.

/// One changed inverted posting: `(owner, src, hop)` — the walk of `src`
/// (in the delta's layer) first visits `owner` at hop `hop`.
pub type PostingEdit = (u32, u32, u16);

/// The posting edits of one walk layer for one refresh.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerDelta {
    /// Absolute layer index (`layer_base + local`).
    pub layer: usize,
    /// Sources whose walk group was re-walked, ascending. Every edit in
    /// `removed`/`added` names one of these sources; a resampled group may
    /// also reproduce its old postings exactly (both lists then carry the
    /// identical entries).
    pub resampled: Vec<u32>,
    /// Old postings the resampled groups dropped (the groups' previous
    /// forward lists), grouped by source in ascending-source order.
    pub removed: Vec<PostingEdit>,
    /// New postings the resampled groups produced, grouped by source in
    /// ascending-source order (walk order within a group).
    pub added: Vec<PostingEdit>,
}

/// The full edit script of one [`WalkIndex::refresh`](crate::WalkIndex)
/// pass: one [`LayerDelta`] per layer that resampled at least one group,
/// in ascending absolute-layer order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PostingDelta {
    /// Per-layer edits, ascending by absolute layer; layers with no
    /// resampled group are omitted.
    pub layers: Vec<LayerDelta>,
}

impl PostingDelta {
    /// True when the refresh resampled nothing (the delta is a no-op).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total posting edits (removed + added) across all layers — the
    /// `O(|delta|)` a consumer pays to absorb this refresh.
    pub fn postings_changed(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.removed.len() + l.added.len())
            .sum()
    }

    /// Total `(src, layer)` groups resampled across all layers.
    pub fn groups_resampled(&self) -> usize {
        self.layers.iter().map(|l| l.resampled.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_across_layers() {
        let delta = PostingDelta {
            layers: vec![
                LayerDelta {
                    layer: 0,
                    resampled: vec![1, 4],
                    removed: vec![(2, 1, 1), (3, 4, 2)],
                    added: vec![(5, 1, 1)],
                },
                LayerDelta {
                    layer: 3,
                    resampled: vec![7],
                    removed: Vec::new(),
                    added: vec![(0, 7, 2), (1, 7, 3)],
                },
            ],
        };
        assert!(!delta.is_empty());
        assert_eq!(delta.postings_changed(), 5);
        assert_eq!(delta.groups_resampled(), 3);
        assert!(PostingDelta::default().is_empty());
    }
}
