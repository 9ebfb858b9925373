//! The shared CELF heap entry.
//!
//! The lazy driver [`crate::greedy::driver::greedy_lazy`] (over any gain
//! oracle) and the delta engine's lazy argmax push the same `(gain, node,
//! round)` records into a [`std::collections::BinaryHeap`]. The ordering is
//! gain-descending with ties broken toward the **smaller** node id, so a
//! CELF pop sequence resolves ties exactly like a plain ascending-id scan
//! and every strategy selects identical nodes.

use std::cmp::Ordering;

/// One CELF heap record: a cached marginal gain for `node`, valid as of
/// `round` (a stale `round` means the gain is an upper bound under
/// submodularity and the candidate needs re-evaluation, not the heap).
#[derive(Clone, Copy, Debug)]
pub struct CelfEntry {
    /// Cached marginal gain.
    pub gain: f64,
    /// Candidate node id.
    pub node: u32,
    /// Selection round the gain was computed in.
    pub round: usize,
}

impl PartialEq for CelfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for CelfEntry {}
impl PartialOrd for CelfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CelfEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.node.cmp(&self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn orders_by_gain_then_smaller_node() {
        let mut heap = BinaryHeap::new();
        for (gain, node) in [(1.0, 4u32), (2.0, 9), (2.0, 3), (0.5, 0)] {
            heap.push(CelfEntry {
                gain,
                node,
                round: 0,
            });
        }
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop().map(|e| e.node)).collect();
        assert_eq!(order, vec![3, 9, 4, 0], "gain desc, node asc on ties");
    }
}
