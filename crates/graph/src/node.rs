//! Dense node identifiers.

use std::fmt;

/// A dense node identifier in `[0, n)`.
///
/// `NodeId` is a `u32` newtype: every graph in this workspace relabels its
/// vertices into a dense range so that per-node state can live in flat
/// vectors instead of hash maps. A `u32`
/// supports graphs up to ~4.3 billion nodes, far beyond anything the paper
/// evaluates, while halving index memory versus `usize` on 64-bit targets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates a node id from a `usize` index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        debug_assert!(index <= u32::MAX as usize, "node index exceeds u32");
        NodeId(index as u32)
    }

    /// Returns the id as a `usize`, suitable for indexing flat arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    #[inline]
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl From<NodeId> for usize {
    #[inline]
    fn from(v: NodeId) -> Self {
        v.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_usize() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(usize::from(id), 42);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(7), NodeId::new(7));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(NodeId(3).to_string(), "3");
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId(0));
    }
}
