//! Greedy selection machinery.
//!
//! * [`driver`] — the paper's Algorithm 1: generic greedy over any
//!   marginal-gain oracle ([`GainOracle`]), in plain (full rescan) and lazy
//!   (CELF, the `[19]` acceleration the paper recommends) forms — the
//!   workspace's only plain and CELF rounds,
//! * [`approx`] — the Algorithm 4/5 gain engine over the inverted walk
//!   index, the oracle that makes the driver Algorithm 6,
//! * [`delta`] — the output-sensitive engine: exact gains maintained
//!   incrementally through the index's forward view, so a round costs an
//!   argmax plus repairs proportional to what the last commit changed,
//! * [`celf`] — the CELF heap entry, shared by the lazy driver and the
//!   delta engine's lazy argmax.
//!
//! All strategies select **identical** seed sets (asserted across the test
//! suites); they differ only in how much work each round performs.

pub mod approx;
pub mod celf;
pub mod delta;
pub mod driver;

pub use approx::{GainEngine, GainRule};
pub use celf::CelfEntry;
pub use delta::{DeltaGainEngine, EngineCore};
pub use driver::{greedy, greedy_lazy, greedy_plain, GainOracle, GreedyOutcome};

/// How greedy rounds evaluate marginal gains. Every strategy returns the
/// same selection (ties break toward the smaller node id everywhere); they
/// trade per-round work differently.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// Re-evaluate every candidate each round — the literal Algorithm 1 /
    /// paper-faithful Algorithm 6 (one full gain sweep per round).
    Sweep,
    /// CELF lazy evaluation (Leskovec et al., the paper's \[19\]): cached
    /// gains are upper bounds under submodularity, so only stale heap tops
    /// are re-evaluated.
    #[default]
    Celf,
    /// Delta-maintained exact gains over the walk index's forward view
    /// ([`DeltaGainEngine`]): rounds are an argmax over a maintained table
    /// plus output-sensitive repairs. Index-based solvers only; the
    /// [`crate::objective::Objective`]-driven solvers (`DpGreedy`,
    /// `SamplingGreedy`) have no index to maintain and treat this as
    /// [`Strategy::Celf`] (identical selections either way).
    Delta,
}

impl Strategy {
    /// Whether the strategy avoids full per-round rescans — the [`driver`]'s
    /// `lazy` bit.
    pub fn lazy(self) -> bool {
        !matches!(self, Strategy::Sweep)
    }
}

#[cfg(test)]
mod tests {
    use super::Strategy;

    #[test]
    fn default_is_celf_and_lazy_bit_maps() {
        assert_eq!(Strategy::default(), Strategy::Celf);
        assert!(!Strategy::Sweep.lazy());
        assert!(Strategy::Celf.lazy());
        assert!(Strategy::Delta.lazy());
    }
}
