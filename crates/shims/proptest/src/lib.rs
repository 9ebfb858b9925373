//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! The build environment has no registry access, so this shim implements the
//! subset of the proptest 1.x API this workspace's property tests use:
//!
//! * the [`Strategy`] trait with `prop_map` / `prop_flat_map`,
//! * range strategies (`0..n`, `2usize..=12`), tuple strategies (arity ≤ 4),
//!   [`Just`] and [`collection::vec`],
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//!   [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`] and
//!   [`prop_assume!`].
//!
//! Differences from real proptest: cases are drawn from a deterministic
//! per-test RNG (seeded from the test name, overridable with the
//! `PROPTEST_SEED` environment variable) and failures are **not shrunk** —
//! the failing case's message is reported as-is. Every property in this
//! workspace is cheap to rerun, so unshrunk counterexamples remain
//! debuggable.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Deterministic splitmix64-based RNG driving case generation.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is retried, not failed.
    Reject,
    /// A `prop_assert*` failed with this message.
    Fail(String),
}

impl TestCaseError {
    /// Builds the failure variant.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Builds the rejection variant.
    pub fn reject() -> Self {
        TestCaseError::Reject
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject => write!(f, "input rejected by prop_assume!"),
            TestCaseError::Fail(msg) => write!(f, "{msg}"),
        }
    }
}

/// Per-test configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of accepted cases each property must pass.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 128 }
    }
}

impl ProptestConfig {
    /// A config running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns
    /// for it (dependent generation).
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.new_value(rng)).new_value(rng)
    }
}

/// Strategy that always yields a clone of its value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Integer types range strategies can produce.
pub trait RangeValue: Copy + PartialOrd {
    /// Widens to `u64` (offset by `i64::MIN` for signed types if ever added).
    fn to_u64(self) -> u64;
    /// Inverse of [`RangeValue::to_u64`].
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_range_value {
    ($($t:ty),*) => {$(
        impl RangeValue for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}
impl_range_value!(u8, u16, u32, u64, usize);

impl<T: RangeValue> Strategy for Range<T> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        let (lo, hi) = (self.start.to_u64(), self.end.to_u64());
        assert!(lo < hi, "empty range strategy");
        T::from_u64(lo + rng.below(hi - lo))
    }
}

impl<T: RangeValue> Strategy for RangeInclusive<T> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        let (lo, hi) = (self.start().to_u64(), self.end().to_u64());
        assert!(lo <= hi, "empty range strategy");
        T::from_u64(lo + rng.below(hi - lo + 1))
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies (subset: `vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.lo + rng.below((self.size.hi - self.size.lo + 1) as u64) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Derives the deterministic base seed for a named test.
pub fn seed_for(test_name: &str) -> u64 {
    if let Ok(s) = std::env::var("PROPTEST_SEED") {
        if let Ok(v) = s.parse() {
            return v;
        }
    }
    // FNV-1a over the test name: stable across runs and platforms.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// Everything a property test module needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Defines property tests: each `fn name(pat in strategy, ..) { .. }` becomes
/// a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($config); $($rest)*);
    };
    (@impl ($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                use $crate::Strategy as _;
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::TestRng::new($crate::seed_for(concat!(
                    module_path!(), "::", stringify!($name)
                )));
                let mut accepted: u32 = 0;
                let mut attempts: u32 = 0;
                while accepted < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= config.cases.saturating_mul(20).max(100),
                        "proptest: too many inputs rejected by prop_assume! \
                         ({accepted}/{} cases accepted after {attempts} attempts)",
                        config.cases
                    );
                    $(let $pat = ($strategy).new_value(&mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body Ok(()) })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::TestCaseError::Reject) => continue,
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest case {} of {} failed: {msg}",
                                accepted + 1,
                                config.cases
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        // Not routed through `format!`: stringified source may contain braces.
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`): {}",
            stringify!($left), stringify!($right), l, r, format!($($fmt)+)
        );
    }};
}

/// Fails the current case unless the operands compare unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}` (both: `{:?}`)",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Rejects the current case (retried with fresh inputs) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u32..10, y in 5usize..=7) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((5..=7).contains(&y));
        }

        #[test]
        fn flat_map_dependent_values((n, v) in (1usize..5).prop_flat_map(|n| {
            (Just(n), collection::vec(0..n as u32, 1..8))
        })) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            for &x in &v {
                prop_assert!((x as usize) < n, "x {} out of range {}", x, n);
            }
        }

        #[test]
        fn assume_filters(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
            prop_assert_ne!(x % 2, 1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = crate::collection::vec(0u32..1000, 5..10);
        let a = strat.new_value(&mut crate::TestRng::new(42));
        let b = strat.new_value(&mut crate::TestRng::new(42));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_panic_with_message() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
