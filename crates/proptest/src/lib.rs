//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! package implements the slice of proptest this repository uses:
//!
//! * the [`proptest!`] macro (with an optional
//!   `#![proptest_config(...)]` header),
//! * range, tuple and [`collection::vec`] strategies plus [`any`],
//! * [`prop_assert!`], [`prop_assert_eq!`] and [`prop_assume!`].
//!
//! Cases are generated from a deterministic per-test seed, overridable
//! with `PROPTEST_SEED`, and the case count with `PROPTEST_CASES`. There
//! is **no shrinking**: a failing case reports its case index and master
//! seed so it can be replayed exactly with
//! `PROPTEST_SEED=<seed> cargo test <name>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

pub use rand::rngs::StdRng as TestRng;
use rand::{Rng, SeedableRng};

/// Per-test configuration (subset of proptest's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases (upstream defaults to 256; the shim trades a thinner
    /// sweep for test-suite latency), overridable via `PROPTEST_CASES`.
    fn default() -> Self {
        ProptestConfig {
            cases: env_u64("PROPTEST_CASES").map_or(64, |v| v as u32),
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The master seed for this process: `PROPTEST_SEED` or a fixed default.
#[must_use]
pub fn master_seed() -> u64 {
    env_u64("PROPTEST_SEED").unwrap_or(0x0_5EED_CAFE)
}

/// The generator for one case: derived from the master seed and case
/// index, so any case replays independently.
#[must_use]
pub fn case_rng(master: u64, case: u32) -> TestRng {
    TestRng::seed_from_u64(master ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// A value generator (subset of proptest's `Strategy`: generation only,
/// no shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! numeric_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

numeric_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! tuple_strategies {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Types with a default full-domain strategy, for [`any`].
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy producing any value of `T` (subset: the workspace only uses
/// integer types here).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Length bounds for [`vec()`]: a fixed size or a (half-open or
    /// inclusive) range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Everything tests import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over `cases` generated inputs.
///
/// Unlike upstream proptest there is no shrinking; failures print the
/// case index and master seed for exact replay.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __master = $crate::master_seed();
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::case_rng(__master, __case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    let __result = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| { $body }),
                    );
                    if let Err(panic) = __result {
                        eprintln!(
                            "proptest case {}/{} failed (master seed {}); replay with \
                             PROPTEST_SEED={} cargo test {}",
                            __case + 1,
                            __cfg.cases,
                            __master,
                            __master,
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let master = super::master_seed();
        let mut rng = super::case_rng(master, 0);
        let v = (0.5..6.0f64).generate(&mut rng);
        assert!((0.5..6.0).contains(&v));
        let (x, y) = (-10.0..10.0f64, 0usize..6).generate(&mut rng);
        assert!((-10.0..10.0).contains(&x) && y < 6);
        let xs = collection::vec((0usize..6, 0usize..6), 0..18).generate(&mut rng);
        assert!(xs.len() < 18);
        let fixed = collection::vec(0.0..1.0f64, 4).generate(&mut rng);
        assert_eq!(fixed.len(), 4);
        let nested = collection::vec(collection::vec(0.0..100.0f64, 4), 1..5).generate(&mut rng);
        assert!((1..5).contains(&nested.len()));
        assert!(nested.iter().all(|row| row.len() == 4));
    }

    #[test]
    fn generation_is_deterministic_per_case() {
        let a: u64 = any::<u64>().generate(&mut super::case_rng(1, 3));
        let b: u64 = any::<u64>().generate(&mut super::case_rng(1, 3));
        let c: u64 = any::<u64>().generate(&mut super::case_rng(1, 4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: runs, sees bound values, supports assume.
        #[test]
        fn macro_end_to_end(seed in any::<u64>(), n in 1usize..5, x in -1.0..1.0f64) {
            prop_assume!(n != 999);
            prop_assert!((1..5).contains(&n));
            prop_assert!((-1.0..1.0).contains(&x));
            prop_assert_eq!(seed, seed);
            prop_assert_ne!(n, 999);
        }
    }
}
