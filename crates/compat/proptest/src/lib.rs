//! Vendored, dependency-free stand-in for the [`proptest`] crate.
//!
//! The build environment has no network access, so the real crate cannot be
//! fetched. This shim implements exactly the surface the workspace's property
//! tests use:
//!
//! - the [`proptest!`] macro with an optional `#![proptest_config(..)]`
//!   header and `arg in strategy` parameters
//! - [`Strategy`] with [`Strategy::prop_map`], range strategies
//!   (half-open and inclusive, integer and float), tuple strategies up to
//!   arity 10, [`any`], [`collection::vec`], [`collection::btree_set`],
//!   [`sample::select`], and weighted/unweighted [`prop_oneof!`]
//! - [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`], and
//!   [`prop_assume!`] (a rejected case is redrawn; more than 1024
//!   rejections fail the test, as upstream's default)
//!
//! Semantics differ from upstream in one deliberate way: failing cases are
//! reported (with the case index and seed) but **not shrunk**. Generation is
//! deterministic — each test function derives its per-case seeds from its own
//! name, so failures reproduce exactly across runs.
//!
//! [`proptest`]: https://crates.io/crates/proptest

#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Strategies for collections (`Vec`, `BTreeSet`).

    use std::collections::BTreeSet;
    use std::ops::Range;

    use rand::rngs::SmallRng;
    use rand::Rng;

    use crate::strategy::Strategy;

    /// Strategy producing a `Vec` whose length is drawn from `size` and
    /// whose elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy producing a `BTreeSet` with up to `size` elements (duplicates
    /// drawn from `element` collapse, as in upstream's minimum-size-0 usage).
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut SmallRng) -> BTreeSet<S::Value> {
            let target = rng.gen_range(self.size.clone());
            let mut set = BTreeSet::new();
            // Bounded retry: duplicates shrink the set below `target`, which
            // is acceptable for min-size-0 ranges (the only usage here).
            for _ in 0..target.saturating_mul(4) {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.generate(rng));
            }
            set
        }
    }
}

pub mod sample {
    //! Strategies that sample from explicit value lists.

    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;

    use crate::strategy::Strategy;

    /// Strategy choosing uniformly from `values`.
    ///
    /// # Panics
    ///
    /// Panics at generation time if `values` is empty.
    pub fn select<T: Clone + std::fmt::Debug>(values: Vec<T>) -> Select<T> {
        Select { values }
    }

    /// See [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        values: Vec<T>,
    }

    impl<T: Clone + std::fmt::Debug> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut SmallRng) -> T {
            self.values
                .choose(rng)
                .expect("select: empty value list")
                .clone()
        }
    }
}

pub mod arbitrary {
    //! The [`Arbitrary`] trait and the [`any`] entry point.

    use rand::rngs::SmallRng;
    use rand::{Rng, Standard};

    use crate::strategy::Strategy;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value covering the full domain of `Self`.
        fn arbitrary(rng: &mut SmallRng) -> Self;
    }

    impl<T: Standard> Arbitrary for T {
        fn arbitrary(rng: &mut SmallRng) -> T {
            rng.gen()
        }
    }

    /// Strategy for any value of `T` (uniform over the domain).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    /// See [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary + std::fmt::Debug> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut SmallRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude::*`.

    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Builds a strategy choosing among alternatives, optionally weighted:
/// `prop_oneof![a, b]` or `prop_oneof![3 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::boxed($strategy))),+
        ])
    };
}

/// Fails the current case with a message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Rejects the current case unless `cond` holds: the runner draws another
/// in its place.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left == *right, $($fmt)+);
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left != *right, $($fmt)+);
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a test running `body` over `ProptestConfig::cases` generated
/// inputs. An optional `#![proptest_config(expr)]` header overrides the
/// default configuration.
#[macro_export]
macro_rules! proptest {
    (@run ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(
                    $config,
                    concat!(module_path!(), "::", stringify!($name)),
                    |__proptest_rng| {
                        $(
                            let $arg = $crate::strategy::Strategy::generate(
                                &($strategy),
                                __proptest_rng,
                            );
                        )+
                        $body
                        ::core::result::Result::Ok(())
                    },
                );
            }
        )*
    };
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn even() -> impl Strategy<Value = u64> {
        (0u64..1000).prop_map(|x| x * 2)
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(
            x in 5u64..10,
            y in -3i32..=3,
            f in 0.25f64..0.75,
        ) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((-3..=3).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn map_and_tuples_compose(pair in (even(), any::<bool>())) {
            prop_assert_eq!(pair.0 % 2, 0);
            let _ = pair.1;
        }

        #[test]
        fn collections_respect_sizes(
            v in prop::collection::vec(0u64..50, 2..8),
            s in prop::collection::btree_set(0u64..1_000_000, 0..10),
        ) {
            prop_assert!((2..8).contains(&v.len()));
            prop_assert!(s.len() < 10);
        }

        #[test]
        fn oneof_hits_every_arm(picks in prop::collection::vec(
            prop_oneof![3 => Just(0u8), 1 => Just(1u8), 1 => Just(2u8)],
            200..201,
        )) {
            for p in &picks {
                prop_assert!(*p <= 2);
            }
            // With 200 draws, every arm appears (probability of a miss is
            // astronomically small and, being seeded, fixed forever).
            for arm in 0..=2u8 {
                prop_assert!(picks.contains(&arm), "arm {} never chosen", arm);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn config_header_is_honoured(x in prop::sample::select(vec![1u8, 2, 3])) {
            prop_assert!((1..=3).contains(&x));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        let strat = (0u64..1_000_000, 0f64..1.0);
        let mut a = rand::rngs::SmallRng::seed_from_u64(42);
        let mut b = rand::rngs::SmallRng::seed_from_u64(42);
        use rand::SeedableRng;
        for _ in 0..100 {
            assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        }
    }

    #[test]
    fn rejected_cases_are_redrawn() {
        use crate::strategy::Strategy;
        let mut passed = 0;
        crate::test_runner::run(ProptestConfig::with_cases(20), "rejects", |rng| {
            let x = (0u32..4).generate(rng);
            prop_assume!(x == 0);
            passed += 1;
            Ok(())
        });
        assert_eq!(passed, 20, "every passing case counts, no rejected one");
    }

    #[test]
    #[should_panic(expected = "rejected too many cases")]
    fn rejecting_every_case_fails() {
        crate::test_runner::run(ProptestConfig::with_cases(1), "rejects_all", |_rng| {
            prop_assume!(false);
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn failing_case_panics_with_message() {
        crate::test_runner::run(
            ProptestConfig::with_cases(3),
            "failing_case",
            |_rng| -> Result<(), TestCaseError> { Err(TestCaseError::fail("boom".into())) },
        );
    }
}
