//! Offline, API-compatible subset of
//! [`proptest`](https://docs.rs/proptest/1): random property testing with
//! the upstream macro surface (`proptest!`, `prop_assert!`,
//! `prop_assert_eq!`, `prop_assume!`) and strategy combinators (integer and
//! float ranges, [`any`](prelude::any), tuples, [`collection::vec`],
//! [`option::of`], `prop_map`, [`Just`](strategy::Just)).
//!
//! Differences from upstream, deliberate for an offline subset:
//! - **no shrinking** — a failing case reports its inputs and seed but is
//!   not minimized;
//! - **fixed deterministic seeding** — each test function derives its RNG
//!   seed from its own name, so failures reproduce across runs without a
//!   persistence file;
//! - default case count is 64 (upstream: 256); `PROPTEST_CASES` overrides
//!   it as upstream.

use rand::rngs::StdRng;

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::StdRng;
    use rand::Rng;

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Keeps only values for which `f` returns true (rejection
        /// sampling, bounded; panics if the filter rejects everything).
        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence,
                f,
            }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_filter`].
    #[derive(Clone, Debug)]
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) whence: &'static str,
        pub(crate) f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;

        fn generate(&self, rng: &mut StdRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter rejected 1000 consecutive values: {}",
                self.whence
            )
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeFrom<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.start..=<$t>::MAX)
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($s:ident $idx:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A 0);
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
        (A 0, B 1, C 2, D 3, E 4, F 5);
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6);
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);
    }
}

pub mod arbitrary {
    //! The [`Arbitrary`] trait behind [`crate::prelude::any`].

    use super::StdRng;
    use rand::{Rng, RngCore};

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut StdRng) -> f64 {
            // Finite, sign-symmetric, spanning several magnitudes.
            let mag = rng.gen_range(-100.0f64..100.0);
            mag * mag * mag
        }
    }

    /// Strategy for "any value of `T`"; construct via
    /// [`crate::prelude::any`].
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T> Any<T> {
        pub(crate) fn new() -> Self {
            Self(core::marker::PhantomData)
        }
    }

    impl<T: Arbitrary> super::strategy::Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies ([`vec()`]).

    use super::strategy::Strategy;
    use super::StdRng;
    use rand::Rng;

    /// Strategy producing `Vec`s with length drawn from a range.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    /// Generates vectors of `element` values with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = if self.len.start >= self.len.end.saturating_sub(1) {
                self.len.start
            } else {
                rng.gen_range(self.len.clone())
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy producing `HashSet`s with a size drawn from a range (the
    /// set may come up short if the element strategy collides a lot).
    #[derive(Clone, Debug)]
    pub struct HashSetStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// Generates hash sets of `element` values with a size in `size`.
    pub fn hash_set<S>(element: S, size: core::ops::Range<usize>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: core::hash::Hash + Eq,
    {
        HashSetStrategy { element, size }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: core::hash::Hash + Eq,
    {
        type Value = std::collections::HashSet<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> std::collections::HashSet<S::Value> {
            let n = if self.size.start >= self.size.end.saturating_sub(1) {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            let mut set = std::collections::HashSet::with_capacity(n);
            // Bounded attempts: collisions must not loop forever.
            for _ in 0..n * 16 + 16 {
                if set.len() >= n {
                    break;
                }
                set.insert(self.element.generate(rng));
            }
            set
        }
    }
}

pub mod option {
    //! Option strategies ([`of`]).

    use super::strategy::Strategy;
    use super::StdRng;
    use rand::RngCore;

    /// Strategy producing `Option`s (`None` with probability 1/4, like
    /// upstream's default weight).
    #[derive(Clone, Debug)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// Generates `Some(value)` three quarters of the time, `None`
    /// otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.next_u64() % 4 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod test_runner {
    //! Case execution: [`ProptestConfig`], [`TestCaseError`] and the
    //! runner driving each generated case.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-test configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        /// 64 cases, or the count in the `PROPTEST_CASES` environment
        /// variable when it parses (upstream reads the same variable).
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            Self { cases }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// `prop_assert*` failed: the property is violated.
        Fail(String),
        /// `prop_assume!` failed: the inputs are uninteresting, skip.
        Reject,
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

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            match self {
                TestCaseError::Fail(msg) => write!(f, "{msg}"),
                TestCaseError::Reject => write!(f, "input rejected by prop_assume!"),
            }
        }
    }

    /// Result of one generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Stable seed derived from the test function's name (FNV-1a), so
    /// every run generates the same cases without a persistence file.
    pub fn seed_for(test_name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Runs `config.cases` generated cases of `body` over `strategy`.
    ///
    /// Panics on the first failing case, reporting the generated input via
    /// `Debug` where available is not attempted — the case index and seed
    /// are enough to reproduce deterministically.
    pub fn run<S, B>(config: &ProptestConfig, test_name: &str, strategy: &S, mut body: B)
    where
        S: Strategy,
        B: FnMut(S::Value) -> TestCaseResult,
    {
        let mut rng = StdRng::seed_from_u64(seed_for(test_name));
        let mut ran: u32 = 0;
        let mut attempts: u32 = 0;
        let max_attempts = config.cases.saturating_mul(16).max(256);
        while ran < config.cases {
            attempts += 1;
            if attempts > max_attempts {
                panic!(
                    "{test_name}: prop_assume! rejected too many cases \
                     ({ran}/{} ran after {attempts} attempts)",
                    config.cases
                );
            }
            let value = strategy.generate(&mut rng);
            match body(value) {
                Ok(()) => ran += 1,
                Err(TestCaseError::Reject) => continue,
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "{test_name}: property failed at case {ran} \
                         (deterministic seed {}): {msg}",
                        seed_for(test_name)
                    );
                }
            }
        }
    }
}

/// One-stop imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::{Any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The canonical strategy for "any value of `T`".
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::new()
    }
}

/// Defines property tests: `proptest! { #[test] fn name(x in strategy) {..} }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);) => {};
    (config = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let strategy = ($($strat,)+);
            $crate::test_runner::run(
                &config,
                stringify!($name),
                &strategy,
                |($($pat,)+)| {
                    $body
                    Ok(())
                },
            );
        }
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
}

/// Asserts a condition inside a property, failing the case (not panicking
/// directly) so the runner can report the case index.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts two expressions are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Asserts two expressions are unequal inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: {} != {} (both: {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Skips the current case when its inputs are uninteresting.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u8..10, y in 0.25f64..0.5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.25..0.5).contains(&y));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn combinators_compose(
            v in crate::collection::vec(any::<u8>(), 2..6),
            o in crate::option::of(1u64..4),
            (a, b) in (0u16..4, 0u16..4),
            k in (0u32..10).prop_map(|n| n * 2),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            if let Some(x) = o {
                prop_assert!((1..4).contains(&x));
            }
            prop_assert!(a < 4 && b < 4);
            prop_assert_eq!(k % 2, 0);
        }

        #[test]
        fn assume_skips(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = crate::collection::vec(any::<u64>(), 1..8);
        let a: Vec<Vec<u64>> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..16).map(|_| s.generate(&mut rng)).collect()
        };
        let b: Vec<Vec<u64>> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..16).map(|_| s.generate(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
