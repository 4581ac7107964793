//! Workspace-local, dependency-free stand-in for the `proptest` API
//! subset this repository's property tests use.
//!
//! The build environment has no crate-registry access, so this crate
//! reimplements the pieces the tests rely on: the [`strategy::Strategy`]
//! trait with range / tuple / string-pattern / collection strategies and
//! `prop_map`, `any::<T>()`, `prop::sample::Index`, the `proptest!`
//! macro, and the `prop_assert*` family. Cases are sampled from a
//! deterministic per-case RNG; there is **no shrinking** — a failure
//! reports the case number so it can be replayed (case `i` always draws
//! the same values).

pub mod strategy {
    use rand::rngs::StdRng;

    /// A source of random values of one type (no shrinking).
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Always produces a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// The [`Strategy::prop_map`] combinator.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng as _;
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    use rand::Rng as _;
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(usize, u8, u16, u32, u64, i8, i16, i32, i64, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
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
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);

    /// String strategy from a simplified regex pattern: one character
    /// class with an optional `{m}` / `{m,n}` repetition, e.g.
    /// `"[a-z0-9_/]{1,40}"`; any other pattern is produced literally.
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut StdRng) -> String {
            use rand::Rng as _;
            let (class, lo, hi) = match parse_class_pattern(self) {
                Some(p) => p,
                None => return (*self).to_string(),
            };
            let len = rng.gen_range(lo..=hi);
            (0..len)
                .map(|_| class[rng.gen_range(0..class.len())])
                .collect()
        }
    }

    /// Parses `[<chars>]{m,n}` into (alphabet, m, n); `None` when the
    /// pattern is not of that shape.
    fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let close = rest.find(']')?;
        let body: Vec<char> = rest[..close].chars().collect();
        let mut alphabet = Vec::new();
        let mut i = 0;
        while i < body.len() {
            if i + 2 < body.len() && body[i + 1] == '-' {
                let (a, b) = (body[i], body[i + 2]);
                for c in a..=b {
                    alphabet.push(c);
                }
                i += 3;
            } else {
                alphabet.push(body[i]);
                i += 1;
            }
        }
        if alphabet.is_empty() {
            return None;
        }
        let tail = &rest[close + 1..];
        if tail.is_empty() {
            return Some((alphabet, 1, 1));
        }
        let counts = tail.strip_prefix('{')?.strip_suffix('}')?;
        let (lo, hi) = match counts.split_once(',') {
            Some((a, b)) => (a.trim().parse().ok()?, b.trim().parse().ok()?),
            None => {
                let n = counts.trim().parse().ok()?;
                (n, n)
            }
        };
        Some((alphabet, lo, hi))
    }
}

pub mod arbitrary {
    use super::sample::Index;
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng as _;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.gen::<u64>() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.gen::<bool>()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut StdRng) -> f64 {
            // Finite, sign-symmetric, wide dynamic range.
            let m = rng.gen::<f64>() * 2.0 - 1.0;
            let e = rng.gen_range(-64i32..64) as f64;
            m * e.exp2()
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut StdRng) -> Index {
            Index::new(rng.gen::<u64>())
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod sample {
    /// A deferred collection index: stores raw entropy, resolved against
    /// a concrete length with [`Index::index`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// Wraps raw entropy.
        pub fn new(raw: u64) -> Self {
            Self(raw)
        }

        /// Resolves to an index in `0..len`.
        ///
        /// # Panics
        /// If `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index: empty collection");
            (self.0 % len as u64) as usize
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng as _;

    /// Element-count specification for [`vec()`]: an exact size or a
    /// half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "SizeRange: empty range");
            Self {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<E::Value>` with a sampled length.
    pub struct VecStrategy<E> {
        element: E,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<E: Strategy>(element: E, size: impl Into<SizeRange>) -> VecStrategy<E> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<E: Strategy> Strategy for VecStrategy<E> {
        type Value = Vec<E::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<E::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng as _;

    /// Per-test configuration (subset of proptest's `Config`).
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 48 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is skipped.
        Reject(&'static str),
        /// A `prop_assert*!` failed.
        Fail(String),
    }

    /// Deterministic per-case RNG: case `i` of every test draws from the
    /// same stream, so failures are replayable by case number.
    pub fn rng_for_case(case: u32) -> StdRng {
        StdRng::seed_from_u64(0x70726f_70746573u64 ^ ((case as u64) << 32 | case as u64))
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Namespace mirror of proptest's `prelude::prop` module.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Defines property tests. Supports the subset of proptest's surface
/// used in this repository:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn name(x in 0usize..10, v in prop::collection::vec(any::<u64>(), 1..5)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])+
     fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*) => {
        $(#[$meta])+
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::rng_for_case(__case);
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                        panic!("proptest case {} failed: {}", __case, __msg);
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Fails the current case when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: {:?} == {:?}",
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: {:?} == {:?}: {}",
            __a,
            __b,
            format!($($fmt)+)
        );
    }};
}

/// Fails the current case when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: {:?} != {:?}",
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: {:?} != {:?}: {}",
            __a,
            __b,
            format!($($fmt)+)
        );
    }};
}

/// Skips the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in -2.5f64..=2.5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.5..=2.5).contains(&y));
        }

        #[test]
        fn vec_and_string_strategies(
            keys in prop::collection::vec("[a-c0-1_]{2,5}", 1..20),
            fixed in prop::collection::vec(any::<u8>(), 4),
        ) {
            prop_assert_eq!(fixed.len(), 4);
            for k in &keys {
                prop_assert!((2..=5).contains(&k.len()), "bad len {}", k.len());
                prop_assert!(k.chars().all(|c| "abc01_".contains(c)), "bad char in {k}");
            }
        }

        #[test]
        fn tuples_map_and_index(
            (a, b) in (0u64..5, 10u64..15).prop_map(|(x, y)| (y, x)),
            idx in any::<prop::sample::Index>(),
        ) {
            prop_assert!((10..15).contains(&a) && b < 5);
            let pick = idx.index(7);
            prop_assert!(pick < 7);
        }

        #[test]
        fn assume_skips(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        use crate::strategy::Strategy as _;
        let s = (0u64..1000, "[a-z]{1,8}");
        let a: Vec<_> = (0..10)
            .map(|c| s.sample(&mut crate::test_runner::rng_for_case(c)))
            .collect();
        let b: Vec<_> = (0..10)
            .map(|c| s.sample(&mut crate::test_runner::rng_for_case(c)))
            .collect();
        assert_eq!(a, b);
    }
}
