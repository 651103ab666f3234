//! Minimal offline substitute for the `proptest` API subset Laminar's
//! property suites use.
//!
//! The build container has no crates.io access, so the workspace's
//! `tests/proptest_*.rs` suites import this crate under the name `proptest`
//! via a cargo dependency rename (root `Cargo.toml`). It implements random
//! generation only — no shrinking, no persistence of failing cases — which
//! keeps it a few hundred lines while exercising the same properties. Each
//! test runs [`test_runner::ProptestConfig::cases`] deterministic cases seeded from the
//! test's name, so failures reproduce exactly on re-run.
//!
//! Supported surface: the [`proptest!`] macro (with an optional
//! `#![proptest_config(..)]` header), [`prop_assert!`]/[`prop_assert_eq!`],
//! [`prop_oneof!`], [`strategy::Strategy`] with `prop_map`/`prop_recursive`/
//! `boxed`, [`arbitrary::any`], [`strategy::Just`], integer-range and
//! regex-literal strategies, tuple strategies, `collection::{vec,
//! btree_map}`, `sample::select`, `num::f64::NORMAL` and `bool::ANY`.

pub mod arbitrary;
pub mod collection;
pub mod num;
pub mod sample;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// Boolean strategies (`prop::bool::ANY`).
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform boolean strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The uniform boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = ::core::primitive::bool;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Assert inside a property; panics (and thus fails the case) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::one_of(vec![$($crate::strategy::Strategy::boxed($strat)),+])
    };
}

/// Declare property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block
    )* ) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for __case in 0..__config.cases {
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                $body
            }
        }
    )*};
}
