//! A property-testing harness covering the slice of the `proptest` crate
//! API this workspace uses, so the test suites stay std-only.
//!
//! * [`proptest!`](crate::proptest!) generates `#[test]` functions whose
//!   arguments are drawn from strategies (`pat in strategy`), with an
//!   optional `#![proptest_config(ProptestConfig::with_cases(N))]` header.
//! * Strategies: numeric ranges, tuples (up to 8), `collection::vec`,
//!   [`strategy::Just`], and [`strategy::Strategy::prop_map`].
//! * Assertions: [`prop_assert!`](crate::prop_assert!),
//!   [`prop_assert_eq!`](crate::prop_assert_eq!), and
//!   [`prop_assume!`](crate::prop_assume!) (rejects the case).
//!
//! # Determinism, replay, and shrinking-lite
//!
//! Case seeds derive from a per-test base seed: a hash of the test name by
//! default, or `ERPD_PROPTEST_SEED=<u64>` to explore a different stream.
//! Runs are therefore reproducible by construction — CI and a laptop see
//! the same cases.
//!
//! On failure the harness re-generates the failing case at increasing
//! *shrink bias*: every range draw is pulled toward the low end of its
//! range and every generated `vec` gets shorter. The strongest bias that
//! still fails is reported ("shrinking-lite": simpler counterexamples
//! without the bookkeeping of a full shrink tree), together with the base
//! seed and case index needed to replay it.

use crate::rngs::StdRng;
use crate::{mix64, RngCore, SeedableRng, GOLDEN_GAMMA};

/// How many cases a property runs (mirrors `proptest::ProptestConfig`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a single case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// An assertion failed; the message is reported on panic.
    Fail(String),
    /// `prop_assume!` rejected the case; it is regenerated, not counted.
    Reject,
}

impl TestCaseError {
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

/// The per-case random source handed to strategies.
///
/// Carries the shrink bias alongside the generator: at bias `b`, unit
/// draws are scaled by `1 - b`, pulling every range strategy toward the
/// low end of its range and every collection toward minimal length.
pub struct CaseRng {
    rng: StdRng,
    bias: f64,
}

impl CaseRng {
    pub fn new(seed: u64, bias: f64) -> Self {
        CaseRng {
            rng: StdRng::seed_from_u64(seed),
            bias,
        }
    }

    /// A draw in `[0, 1)`, scaled down by the shrink bias.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.rng.next_unit_f64() * (1.0 - self.bias)
    }

    /// A draw in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

pub mod strategy {
    use super::CaseRng;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut CaseRng) -> Self::Value;

        /// Transform generated values (mirrors `proptest`'s combinator).
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// The [`Strategy::prop_map`] combinator.
    #[derive(Clone, Copy, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut CaseRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut CaseRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut CaseRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    // Route through the biased unit draw so shrinking
                    // pulls integers toward the range start too.
                    self.start
                        .wrapping_add(((rng.unit() * span as f64) as u64).min(span - 1) as $t)
                }
            }
        )*};
    }

    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut CaseRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let v = self.start + rng.unit() * (self.end - self.start);
            if v < self.end {
                v
            } else {
                self.start
            }
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut CaseRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod collection {
    use super::strategy::Strategy;
    use super::CaseRng;
    use std::ops::Range;

    /// Generates `Vec`s whose length is drawn from `size`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec-length range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut CaseRng) -> Vec<S::Value> {
            let n = self.size.start + rng.below(self.size.end - self.size.start);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The biases tried when a case fails, strongest shrink first.
const SHRINK_BIASES: [f64; 5] = [0.95, 0.85, 0.7, 0.5, 0.25];

/// Drives one property: generates cases, counts rejects, shrinks and
/// reports failures. Called by the [`proptest!`](crate::proptest!)
/// expansion; not intended for direct use.
pub fn run_cases<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut CaseRng) -> Result<(), TestCaseError>,
{
    let base = base_seed(name);
    let wanted = config.cases.max(1);
    let reject_budget = wanted * 16 + 256;
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut index = 0u64;
    while passed < wanted {
        let seed = case_seed(base, index);
        match case(&mut CaseRng::new(seed, 0.0)) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected < reject_budget,
                    "property {name}: {rejected} cases rejected before {wanted} passed — \
                     the prop_assume! filter is too strict"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                // Shrinking-lite: rerun the same case seed with draws pulled
                // toward the low end; keep the most-shrunk failure.
                let (bias, msg) = SHRINK_BIASES
                    .iter()
                    .find_map(|&b| match case(&mut CaseRng::new(seed, b)) {
                        Err(TestCaseError::Fail(m)) => Some((b, m)),
                        _ => None,
                    })
                    .unwrap_or((0.0, msg));
                panic!(
                    "property {name} failed on case {index} (shrink bias {bias}): {msg}\n\
                     replay: ERPD_PROPTEST_SEED={base} (case seed {seed:#018x})"
                );
            }
        }
        index += 1;
    }
}

fn base_seed(name: &str) -> u64 {
    if let Ok(s) = std::env::var("ERPD_PROPTEST_SEED") {
        if let Ok(v) = s.trim().parse::<u64>() {
            return v;
        }
    }
    // FNV-1a over the test name: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn case_seed(base: u64, index: u64) -> u64 {
    mix64(base ^ index.wrapping_mul(GOLDEN_GAMMA))
}

/// Generates one `#[test]` function per `fn name(pat in strategy, ...)`
/// item, running the body over strategy-drawn cases. See the
/// [module docs](mod@crate::proptest) for semantics.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! {
            ($crate::proptest::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (($cfg:expr); $($(#[$attr:meta])* fn $name:ident(
        $($pat:pat in $strat:expr),+ $(,)?
    ) $body:block)*) => {
        $(
            $(#[$attr])*
            #[allow(clippy::redundant_closure_call)]
            fn $name() {
                $crate::proptest::run_cases(&($cfg), stringify!($name), |__rng| {
                    $(let $pat = $crate::proptest::strategy::Strategy::generate(&($strat), __rng);)+
                    (|| -> ::std::result::Result<(), $crate::proptest::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })()
                });
            }
        )*
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "format", ...)`: fails the
/// current case (and triggers shrinking) instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::proptest::TestCaseError::fail(
                ::std::format!(
                    "assertion failed at {}:{}: {}",
                    ::std::file!(),
                    ::std::line!(),
                    ::std::stringify!($cond)
                ),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::proptest::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion variant of [`prop_assert!`](crate::prop_assert!).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if __a != __b {
            return ::std::result::Result::Err($crate::proptest::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{} == {}` ({:?} vs {:?})",
                    ::std::stringify!($a),
                    ::std::stringify!($b),
                    __a,
                    __b
                ),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if __a != __b {
            return ::std::result::Result::Err($crate::proptest::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    }};
}

/// Rejects the current case: it is regenerated and not counted toward the
/// configured case total.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::proptest::TestCaseError::Reject);
        }
    };
}

pub mod prelude {
    //! Everything a property-test file needs:
    //! `use erpd_rand::proptest::prelude::*;`.
    //!
    //! `proptest` is re-exported in both namespaces — the macro (for
    //! `proptest! {}` blocks) and this module (for paths like
    //! `proptest::collection::vec`), matching how the real crate's
    //! prelude behaves.
    pub use super::strategy::{Just, Strategy};
    pub use super::{ProptestConfig, TestCaseError};
    pub use crate::proptest;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{base_seed, case_seed, CaseRng};

    proptest! {
        #[test]
        fn range_strategies_stay_in_bounds(x in -3.0f64..7.0, n in 2u64..9, k in 1usize..4) {
            prop_assert!((-3.0..7.0).contains(&x));
            prop_assert!((2..9).contains(&n));
            prop_assert!((1..4).contains(&k));
        }

        #[test]
        fn vec_strategy_respects_length(v in proptest::collection::vec(0u64..100, 2..8)) {
            prop_assert!((2..8).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn prop_map_applies(s in (0u64..10, 0u64..10).prop_map(|(a, b)| a + b)) {
            prop_assert!(s < 19);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0, "only even cases may reach the body, got {n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn config_header_parses(x in 0u64..5) {
            prop_assert!(x < 5);
        }
    }

    #[test]
    fn configured_case_count_is_honoured() {
        use std::cell::Cell;
        let runs = Cell::new(0u32);
        super::run_cases(&ProptestConfig::with_cases(23), "count_probe", |_| {
            runs.set(runs.get() + 1);
            Ok(())
        });
        assert_eq!(runs.get(), 23);
    }

    #[test]
    fn rejected_cases_do_not_count() {
        use std::cell::Cell;
        let passes = Cell::new(0u32);
        super::run_cases(&ProptestConfig::with_cases(10), "reject_probe", |rng| {
            if rng.unit() < 0.5 {
                return Err(TestCaseError::Reject);
            }
            passes.set(passes.get() + 1);
            Ok(())
        });
        assert_eq!(passes.get(), 10);
    }

    #[test]
    fn case_seeds_are_deterministic_and_distinct() {
        let base = base_seed("some_property");
        assert_eq!(base, base_seed("some_property"));
        let seeds: Vec<u64> = (0..100).map(|i| case_seed(base, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "case seeds collided");
    }

    #[test]
    fn shrink_bias_pulls_draws_down() {
        let raw: f64 = CaseRng::new(99, 0.0).unit();
        let shrunk: f64 = CaseRng::new(99, 0.9).unit();
        assert!((shrunk - raw * 0.1).abs() < 1e-12);
        let strat = proptest::collection::vec(0u64..1000, 0..40);
        let long = strat.generate(&mut CaseRng::new(4, 0.0));
        let short = strat.generate(&mut CaseRng::new(4, 0.95));
        assert!(short.len() <= long.len(), "shrinking grew the vec");
    }

    #[test]
    fn failure_reports_seed_and_shrinks() {
        let result = std::panic::catch_unwind(|| {
            super::run_cases(&ProptestConfig::with_cases(50), "failing_probe", |rng| {
                let v: f64 = rng.unit();
                if v < 0.9 {
                    Err(TestCaseError::Fail(format!("value {v} too small")))
                } else {
                    Ok(())
                }
            });
        });
        let msg = *result.expect_err("property must fail").downcast::<String>().unwrap();
        assert!(msg.contains("ERPD_PROPTEST_SEED="), "no replay seed in: {msg}");
        // Shrinking reruns at bias 0.95 first; a scaled-down draw still
        // fails this predicate, so the strongest bias is reported.
        assert!(msg.contains("shrink bias 0.95"), "no shrink report in: {msg}");
    }
}
