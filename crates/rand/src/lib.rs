//! Std-only deterministic randomness for the ERPD workspace.
//!
//! This crate keeps the workspace hermetic: it replaces the external
//! `rand` dependency (and, through the [`mod@proptest`] module, the external
//! `proptest` dependency) with ~no code beyond what the simulator and the
//! test suites actually use:
//!
//! * [`rngs::StdRng`] — a seeded SplitMix64 generator behind the same
//!   names the `rand 0.8` call sites used (`SeedableRng::seed_from_u64`,
//!   `Rng::gen_range`), so migrating a call site is an import change.
//! * [`Rng::shuffle`] / [`Rng::gen_bool`] — the two convenience draws the
//!   scenario generator needs.
//! * [`mod@proptest`] — a property-testing harness with seeded case
//!   generation, shrinking-lite, and failure-seed reporting.
//!
//! The generator is SplitMix64: the state advances by the golden-ratio
//! increment and each output is the finaliser hash — the same pure-hash
//! idiom the fault layer uses (`erpd-edge/src/fault.rs`), so the whole
//! workspace draws randomness from one auditable construction. SplitMix64
//! passes BigCrush and is more than adequate for simulation workloads; it
//! is *not* cryptographic, which nothing here needs.

#![forbid(unsafe_code)]

pub mod proptest;

use std::ops::{Range, RangeInclusive};

/// The golden-ratio increment that drives the SplitMix64 state.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finaliser: a bijective avalanche hash of `z`.
///
/// Shared with the fault layer's per-event draws; exposed so other crates
/// can derive independent deterministic streams from composite keys.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const UNIT_53: f64 = 1.0 / (1u64 << 53) as f64;

/// Core source of pseudo-random `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * UNIT_53
    }
}

/// Construction from a 64-bit seed — the only constructor the workspace
/// uses (mirrors `rand::SeedableRng::seed_from_u64`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling surface, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform draw from `range` (mirrors `rand::Rng::gen_range`).
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.next_unit_f64() < p
    }

    /// In-place Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

impl<R: RngCore> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng, GOLDEN_GAMMA};

    /// SplitMix64 behind the name the former `rand` call sites import.
    ///
    /// The state walks the golden-ratio sequence; every output is the
    /// [`mix64`](super::mix64) finaliser of the new state, exactly as in
    /// the fault layer's stream derivation.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        #[inline]
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(GOLDEN_GAMMA);
            super::mix64(self.state)
        }
    }
}

/// Ranges a uniform value can be drawn from.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Maps a raw draw onto `[0, span)` via the widening-multiply trick: no
/// modulo bias beyond `span / 2^64`, which is unmeasurable at our spans.
#[inline]
fn mul_shift(x: u64, span: u64) -> u64 {
    ((x as u128 * span as u128) >> 64) as u64
}

macro_rules! uint_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end - self.start) as u64;
                self.start + mul_shift(rng.next_u64(), span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + mul_shift(rng.next_u64(), span + 1) as $t
            }
        }
    )*};
}

uint_sample_range!(u8, u16, u32, u64, usize);

macro_rules! int_sample_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = self.end.wrapping_sub(self.start) as $u as u64;
                self.start.wrapping_add(mul_shift(rng.next_u64(), span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample from empty range");
                let span = hi.wrapping_sub(lo) as $u as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(mul_shift(rng.next_u64(), span + 1) as $t)
            }
        }
    )*};
}

int_sample_range!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let v = self.start + rng.next_unit_f64() * (self.end - self.start);
        // Floating-point rounding can push `v` onto the excluded endpoint
        // when the unit draw is the largest representable below 1.
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl SampleRange<f32> for Range<f32> {
    #[inline]
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let v = self.start + rng.next_unit_f64() as f32 * (self.end - self.start);
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_reproduces_the_sequence() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(0);
        let mut b = StdRng::seed_from_u64(1);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn deterministic_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    (0..256).map(|_| rng.next_u64()).collect::<Vec<u64>>()
                })
            })
            .collect();
        let seqs: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(seqs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let f = rng.gen_range(-6.0..6.0);
            assert!((-6.0..6.0).contains(&f));
            let u = rng.gen_range(300u64..6000);
            assert!((300..6000).contains(&u));
            let i = rng.gen_range(0..=4usize);
            assert!(i <= 4);
            let s = rng.gen_range(-10i64..-2);
            assert!((-10..-2).contains(&s));
        }
    }

    #[test]
    fn unit_mean_is_centred() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() / n as f64;
        // Standard error is ~1/sqrt(12 n) ≈ 0.002; allow 5 sigma.
        assert!((mean - 0.5).abs() < 0.011, "uniform mean drifted: {mean}");
    }

    #[test]
    fn integer_range_covers_every_value() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "8-way draw missed a bucket: {seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "p=0.3 produced {hits}/10000 hits");
    }

    #[test]
    fn shuffle_permutes_and_reproduces() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        StdRng::seed_from_u64(21).shuffle(&mut a);
        StdRng::seed_from_u64(21).shuffle(&mut b);
        assert_eq!(a, b, "same seed must give the same permutation");
        assert_ne!(a, (0..50).collect::<Vec<u32>>(), "50 elements should not stay put");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>(), "shuffle must be a permutation");
    }
}
