//! Vendored, dependency-free stand-in for the [`rand`] crate (0.8 API
//! subset).
//!
//! The build environment for this repository has no network access and no
//! registry cache, so external crates cannot be fetched. This shim keeps the
//! workspace building by providing exactly the surface the workspace uses:
//!
//! - [`rngs::SmallRng`] with [`SeedableRng::seed_from_u64`]
//! - [`Rng::gen`], [`Rng::gen_range`] (half-open and inclusive integer and
//!   float ranges), [`Rng::gen_bool`]
//! - [`seq::SliceRandom::choose`] and [`seq::SliceRandom::shuffle`]
//!
//! `SmallRng` is xoshiro256++ seeded through SplitMix64 — the same generator
//! family real `rand 0.8` uses for `SmallRng` on 64-bit targets. Streams are
//! deterministic per seed and stable across platforms, which is all the
//! simulator requires (trace content is pinned by golden tests against
//! *this* generator, not against upstream `rand`).
//!
//! [`rand`]: https://crates.io/crates/rand

#![warn(missing_docs)]

/// A source of random 64-bit words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (high half of [`next_u64`]).
    ///
    /// [`next_u64`]: RngCore::next_u64
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value of `T` from its standard distribution
    /// (`f64`/`f32` uniform in `[0, 1)`, integers uniform over the type,
    /// `bool` fair).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        Self: Sized,
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} out of range"
        );
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore> Rng for T {}

/// Converts 64 random bits to a uniform `f64` in `[0, 1)` (53-bit mantissa).
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types sampleable from the standard distribution via [`Rng::gen`].
pub trait Standard {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Samples one value uniformly from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, span)` by widening multiply (64×64→128 high word).
#[inline]
fn bounded_u64<R: RngCore>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = bounded_u64(rng, span);
                ((self.start as i128) + off as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u128::from(u64::MAX) {
                    // Full-width range: any 64-bit word is uniform.
                    return rng.next_u64() as $t;
                }
                let off = bounded_u64(rng, span as u64);
                ((lo as i128) + off as i128) as $t
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u = unit_f64(rng.next_u64()) as $t;
                let v = self.start + u * (self.end - self.start);
                // Guard against rounding up to the excluded endpoint.
                if v >= self.end { self.start } else { v }
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let u = unit_f64(rng.next_u64()) as $t;
                lo + u * (hi - lo)
            }
        }
    )*};
}
range_float!(f64, f32);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic generator: xoshiro256++.
    ///
    /// Mirrors `rand::rngs::SmallRng` on 64-bit targets (same algorithm
    /// family; streams are deterministic per seed).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as rand does for integer seeds.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{bounded_u64, RngCore};

    /// Extension methods on slices, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Returns a uniformly chosen element, or `None` if empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[bounded_u64(rng, self.len() as u64) as usize])
            }
        }

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = bounded_u64(rng, (i + 1) as u64) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(10u64..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(0.5f64..1.5);
            assert!((0.5..1.5).contains(&y));
            let z = rng.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&z));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn unit_floats_are_in_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn choose_and_shuffle_cover_elements() {
        let mut rng = SmallRng::seed_from_u64(5);
        let items = [1, 2, 3, 4];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(*items.choose(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 4);
        let mut v: Vec<u32> = (0..16).collect();
        let orig = v.clone();
        v.shuffle(&mut rng);
        assert_ne!(
            v, orig,
            "16! permutations: identity is essentially impossible"
        );
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
    }
}
