//! Offline stand-in for the subset of `rand` 0.8 the skynet crates use:
//! `RngCore`, `SeedableRng::seed_from_u64`, and `Rng::{gen, gen_range,
//! gen_bool}` over integers and floats. See `perf/README.md` for why it
//! exists.
//!
//! Deterministic and seeded like the published crate, but the sampling
//! algorithms are the textbook ones, so the same seed draws other values
//! than upstream `rand` would. The benchmark pins digests of the inputs it
//! generates, so any change here shows up as a digest mismatch.

use std::ops::{Range, RangeInclusive};

/// A source of random words.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// The seed type, a byte array.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with PCG32, as `rand_core` does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let word = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($ty:ty => $method:ident),*) => {$(
        impl Standard for $ty {
            fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$method() as $ty
            }
        }
    )*};
}
standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
              usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
              i64 => next_u64, isize => next_u64);

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

/// A float in `[0, 1)` with 53 random bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// A range `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    /// Draws one value from the range. Panics when the range is empty.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// A uniform draw from `0..=span` (Lemire's multiply-shift with rejection).
fn below_inclusive<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == u64::MAX {
        return rng.next_u64();
    }
    let n = span + 1;
    let threshold = n.wrapping_neg() % n;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(n);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! sample_int {
    ($($ty:ty as $wide:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64 - 1;
                (self.start as $wide).wrapping_add(below_inclusive(rng, span) as $wide) as $ty
            }
        }
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample an empty range");
                let span = (high as $wide).wrapping_sub(low as $wide) as u64;
                (low as $wide).wrapping_add(below_inclusive(rng, span) as $wide) as $ty
            }
        }
    )*};
}
sample_int!(
    u8 as u64,
    u16 as u64,
    u32 as u64,
    u64 as u64,
    usize as u64,
    i8 as i64,
    i16 as i64,
    i32 as i64,
    i64 as i64,
    isize as i64
);

macro_rules! sample_float {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample an empty range");
                loop {
                    let value = self.start + (self.end - self.start) * unit_f64(rng) as $ty;
                    // Rounding can land exactly on the excluded bound.
                    if value < self.end {
                        return value;
                    }
                }
            }
        }
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample an empty range");
                low + (high - low) * unit_f64(rng) as $ty
            }
        }
    )*};
}
sample_float!(f32, f64);

/// The user-facing sampling methods, on every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of any [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniform value from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability {p} is outside [0, 1]"
        );
        if p >= 1.0 {
            return true;
        }
        // 2^64 * p, compared against a full random word.
        self.next_u64() < (p * 18446744073709551616.0) as u64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    //! Slice helpers.

    use super::{Rng, RngCore};

    /// Random picks and shuffles on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;
        /// One uniformly chosen element, or `None` for an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
        /// A Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

pub mod prelude {
    //! The common imports.
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a stand-alone word source for testing the samplers.
    struct Mix(u64);

    impl RngCore for Mix {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn ranges_stay_inside_their_bounds_and_reach_both_ends() {
        let mut rng = Mix(1);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[rng.gen_range(0..8usize)] = true;
            let inclusive: i32 = rng.gen_range(-3..=3);
            assert!((-3..=3).contains(&inclusive));
            let float = rng.gen_range(0.5..1.5);
            assert!((0.5..1.5).contains(&float));
            let wide: u64 = rng.gen_range(0..=u64::MAX);
            let _ = wide;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(rng.gen_range(7..8u8), 7);
    }

    #[test]
    fn gen_bool_respects_its_probability() {
        let mut rng = Mix(2);
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.35)).count();
        assert!((6_500..7_500).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_keeps_every_element() {
        use seq::SliceRandom;
        let mut rng = Mix(3);
        let mut items: Vec<u32> = (0..50).collect();
        items.shuffle(&mut rng);
        assert_ne!(items, (0..50).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..50).collect::<Vec<_>>());
        assert!([1, 2, 3].choose(&mut rng).is_some());
        assert!(<[u8]>::choose(&[], &mut rng).is_none());
    }
}
