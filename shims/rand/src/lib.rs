//! Offline stand-in for the `rand` crate (see `shims/README.md`).
//!
//! Implements the API subset this workspace uses: [`Rng::gen_range`] /
//! [`Rng::gen_bool`], [`SeedableRng::seed_from_u64`], [`rngs::StdRng`], and
//! [`seq::SliceRandom`]'s `shuffle` / `choose_multiple`. The generator is
//! xoshiro256++ seeded through SplitMix64 — deterministic for a given seed,
//! which is all the experiments require of it.

/// A source of random `u64`s. Object-safe core trait, mirroring `rand_core`.
pub trait RngCore {
    /// Produce the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` built from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing random-value methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open `a..b` or inclusive `a..=b`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A range that uniform samples of type `T` can be drawn from.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample_single<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

// Every integer type here is at most 64 bits wide, so a span is below 2^64
// except for an inclusive range over a whole 64-bit type, whose span wraps
// to 0 in u64 and takes the draw unreduced. The draw is `x mod span` either
// way, computed in u64 instead of u128.
macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range in gen_range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                let x = rng.next_u64();
                start.wrapping_add(x.checked_rem(span).unwrap_or(x) as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let v = self.start + (rng.next_f64() as $t) * (self.end - self.start);
                // next_f64() < 1, but the multiply can round up to the
                // exclusive bound; fold that draw back onto the start.
                if v < self.end {
                    v
                } else {
                    self.start
                }
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard generator: xoshiro256++ (Blackman & Vigna), seeded via
    /// SplitMix64. Not the real `StdRng`'s ChaCha12, but deterministic and
    /// statistically solid, which is what the experiments rely on.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Slice sampling helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Extension methods on slices, mirroring `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Element type of the slice.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// `amount` elements sampled without replacement, in random order.
        fn choose_multiple<'a, R: RngCore + ?Sized>(
            &'a self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&'a Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }

        fn choose_multiple<'a, R: RngCore + ?Sized>(
            &'a self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&'a T> {
            // Partial Fisher–Yates over an index table.
            let amount = amount.min(self.len());
            let mut idx: Vec<usize> = (0..self.len()).collect();
            for i in 0..amount {
                let j = rng.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            idx.truncate(amount);
            idx.into_iter()
                .map(|i| &self[i])
                .collect::<Vec<_>>()
                .into_iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1000), b.gen_range(0u64..1000));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(10u32..20);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(5i64..=5);
            assert_eq!(y, 5);
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn full_u64_range_is_accepted() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let _ = rng.gen_range(0..u64::MAX);
        }
    }

    #[test]
    fn draws_match_the_u128_reduction() {
        // The u64 reduction must give the draws the u128 one always gave,
        // so every seeded workload stays byte-identical.
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for i in 0..2_000u64 {
            let x = b.next_u64();
            assert_eq!(
                a.gen_range(3..1_000 + i),
                3 + (x as u128 % (997 + i) as u128) as u64
            );
            let x = b.next_u64();
            assert_eq!(a.gen_range(0..=u64::MAX), x);
            let x = b.next_u64();
            let expect = -7 + (x as u128 % 20) as i64;
            assert_eq!(a.gen_range(-7i64..13), expect);
            let x = b.next_u64();
            assert_eq!(
                a.gen_range(i64::MIN..=i64::MAX),
                i64::MIN.wrapping_add(x as i64)
            );
            let x = b.next_u64();
            assert_eq!(
                a.gen_range(0..=u64::MAX - 1),
                (x as u128 % u64::MAX as u128) as u64
            );
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_multiple_without_replacement() {
        let mut rng = StdRng::seed_from_u64(4);
        let v: Vec<u32> = (0..50).collect();
        let mut picked: Vec<u32> = v.choose_multiple(&mut rng, 20).copied().collect();
        assert_eq!(picked.len(), 20);
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked.len(), 20, "duplicates in choose_multiple");
        // Amount larger than the slice clamps.
        assert_eq!(v.choose_multiple(&mut rng, 500).count(), 50);
    }
}
