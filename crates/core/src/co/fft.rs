//! §5.2 — cache-oblivious FFT with asymmetric read/write costs.
//!
//! Both variants are six-step Cooley–Tukey decompositions n = n1·n2:
//! transpose, FFT the n1-length columns (as rows), twiddle, transpose, FFT
//! the n2-length rows, transpose to natural order.
//!
//! * **Standard** (baseline, Frigo et al.): n1 ≈ n2 ≈ √n, both recursive.
//! * **Asymmetric** (the paper's): n2 ≈ √(n/ω) and n1 = ω·n2; the length-n1
//!   row DFTs are themselves decomposed as ω × n2 with the ω-point column
//!   DFTs computed **brute force** (ω reads + 1 write per value) — spending
//!   ω× more reads to halve the number of recursion levels and with them
//!   the writes.
//!
//! Twiddle factors are computed on the fly (host arithmetic is free in the
//! model); all data movement goes through the simulated cache.

use super::transpose::co_transpose;
use cache_sim::SimArray;
use std::f64::consts::PI;

/// A complex value (one simulated cell per element, like the paper's
/// records).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cplx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cplx {
    /// The complex number re + i·im.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// e^{-2πi k / n} (the forward-DFT root of unity).
    pub fn root(k: usize, n: usize) -> Self {
        let ang = -2.0 * PI * (k % n) as f64 / n as f64;
        Self::new(ang.cos(), ang.sin())
    }

    fn mul(self, o: Cplx) -> Cplx {
        Cplx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    fn add(self, o: Cplx) -> Cplx {
        Cplx::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: Cplx) -> Cplx {
        Cplx::new(self.re - o.re, self.im - o.im)
    }

    /// |self - o| (test tolerance helper).
    #[cfg(test)]
    fn dist(self, o: Cplx) -> f64 {
        ((self.re - o.re).powi(2) + (self.im - o.im).powi(2)).sqrt()
    }
}

/// Which decomposition drives the recursion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FftVariant {
    /// n1 ≈ n2 ≈ √n (the symmetric baseline).
    Standard,
    /// n2 ≈ √(n/ω), n1 = ω·n2 with brute-force ω-point column DFTs.
    Asymmetric,
}

/// In-place forward DFT of `data[lo..lo+n)` (n a power of two). `base` is
/// the host-FFT threshold (≤ M in experiments); `omega` is used by the
/// asymmetric variant only.
pub fn fft(
    data: &mut SimArray<Cplx>,
    lo: usize,
    n: usize,
    variant: FftVariant,
    omega: usize,
    base: usize,
) {
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    assert!(omega >= 1 && omega.is_power_of_two(), "omega must be 2^k");
    fft_rec(data, lo, n, variant, omega, base.max(4));
}

fn fft_rec(
    data: &mut SimArray<Cplx>,
    lo: usize,
    n: usize,
    variant: FftVariant,
    omega: usize,
    base: usize,
) {
    if n <= base {
        host_fft(data, lo, n);
        return;
    }
    let e = n.trailing_zeros() as usize;
    let n2 = match variant {
        FftVariant::Standard => 1usize << (e / 2),
        FftVariant::Asymmetric => {
            // n2 ~ sqrt(n/omega), as a power of two, at least 1.
            let target = ((n / omega).max(1) as f64).sqrt();
            let bits = (target.log2().round() as usize).min(e.saturating_sub(1));
            1usize << bits
        }
    };
    let n1 = n / n2;
    if n1 <= 1 || n2 <= 1 {
        host_fft(data, lo, n);
        return;
    }
    six_step(data, lo, n1, n2, variant, omega, base);
}

/// The six-step driver: input viewed as n1 × n2 row-major.
fn six_step(
    data: &mut SimArray<Cplx>,
    lo: usize,
    n1: usize,
    n2: usize,
    variant: FftVariant,
    omega: usize,
    base: usize,
) {
    let n = n1 * n2;
    let tracker = data.tracker().clone();
    let mut t = SimArray::filled(&tracker, n, Cplx::default());
    // 1. Transpose (n1 x n2) -> (n2 x n1).
    co_transpose(data, lo, n1, n2, &mut t, 0);
    // 2. Length-n1 FFT on each of the n2 rows of t.
    for r in 0..n2 {
        match variant {
            FftVariant::Standard => fft_rec(&mut t, r * n1, n1, variant, omega, base),
            FftVariant::Asymmetric => fft_row_asym(&mut t, r * n1, n1, omega, base),
        }
    }
    // 3. Twiddle: t[j2][k1] *= w_n^{j2*k1}.
    for j2 in 0..n2 {
        for k1 in 0..n1 {
            let v = t.read(j2 * n1 + k1);
            t.write(j2 * n1 + k1, v.mul(Cplx::root(j2 * k1, n)));
        }
    }
    // 4. Transpose back (n2 x n1) -> (n1 x n2) into data.
    co_transpose(&t, 0, n2, n1, data, lo);
    // 5. Length-n2 FFT on each of the n1 rows of data.
    for r in 0..n1 {
        fft_rec(data, lo + r * n2, n2, variant, omega, base);
    }
    // 6. Transpose (n1 x n2) -> (n2 x n1) for natural order; copy back.
    co_transpose(data, lo, n1, n2, &mut t, 0);
    for i in 0..n {
        let v = t.read(i);
        data.write(lo + i, v);
    }
}

/// The asymmetric row DFT of length m = ω · (m/ω): brute-force ω-point
/// column DFTs (ω reads + 1 write per value), then recursive rows.
fn fft_row_asym(data: &mut SimArray<Cplx>, lo: usize, m: usize, omega: usize, base: usize) {
    if m <= base || m <= omega || omega == 1 {
        // Small rows (or the degenerate ω=1) fall back to the standard path.
        fft_rec(data, lo, m, FftVariant::Standard, omega, base);
        return;
    }
    let n1 = omega;
    let n2 = m / omega;
    let tracker = data.tracker().clone();
    let mut t = SimArray::filled(&tracker, m, Cplx::default());
    // 1. Transpose (n1 x n2) -> (n2 x n1).
    co_transpose(data, lo, n1, n2, &mut t, 0);
    // 2. Brute-force the length-ω DFT of each of the n2 rows of t.
    for r in 0..n2 {
        brute_dft_row(&mut t, r * n1, n1);
    }
    // 3. Twiddle.
    for j2 in 0..n2 {
        for k1 in 0..n1 {
            let v = t.read(j2 * n1 + k1);
            t.write(j2 * n1 + k1, v.mul(Cplx::root(j2 * k1, m)));
        }
    }
    // 4. Transpose back.
    co_transpose(&t, 0, n2, n1, data, lo);
    // 5. Recursive length-n2 FFTs.
    for r in 0..n1 {
        fft_rec(data, lo + r * n2, n2, FftVariant::Asymmetric, omega, base);
    }
    // 6. Final transpose + copy back.
    co_transpose(data, lo, n1, n2, &mut t, 0);
    for i in 0..m {
        let v = t.read(i);
        data.write(lo + i, v);
    }
}

/// O(ω²) direct DFT of a length-ω row: per output value, ω reads and one
/// write into a scratch row, then copy back.
fn brute_dft_row(data: &mut SimArray<Cplx>, lo: usize, w: usize) {
    let tracker = data.tracker().clone();
    let mut out = SimArray::filled(&tracker, w, Cplx::default());
    for k in 0..w {
        let mut acc = Cplx::default();
        for j in 0..w {
            acc = acc.add(data.read(lo + j).mul(Cplx::root(j * k, w)));
        }
        out.write(k, acc);
    }
    for k in 0..w {
        let v = out.read(k);
        data.write(lo + k, v);
    }
}

/// Host-side iterative radix-2 FFT for base cases: n charged reads in, n
/// charged writes out.
fn host_fft(data: &mut SimArray<Cplx>, lo: usize, n: usize) {
    let mut a: Vec<Cplx> = (0..n).map(|i| data.read(lo + i)).collect();
    host_fft_slice(&mut a);
    for (i, v) in a.into_iter().enumerate() {
        data.write(lo + i, v);
    }
}

/// Plain iterative Cooley–Tukey on a host slice (free arithmetic).
fn host_fft_slice(a: &mut [Cplx]) {
    let n = a.len();
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if i < j {
            a.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let w = Cplx::root(k, len);
                let u = a[start + k];
                let v = a[start + k + len / 2].mul(w);
                a[start + k] = u.add(v);
                a[start + k + len / 2] = u.sub(v);
            }
        }
        len *= 2;
    }
}

/// O(n²) reference DFT (host-side; test oracle and tiny-size checker).
pub fn naive_dft(input: &[Cplx]) -> Vec<Cplx> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Cplx::default();
            for (j, &x) in input.iter().enumerate() {
                acc = acc.add(x.mul(Cplx::root(j * k, n)));
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{CacheConfig, PolicyChoice, Tracker};
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<Cplx> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Cplx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn max_err(a: &[Cplx], b: &[Cplx]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x.dist(*y)).fold(0.0, f64::max)
    }

    #[test]
    fn host_fft_matches_naive() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let sig = random_signal(n, 1);
            let mut a = sig.clone();
            host_fft_slice(&mut a);
            assert!(max_err(&a, &naive_dft(&sig)) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn standard_variant_matches_naive() {
        for n in [4usize, 16, 64, 256, 1024] {
            let sig = random_signal(n, 2);
            let t = Tracker::null();
            let mut a = SimArray::from_vec(&t, sig.clone());
            fft(&mut a, 0, n, FftVariant::Standard, 1, 4);
            assert!(
                max_err(a.peek_slice(), &naive_dft(&sig)) < 1e-8,
                "standard n={n}"
            );
        }
    }

    #[test]
    fn asymmetric_variant_matches_naive() {
        for omega in [2usize, 4, 8] {
            for n in [64usize, 256, 1024] {
                let sig = random_signal(n, 3);
                let t = Tracker::null();
                let mut a = SimArray::from_vec(&t, sig.clone());
                fft(&mut a, 0, n, FftVariant::Asymmetric, omega, 4);
                assert!(
                    max_err(a.peek_slice(), &naive_dft(&sig)) < 1e-8,
                    "asym n={n} omega={omega}"
                );
            }
        }
    }

    #[test]
    fn subrange_fft() {
        let n = 64;
        let sig = random_signal(2 * n, 4);
        let t = Tracker::null();
        let mut a = SimArray::from_vec(&t, sig.clone());
        fft(&mut a, n, n, FftVariant::Standard, 1, 4);
        assert_eq!(&a.peek_slice()[..n], &sig[..n], "prefix untouched");
        assert!(max_err(&a.peek_slice()[n..], &naive_dft(&sig[n..])) < 1e-8);
    }

    #[test]
    fn asymmetric_reduces_writebacks() {
        // Parameters where the level counts genuinely differ: base <= M and
        // enough levels that log_{omega*M}(omega*n) < log_M(n).
        let n = 1 << 16;
        let sig = random_signal(n, 5);
        let run = |variant: FftVariant, omega: usize| {
            let cfg = CacheConfig::new(256, 8, 16);
            let t = Tracker::new(cfg, PolicyChoice::Lru);
            let mut a = SimArray::from_vec(&t, sig.clone());
            fft(&mut a, 0, n, variant, omega, 64);
            t.flush();
            (t.stats().loads, t.stats().writebacks)
        };
        let (_r_std, w_std) = run(FftVariant::Standard, 1);
        let (r_asym, w_asym) = run(FftVariant::Asymmetric, 16);
        assert!(
            w_asym < w_std,
            "asymmetric FFT should write back less: {w_asym} vs {w_std}"
        );
        assert!(r_asym > 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let t = Tracker::null();
        let mut a = SimArray::from_vec(&t, vec![Cplx::default(); 24]);
        fft(&mut a, 0, 24, FftVariant::Standard, 1, 4);
    }
}
