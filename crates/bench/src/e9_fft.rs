//! E9 — §5.2: the asymmetric six-step FFT does O((ωn/B)·log_{ωM}(ωn)) reads
//! and O((n/B)·log_{ωM}(ωn)) writes versus the standard cache-oblivious
//! FFT's O((n/B)·log_M n) of each.

use crate::Scale;
use asym_core::co::{fft, Cplx, FftVariant};
use asym_model::table::{f2, Table};
use cache_sim::{CacheConfig, PolicyChoice, SimArray, Tracker};

/// Run E9.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let (m, b) = (256usize, 8usize);
    let base = 64usize;
    let mut t = Table::new(
        format!("E9: six-step FFT I/O (M={m} cells, B={b}, base={base}, LRU)"),
        &[
            "n",
            "variant",
            "omega",
            "loads",
            "writebacks",
            "cost",
            "write saving",
        ],
    );
    let max_exp = scale.pick(12u32, 16, 18);
    for e in (12..=max_exp).step_by(2) {
        let n = 1usize << e;
        let sig: Vec<Cplx> = (0..n)
            .map(|i| Cplx::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let run = |variant: FftVariant, omega: usize| {
            let cfg = CacheConfig::new(m, b, omega as u64);
            let tr = Tracker::new(cfg, PolicyChoice::Lru);
            let mut a = SimArray::from_vec(&tr, sig.clone());
            fft(&mut a, 0, n, variant, omega, base);
            tr.flush();
            tr.stats()
        };
        let std = run(FftVariant::Standard, 1);
        t.row(&[
            n.to_string(),
            "standard".into(),
            "1".into(),
            std.loads.to_string(),
            std.writebacks.to_string(),
            std.cost(1).to_string(),
            "1.00".into(),
        ]);
        for omega in [4usize, 16] {
            let asym = run(FftVariant::Asymmetric, omega);
            t.row(&[
                n.to_string(),
                "asymmetric".into(),
                omega.to_string(),
                asym.loads.to_string(),
                asym.writebacks.to_string(),
                asym.cost(omega as u64).to_string(),
                f2(std.writebacks as f64 / asym.writebacks.max(1) as f64),
            ]);
        }
    }
    t.note("write saving = standard writebacks / asymmetric writebacks at the same n");
    t.note("the saving tracks the level-count ratio log_M(n) / log_{omega*M}(omega*n):");
    t.note("below the crossover (small n/M, equal level counts) the asymmetric variant's");
    t.note("extra row-decomposition passes make it LOSE — exactly what the theory predicts");
    vec![t]
}
