//! E5 — Theorem 4.5: the AEM sample sort matches the mergesort's
//! asymptotics: O(kn/B · levels) reads, O(n/B · levels) writes. The table
//! mirrors E3's sweep and cross-checks the two algorithms' totals — both
//! now dispatched generically through `sort::run` rather than two
//! hard-coded call sites.

use crate::Scale;
use asym_core::sort::Algorithm;
use asym_model::table::{f2, Table};
use asym_model::workload::Workload;
use asym_model::Record;

/// One `sort::run` at the E5 geometry; returns (reads, writes, cost).
fn measure(algorithm: Algorithm, omega: u64, k: usize, input: &[Record]) -> (u64, u64, u64) {
    crate::measure_sort(&crate::sort_spec(algorithm, 64, 8, omega, k, 0xE5), input)
}

/// Run E5.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let (m, b) = (64usize, 8usize);
    let n = scale.pick(4_000usize, 40_000, 200_000);
    let input = Workload::UniformRandom.generate(n, 0xE5);

    let mut t = Table::new(
        format!("E5: AEM sample sort vs mergesort (M={m}, B={b}, n={n})"),
        &[
            "omega",
            "k",
            "smp reads",
            "smp writes",
            "smp cost",
            "mrg cost",
            "smp/mrg",
            "vs classic",
        ],
    );
    for omega in [8u64, 16] {
        let mut classic = 0u64;
        for k in [1usize, 2, 4, 8] {
            let (r, w, smp_cost) = measure(Algorithm::Samplesort, omega, k, &input);
            let (_, _, mrg_cost) = measure(Algorithm::Mergesort, omega, k, &input);
            if k == 1 {
                classic = smp_cost;
            }
            t.row(&[
                omega.to_string(),
                k.to_string(),
                r.to_string(),
                w.to_string(),
                smp_cost.to_string(),
                mrg_cost.to_string(),
                f2(smp_cost as f64 / mrg_cost as f64),
                f2(classic as f64 / smp_cost as f64),
            ]);
        }
    }
    t.note("smp/mrg stays O(1) across k: the two sorts share their asymptotics");
    t.note("splitter sampling reseeds per run (seed 0xE5), so every cell is reproducible alone");
    vec![t]
}
