//! E1 — Theorem 3.2: the Asymmetric CRCW PRAM sample sort performs
//! O(n log n) reads, O(n) writes, and has O(ω log n) depth w.h.p. The first
//! table sweeps n at fixed ω; the second reports the per-step breakdown of
//! Algorithm 1 at the largest size; the third sweeps ω to show the depth
//! scaling.

use crate::Scale;
use asym_core::pram::pram_sample_sort;
use asym_model::table::{f2, f3, Table};
use asym_model::workload::Workload;
use rand::SeedableRng;

/// Run E1.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let omega = 8u64;
    let max_exp = scale.pick(12u32, 16, 18);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE1);

    let mut sweep = Table::new(
        format!("E1a: Algorithm 1 cost vs n (omega={omega}, step 6 enabled)"),
        &[
            "n",
            "reads/(n lg n)",
            "writes/n",
            "depth",
            "depth/(omega lg n)",
            "placement tries/n",
        ],
    );
    let mut last_report = None;
    for e in (10..=max_exp).step_by(2) {
        let n = 1usize << e;
        let input = Workload::UniformRandom.generate(n, e as u64);
        let (out, report) = pram_sample_sort(&input, omega, &mut rng, true);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        let nf = n as f64;
        sweep.row(&[
            n.to_string(),
            f3(report.total.reads as f64 / (nf * nf.log2())),
            f3(report.total.writes as f64 / nf),
            report.total.depth.to_string(),
            f2(report.total.depth as f64 / (omega as f64 * nf.log2())),
            f2(report.placement_tries as f64 / nf),
        ]);
        last_report = Some((n, report));
    }
    sweep.note("writes/n flat + reads/(n lg n) flat = the Theorem 3.2 work bounds");
    sweep.note(
        "depth/(omega lg n) grows ~log n via the substitute sample sorter \
         (the Cole substitute, asym_core::pram module doc)",
    );

    let (n, report) = last_report.expect("at least one row");
    let mut steps = Table::new(
        format!("E1b: per-step breakdown at n={n}"),
        &["step", "reads/n", "writes/n", "depth"],
    );
    for (name, c) in &report.steps {
        steps.row(&[
            name.to_string(),
            f3(c.reads as f64 / n as f64),
            f3(c.writes as f64 / n as f64),
            c.depth.to_string(),
        ]);
    }
    steps.row(&[
        "TOTAL".into(),
        f3(report.total.reads as f64 / n as f64),
        f3(report.total.writes as f64 / n as f64),
        report.total.depth.to_string(),
    ]);

    let mut omegas = Table::new(
        "E1c: depth scaling with omega (fixed n)",
        &[
            "omega",
            "depth",
            "depth/omega",
            "buckets",
            "max final bucket",
        ],
    );
    let n = 1usize << scale.pick(11, 14, 16);
    let input = Workload::UniformRandom.generate(n, 3);
    for w in [2u64, 4, 8, 16, 32] {
        let (_, r) = pram_sample_sort(&input, w, &mut rng, true);
        omegas.row(&[
            w.to_string(),
            r.total.depth.to_string(),
            f2(r.total.depth as f64 / w as f64),
            r.buckets.to_string(),
            r.max_final_bucket.to_string(),
        ]);
    }
    omegas.note("depth/omega stabilizing = the O(omega log n) claim's omega factor");
    vec![sweep, steps, omegas]
}
