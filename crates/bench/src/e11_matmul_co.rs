//! E11 — Theorem 5.3: the ω²-way cache-oblivious multiply with sequential
//! accumulation writes a factor ~log ω less (ω-weighted) than the 4-way
//! recursion, in expectation over the randomized first round.

use crate::Scale;
use asym_core::co::matmul::{mm_co_4way, mm_co_asym};
use asym_model::stats::mean;
use asym_model::table::{f2, Table};
use cache_sim::{CacheConfig, PolicyChoice, SimArray, Tracker};
use rand::{Rng, SeedableRng};

/// Run E11.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let (m, b) = (2048usize, 16usize);
    let n = scale.pick(64usize, 128, 256);
    let omega = 16usize;
    let seeds = scale.pick(2u64, 5, 8);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE11);
    let a_host: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b_host: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();

    type MmFn<'a> = &'a dyn Fn(&SimArray<f64>, &SimArray<f64>, &mut SimArray<f64>);
    let measure = |f: MmFn| {
        let cfg = CacheConfig::new(m, b, omega as u64);
        let tr = Tracker::new(cfg, PolicyChoice::Lru);
        let am = SimArray::from_vec(&tr, a_host.clone());
        let bm = SimArray::from_vec(&tr, b_host.clone());
        let mut cm = SimArray::filled(&tr, n * n, 0.0);
        f(&am, &bm, &mut cm);
        tr.flush();
        tr.stats()
    };

    let mut t = Table::new(
        format!("E11: CO matmul variants (n={n}, M={m} cells, B={b}, omega={omega})"),
        &[
            "algorithm",
            "loads",
            "writebacks",
            "cost",
            "write saving vs 4-way",
        ],
    );
    let s4 = measure(&|a, bm, c| mm_co_4way(a, bm, c, n));
    t.row(&[
        "co-4way (baseline)".into(),
        s4.loads.to_string(),
        s4.writebacks.to_string(),
        s4.cost(omega as u64).to_string(),
        "1.00".into(),
    ]);
    let det = measure(&|a, bm, c| mm_co_asym(a, bm, c, n, omega, None));
    t.row(&[
        "co-asym deterministic".into(),
        det.loads.to_string(),
        det.writebacks.to_string(),
        det.cost(omega as u64).to_string(),
        f2(s4.writebacks as f64 / det.writebacks.max(1) as f64),
    ]);
    // Randomized first round: mean over seeds (the theorem's expectation).
    let mut loads = Vec::new();
    let mut wbs = Vec::new();
    let mut costs = Vec::new();
    for seed in 0..seeds {
        let s = measure(&|a, bm, c| {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            mm_co_asym(a, bm, c, n, omega, Some(&mut r))
        });
        loads.push(s.loads as f64);
        wbs.push(s.writebacks as f64);
        costs.push(s.cost(omega as u64) as f64);
    }
    t.row(&[
        format!("co-asym randomized (mean of {seeds})"),
        (mean(&loads) as u64).to_string(),
        (mean(&wbs) as u64).to_string(),
        (mean(&costs) as u64).to_string(),
        f2(s4.writebacks as f64 / mean(&wbs).max(1.0)),
    ]);
    t.note(format!(
        "log2(omega) = {}: the expected write saving the theorem predicts (up to constants)",
        (omega as f64).log2()
    ));
    vec![t]
}
