//! E10 — Theorem 5.2: the EM blocked matrix multiply does O(n³/(B√M))
//! reads but only O(n²/B) writes (each output tile written once).

use crate::Scale;
use asym_core::co::matmul::{mm_em_blocked, mm_naive};
use asym_model::table::{f2, Table};
use cache_sim::{CacheConfig, PolicyChoice, SimArray, Tracker};
use rand::{Rng, SeedableRng};

/// Run E10.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let (m, b) = (2048usize, 16usize);
    // Block-aligned tile dividing every n below (3 tiles of 16² cells = 768
    // cells resident, within M); misaligned tiles would double-write the
    // straddled C blocks.
    let tile = 16usize;
    let mut t = Table::new(
        format!("E10: EM blocked matmul (M={m} cells, B={b}, tile={tile}, omega=16)"),
        &[
            "n",
            "algorithm",
            "loads",
            "writebacks",
            "reads/(n^3/(B sqrt M))",
            "writes/(n^2/B)",
        ],
    );
    let sizes: &[usize] = match scale {
        Scale::Smoke => &[48],
        Scale::Standard => &[48, 96, 144],
        Scale::Full => &[48, 96, 144, 192],
    };
    for &n in sizes {
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let a_host: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b_host: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let run = |blocked: bool| {
            let cfg = CacheConfig::new(m, b, 16);
            let tr = Tracker::new(cfg, PolicyChoice::Lru);
            let am = SimArray::from_vec(&tr, a_host.clone());
            let bm = SimArray::from_vec(&tr, b_host.clone());
            let mut cm = SimArray::filled(&tr, n * n, 0.0);
            if blocked {
                mm_em_blocked(&am, &bm, &mut cm, n, tile);
            } else {
                mm_naive(&am, &bm, &mut cm, n);
            }
            tr.flush();
            tr.stats()
        };
        let nf = n as f64;
        let read_unit = nf.powi(3) / (b as f64 * (m as f64).sqrt());
        let write_unit = nf * nf / b as f64;
        for (name, blocked) in [("naive", false), ("em-blocked", true)] {
            let s = run(blocked);
            t.row(&[
                n.to_string(),
                name.into(),
                s.loads.to_string(),
                s.writebacks.to_string(),
                f2(s.loads as f64 / read_unit),
                f2(s.writebacks as f64 / write_unit),
            ]);
        }
    }
    t.note("blocked: reads/(n^3/(B sqrt M)) and writes/(n^2/B) are flat constants (Thm 5.2)");
    t.note("naive: the read column explodes because B-column access thrashes");
    vec![t]
}
