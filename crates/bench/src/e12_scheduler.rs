//! E12 (extension) — the §2 scheduler bounds. The private-cache bound
//! `Qp ≤ Q1 + O(p·D·M/B)` rests on "#steals = O(pD) w.h.p." under
//! randomized work stealing; the simulation executes fork-join trees shaped
//! like the parallel mergesort and measures steals against p·D.

use crate::Scale;
use asym_model::stats::{mean, Summary};
use asym_model::table::{f2, Table};
use rand::SeedableRng;
use wd_sim::sched::simulate_pdf;
use wd_sim::{simulate_work_stealing, Task};

/// Run E12.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let leaves = scale.pick(128usize, 512, 2048);
    let leaf_work = 64u64;
    let task = Task::balanced(leaves, leaf_work, 2);
    let d = task.depth();
    let w = task.work();
    let trials = scale.pick(3u64, 8, 16);

    let mut t = Table::new(
        format!("E12: work stealing on a mergesort-shaped DAG (work={w}, depth={d})"),
        &[
            "p",
            "mean steals",
            "max steals",
            "steals/(p*D)",
            "mean time",
            "greedy bound W/p+D",
            "utilization",
        ],
    );
    for p in [2usize, 4, 8, 16, 32] {
        let mut steals = Vec::new();
        let mut times = Vec::new();
        let mut utils = Vec::new();
        for seed in 0..trials {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed * 7919 + p as u64);
            let s = simulate_work_stealing(&task, p, &mut rng);
            steals.push(s.steals as f64);
            times.push(s.time as f64);
            utils.push(s.utilization(p));
        }
        let st = Summary::of(&steals);
        t.row(&[
            p.to_string(),
            f2(st.mean),
            f2(st.max),
            format!("{:.3}", st.mean / (p as f64 * d as f64)),
            f2(mean(&times)),
            (w / p as u64 + d).to_string(),
            f2(mean(&utils)),
        ]);
    }
    t.note("steals/(p*D) bounded by a small constant = the O(pD) steal bound");
    t.note("with 2M/B misses charged per steal this gives Qp <= Q1 + O(p*D*M/B)");

    // The PDF (shared-cache) half: premature work bounded by ~p*D, which is
    // why a shared cache of M + p*B*D suffices for Qp <= Q1.
    let mut pdf = Table::new(
        format!("E12b: parallel-depth-first schedule (work={w}, depth={d})"),
        &[
            "p",
            "time",
            "max premature leaves",
            "p*D bound",
            "premature/(p*D)",
        ],
    );
    for p in [2usize, 4, 8, 16, 32] {
        let s = simulate_pdf(&task, p);
        pdf.row(&[
            p.to_string(),
            s.time.to_string(),
            s.max_premature.to_string(),
            (p as u64 * d).to_string(),
            format!("{:.3}", s.max_premature as f64 / (p as f64 * d as f64)),
        ]);
    }
    pdf.note("premature leaves <= p*D = the shared cache needs only M + p*B*D extra room");
    vec![t, pdf]
}
