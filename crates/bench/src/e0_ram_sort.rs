//! E0 — §3 on the Asymmetric RAM: sorting by balanced-tree insertion does
//! O(n log n) reads but only O(n) writes; a conventional sort writes
//! Θ(n log n). The table shows writes/n flat for the tree sort and growing
//! by ~1 per doubling for the baseline, plus the ω-weighted cost ratio.

use crate::Scale;
use asym_core::ram::pq::{BinaryHeapBaseline, RamPriorityQueue};
use asym_core::ram::tree_sort::{mergesort_baseline, tree_sort_with_counter};
use asym_model::stats::loglog_slope;
use asym_model::table::{f2, f3, Table};
use asym_model::workload::Workload;
use asym_model::{CostModel, MemCounter};

/// Run E0.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let max_exp = scale.pick(12u32, 17, 19);
    let omega = 16u64;
    let model = CostModel::new(omega);

    let mut sort_table = Table::new(
        format!("E0a: tree sort vs mergesort, uniform keys, omega={omega}"),
        &[
            "n",
            "tree reads/(n lg n)",
            "tree writes/n",
            "merge writes/n",
            "tree cost",
            "merge cost",
            "speedup",
        ],
    );
    let mut tree_writes: Vec<(f64, f64)> = Vec::new();
    for e in (10..=max_exp).step_by(2) {
        let n = 1usize << e;
        let input = Workload::UniformRandom.generate(n, e as u64);
        let ct = MemCounter::new();
        tree_sort_with_counter(&input, &ct);
        let cb = MemCounter::new();
        mergesort_baseline(&input, &cb);
        let nf = n as f64;
        tree_writes.push((nf, ct.writes() as f64));
        sort_table.row(&[
            n.to_string(),
            f3(ct.reads() as f64 / (nf * nf.log2())),
            f3(ct.writes() as f64 / nf),
            f3(cb.writes() as f64 / nf),
            model.cost_of(&ct).to_string(),
            model.cost_of(&cb).to_string(),
            f2(model.cost_of(&cb) as f64 / model.cost_of(&ct) as f64),
        ]);
    }
    sort_table.note(format!(
        "empirical write exponent (log-log slope): {:.3} — the O(n) claim",
        loglog_slope(&tree_writes)
    ));

    let mut pq_table = Table::new(
        "E0b: write-efficient priority queue vs binary heap (n inserts + n delete-mins)",
        &[
            "n",
            "tree writes/op",
            "heap writes/op",
            "tree reads/op",
            "heap reads/op",
        ],
    );
    for e in [10u32, scale.pick(12, 14, 16)] {
        let n = 1usize << e;
        let input = Workload::UniformRandom.generate(n, 7);
        let ct = MemCounter::new();
        let mut pq = RamPriorityQueue::new(ct.clone());
        for &r in &input {
            pq.insert(r);
        }
        while pq.delete_min().is_some() {}
        let ch = MemCounter::new();
        let mut heap = BinaryHeapBaseline::new(ch.clone());
        for &r in &input {
            heap.insert(r);
        }
        while heap.delete_min().is_some() {}
        let ops = (2 * n) as f64;
        pq_table.row(&[
            n.to_string(),
            f3(ct.writes() as f64 / ops),
            f3(ch.writes() as f64 / ops),
            f3(ct.reads() as f64 / ops),
            f3(ch.reads() as f64 / ops),
        ]);
    }
    pq_table.note("tree writes/op stays O(1); heap writes/op grows with lg n");
    vec![sort_table, pq_table]
}
