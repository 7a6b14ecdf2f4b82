//! E6 — Theorems 4.7 / 4.10: the buffer-tree priority queue supports
//! inserts and delete-mins at amortized O((k/B)(1 + log_{kM/B} n)) reads and
//! O((1/B)(1 + log_{kM/B} n)) writes, and heapsort through it matches the
//! other two AEM sorts asymptotically.

use crate::Scale;
use asym_core::em::pq::{pq_slack, AemPriorityQueue};
use asym_core::sort::Algorithm;
use asym_model::stats::log_base;
use asym_model::table::{f2, f3, Table};
use asym_model::workload::Workload;
use asym_model::Record;
use em_sim::EmConfig;
use rand::{Rng, SeedableRng};

/// One `sort::run` at the E6 geometry; returns (reads, writes, cost).
fn measure(
    algorithm: Algorithm,
    m: usize,
    b: usize,
    k: usize,
    input: &[Record],
) -> (u64, u64, u64) {
    crate::measure_sort(&crate::sort_spec(algorithm, m, b, 8, k, 0xE6), input)
}

/// Run E6.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let (m, b) = (32usize, 4usize);
    let n = scale.pick(3_000usize, 20_000, 60_000);

    // Table 1: amortized per-op costs, insert-all-delete-all and mixed.
    let mut per_op = Table::new(
        format!("E6a: amortized PQ cost per operation (M={m}, B={b}, n={n} ops each phase)"),
        &[
            "workload",
            "k",
            "reads/op",
            "writes/op",
            "formula r/op",
            "formula w/op",
        ],
    );
    for k in [1usize, 2, 4] {
        let levels = 1.0 + log_base((k * m) as f64 / b as f64, n as f64);
        // Phase A: n inserts then n delete-mins.
        {
            let em = crate::machine(EmConfig::new(m, b, 8).with_slack(pq_slack(m, b, k)));
            let mut pq = AemPriorityQueue::new(em.clone(), k).expect("pq");
            let input = Workload::UniformRandom.generate(n, 0xE6);
            for &r in &input {
                pq.insert(r).expect("insert");
            }
            while pq.delete_min().expect("dm").is_some() {}
            let s = em.stats();
            let ops = (2 * n) as f64;
            per_op.row(&[
                "bulk".into(),
                k.to_string(),
                f3(s.block_reads as f64 / ops),
                f3(s.block_writes as f64 / ops),
                f3(k as f64 / b as f64 * levels),
                f3(levels / b as f64),
            ]);
        }
        // Phase B: random 60/40 mix.
        {
            let em = crate::machine(EmConfig::new(m, b, 8).with_slack(pq_slack(m, b, k)));
            let mut pq = AemPriorityQueue::new(em.clone(), k).expect("pq");
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xE6);
            let mut ops = 0u64;
            let mut uid = 0u64;
            while ops < 2 * n as u64 {
                if rng.gen_bool(0.6) || pq.is_empty() {
                    pq.insert(Record::new(rng.gen_range(0..10_000_000), uid))
                        .expect("insert");
                    uid += 1;
                } else {
                    pq.delete_min().expect("dm");
                }
                ops += 1;
            }
            let s = em.stats();
            per_op.row(&[
                "mixed".into(),
                k.to_string(),
                f3(s.block_reads as f64 / ops as f64),
                f3(s.block_writes as f64 / ops as f64),
                f3(k as f64 / b as f64 * levels),
                f3(levels / b as f64),
            ]);
        }
    }
    per_op.note(
        "formula columns omit the theorem's hidden constants; scaling in k and B is the claim",
    );

    // Table 2: heapsort totals vs mergesort (same asymptotics claim).
    let mut totals = Table::new(
        format!("E6b: heapsort vs mergesort totals (M={m}, B={b}, n={n}, omega=8)"),
        &[
            "k",
            "heap reads",
            "heap writes",
            "heap cost",
            "merge cost",
            "heap/merge",
        ],
    );
    let input = Workload::UniformRandom.generate(n, 0x6E);
    for k in [1usize, 2, 4] {
        let (heap_reads, heap_writes, heap_cost) = measure(Algorithm::Heapsort, m, b, k, &input);
        let (_, _, merge_cost) = measure(Algorithm::Mergesort, m, b, k, &input);
        totals.row(&[
            k.to_string(),
            heap_reads.to_string(),
            heap_writes.to_string(),
            heap_cost.to_string(),
            merge_cost.to_string(),
            f2(heap_cost as f64 / merge_cost as f64),
        ]);
    }
    totals.note("heap/merge is a bounded constant: the dynamic structure costs a constant factor");
    vec![per_op, totals]
}
