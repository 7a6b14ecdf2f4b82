//! Wall-clock timings of the *real* (non-simulated) implementations: the
//! RAM tree sort, the threaded sample sort, and the std-library sort as the
//! reference point. The simulated-model experiments live in the `tables`
//! bench; these numbers are about implementation overhead, not model
//! costs. Each row prints the min/median/max of its timed runs through
//! `asym_bench::time_row`; no JSON report is written.
//!
//! ```text
//! cargo bench -p asym-bench --bench wallclock
//! ```

use asym_bench::time_row;
use asym_core::par::par_sample_sort;
use asym_core::ram::pq::RamPriorityQueue;
use asym_core::ram::tree_sort::tree_sort;
use asym_model::workload::Workload;
use asym_model::MemCounter;
use em_sim::EmStats;
use std::hint::black_box;

/// Timed runs per row.
const SAMPLES: usize = 10;

fn main() {
    // These implementations model no block transfers, so every row
    // reports default stats.
    for n in [1usize << 14, 1 << 16] {
        let input = Workload::UniformRandom.generate(n, 1);
        time_row(&format!("sort-wallclock/std-sort/{n}"), SAMPLES, || {
            let mut v = input.clone();
            v.sort_unstable();
            black_box(v);
            EmStats::default()
        });
        time_row(&format!("sort-wallclock/tree-sort/{n}"), SAMPLES, || {
            black_box(tree_sort(&input));
            EmStats::default()
        });
        for threads in [1usize, 2, 4] {
            let id = format!("sort-wallclock/par-sample-sort-t{threads}/{n}");
            time_row(&id, SAMPLES, || {
                black_box(par_sample_sort(&input, threads, 7));
                EmStats::default()
            });
        }
    }

    let n = 1usize << 14;
    let input = Workload::UniformRandom.generate(n, 2);
    time_row("pq-wallclock/ram-pq-insert-drain", SAMPLES, || {
        let mut pq = RamPriorityQueue::new(MemCounter::new());
        for &r in &input {
            pq.insert(r);
        }
        let mut out = Vec::with_capacity(n);
        while let Some(r) = pq.delete_min() {
            out.push(r);
        }
        black_box(out);
        EmStats::default()
    });
}
