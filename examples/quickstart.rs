//! Quickstart: the three machine models in one tour.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! 1. RAM: sort with O(n) writes via the red-black tree (§3) and compare
//!    against an ordinary mergesort under asymmetric cost.
//! 2. AEM: sort on the external-memory machine with the k = ω mergesort
//!    (Algorithm 2) and see block writes shrink versus the classic k = 1.
//! 3. Ideal-Cache: run the cache-oblivious sort (§5.1 / Figure 1) under an
//!    LRU cache and watch dirty writebacks drop as ω grows.

use asym_core::co::co_asym_sort;
use asym_core::ram::tree_sort::{mergesort_baseline, tree_sort_with_counter};
use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::workload::Workload;
use asym_model::{CostModel, MemCounter};
use cache_sim::{CacheConfig, PolicyChoice, SimArray, Tracker};

fn main() {
    let n = 1 << 15;
    let omega = 8u64;
    let input = Workload::UniformRandom.generate(n, 42);
    let model = CostModel::new(omega);

    println!("== 1. Asymmetric RAM (omega = {omega}) ==");
    let c_tree = MemCounter::new();
    let (sorted, stats) = tree_sort_with_counter(&input, &c_tree);
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let c_base = MemCounter::new();
    mergesort_baseline(&input, &c_base);
    println!(
        "  tree sort : {:>9} reads {:>9} writes  cost {:>10}  ({} rotations)",
        c_tree.reads(),
        c_tree.writes(),
        model.cost_of(&c_tree),
        stats.rotations
    );
    println!(
        "  mergesort : {:>9} reads {:>9} writes  cost {:>10}",
        c_base.reads(),
        c_base.writes(),
        model.cost_of(&c_base)
    );
    println!(
        "  -> write-efficient sorting is {:.2}x cheaper\n",
        model.cost_of(&c_base) as f64 / model.cost_of(&c_tree) as f64
    );

    // The AEM tour runs through the unified sort API: one validated
    // `SortSpec` per job, dispatched by `sort::run`. `from_env` absorbs
    // `ASYM_BENCH_BACKEND=file` (swap the in-memory slab for a real temp
    // file — modeled costs are identical by construction; only wall-clock
    // time changes).
    let (m, b) = (256usize, 16usize);
    let probe = SortSpec::builder(Algorithm::Mergesort, m, b, omega)
        .from_env()
        .expect("parse ASYM_BENCH_* environment")
        .build()
        .expect("valid spec");
    println!(
        "== 2. Asymmetric External Memory (M={m}, B={b}, omega={omega}, backend={}) ==",
        probe.backend()
    );
    let mut best = (0usize, u64::MAX);
    for k in [1usize, 2, 4, 8] {
        let spec = SortSpec::builder(Algorithm::Mergesort, m, b, omega)
            .k(k)
            .from_env()
            .expect("parse ASYM_BENCH_* environment")
            .build()
            .expect("valid spec");
        let outcome = sort::run(&spec, &input).expect("sort");
        assert_eq!(outcome.output.len(), n);
        if outcome.io_cost() < best.1 {
            best = (k, outcome.io_cost());
        }
        println!(
            "  k={k:>2}: {:>7} block reads {:>7} block writes  I/O cost {:>9}",
            outcome.stats.block_reads,
            outcome.stats.block_writes,
            outcome.io_cost()
        );
    }
    println!(
        "  -> k={} wins: Corollary 4.4 predicts improvements while k/log k < omega/log(M/B) = {:.2}\n",
        best.0,
        omega as f64 / ((m / b) as f64).log2()
    );

    println!("== 3. Asymmetric Ideal-Cache (M=4096 cells, B=16, omega={omega}) ==");
    for w in [1usize, omega as usize] {
        let cfg = CacheConfig::new(4096, 16, omega);
        let t = Tracker::new(cfg, PolicyChoice::Lru);
        let mut a = SimArray::from_vec(&t, input.clone());
        let tel = co_asym_sort(&mut a, 0, n, w, 1024);
        t.flush();
        let s = t.stats();
        println!(
            "  algorithm omega={w:>2}: {:>7} loads {:>6} writebacks  cost {:>9}   \
             ({} subarrays, {} buckets)",
            s.loads,
            s.writebacks,
            s.cost(omega),
            tel.subarrays,
            tel.buckets
        );
    }
    println!("  -> the omega-aware sort spends reads to cut dirty evictions");
}
