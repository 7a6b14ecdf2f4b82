//! The experiment harness: regenerates every theorem-level table of the
//! reproduction, one `asym_bench` module per experiment (README
//! "Benchmarks").
//!
//! ```text
//! cargo bench -p asym-bench --bench tables                 # standard scale
//! ASYM_BENCH_SCALE=smoke cargo bench -p asym-bench --bench tables
//! ASYM_BENCH_SCALE=full  cargo bench -p asym-bench --bench tables
//! ASYM_BENCH_ONLY=E14 cargo bench -p asym-bench --bench tables   # one lane
//! ```
//!
//! `ASYM_BENCH_ONLY` takes a comma-separated list of experiment ids
//! (case-insensitive) and runs just those — the CI `kv-smoke` lane uses it
//! to run the E14 KV table without paying for the full sweep. An id that
//! matches nothing is an error, not a silent no-op run.

use asym_bench::{experiments, Scale};
use std::time::Instant;

fn main() {
    // `cargo bench` passes --bench; ignore all args.
    let scale = Scale::from_env();
    let only: Option<Vec<String>> = std::env::var("ASYM_BENCH_ONLY").ok().map(|v| {
        v.split(',')
            .map(|s| s.trim().to_ascii_uppercase())
            .collect()
    });
    println!("# Sorting with Asymmetric Read and Write Costs — experiment tables");
    println!("# scale: {scale:?} (set ASYM_BENCH_SCALE=smoke|standard|full)\n");
    let overall = Instant::now();
    let mut ran = 0usize;
    for e in experiments() {
        if only
            .as_ref()
            .is_some_and(|ids| !ids.iter().any(|id| id == e.id))
        {
            continue;
        }
        ran += 1;
        let start = Instant::now();
        println!("---------------------------------------------------------------");
        println!("{} — {}", e.id, e.claim);
        println!("---------------------------------------------------------------");
        let tables = (e.run)(scale);
        for t in tables {
            println!("{t}");
        }
        println!("[{} finished in {:.1?}]\n", e.id, start.elapsed());
    }
    assert!(
        ran > 0,
        "ASYM_BENCH_ONLY={:?} matched no experiment id",
        std::env::var("ASYM_BENCH_ONLY").unwrap_or_default()
    );
    println!("{ran} experiment(s) completed in {:.1?}", overall.elapsed());
}
