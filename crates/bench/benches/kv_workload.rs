//! kv-workload — the ω-aware LSM engine end to end, wall clock plus the
//! frozen modeled counts CI gates on.
//!
//! Replays the E14 op stream (80% puts, 10% deletes, 10% gets, fixed
//! xorshift seed) through real `asym-kv` engines across the `(style, T, ω)`
//! grid. Every compaction runs as an admitted sort-service job, so the
//! measured totals — engine flush/probe I/O merged with each job's stats —
//! exercise the memtable, the fence-pointer probes, the merge scheduler,
//! and the service submit path in one number per cell.
//!
//! ```text
//! cargo bench -p asym-bench --bench kv_workload              # + BENCH_kv.json
//! cargo bench -p asym-bench --bench kv_workload -- --json out.json
//! ASYM_BENCH_SCALE=smoke cargo bench -p asym-bench --bench kv_workload
//! ```
//!
//! The modeled `(reads, writes, peak_memory)` in the report are
//! deterministic (pinned seed, pinned fan-in, backend-invariant stats), so
//! the committed `BENCH_kv.json` baseline is an exact-count regression gate
//! — `bench_check` fails CI on any drift — while wall clock gets the usual
//! tolerance.

use asym_bench::e14_kv::{measure, ops_for, OMEGAS, STYLE_POINTS};
use asym_bench::json::{json_path_from_args, BenchReport};
use asym_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    // Default next to README.md (cargo runs benches from the package dir).
    let default_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kv.json");
    let json_path = json_path_from_args(std::env::args().skip(1), default_json);
    let ops = ops_for(scale);
    let samples = scale.pick(3, 5, 5);

    // Each (style, T, ω) cell's seconds are the median of `samples` timed
    // runs, each on a fresh engine.
    let mut report = BenchReport::new("kv-workload", scale.name())
        .with_backend(asym_bench::backend_from_env().name());
    for omega in OMEGAS {
        for (style, t) in STYLE_POINTS {
            let id = format!("kv-{}-t{t}-omega{omega}", style.name());
            let (secs, stats) =
                asym_bench::time_row(&id, samples, || measure(style, t, omega, ops).stats);
            report.push_with_stats(id, ops, secs, stats);
        }
    }
    report.write_to(&json_path).expect("write bench json");
    println!("wrote bench report to {}", json_path.display());
    for e in report.entries() {
        println!(
            "{:<28} {:>8} ops in {:>9.4}s  ->  {:>10.0} ops/sec  (r={}, w={})",
            e.id, e.records, e.seconds, e.records_per_sec, e.reads, e.writes
        );
    }
}
