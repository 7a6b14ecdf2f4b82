//! par-sort — throughput and modeled costs of the parallel AEM sample sort
//! across the lane sweep.
//!
//! One entry per (lanes, ω) configuration of experiment E13. The modeled
//! `(reads, writes, peak_memory)` ride along in the JSON report, so the CI
//! gate pins two things at once: the transfer schedule itself (any drift is
//! a model regression) and — because every lane count must report the same
//! write total as the one-lane serial schedule — the work-preservation
//! invariant of the parallel execution spine.
//!
//! ```text
//! cargo bench -p asym-bench --bench par_sort                 # + BENCH_par.json
//! cargo bench -p asym-bench --bench par_sort -- --json out.json
//! ASYM_BENCH_SCALE=smoke cargo bench -p asym-bench --bench par_sort
//! ```
//!
//! `ASYM_BENCH_BACKEND` selects the lanes' block stores (`mem` or `file`);
//! `ASYM_BENCH_THREADS` caps the lane sweep (the CI thread matrix).

use asym_bench::e13_par_sort;
use asym_bench::json::{json_path_from_args, BenchReport};
use asym_bench::Scale;
use asym_core::sort::Algorithm;

/// The ω sweep: the write-asymmetric half of the E13 grid (the table also
/// tabulates ω ∈ {1, 2}; the JSON gate pins the costlier configurations).
const OMEGAS: [u64; 2] = [8, 32];

fn main() {
    let scale = Scale::from_env();
    let n = scale.pick(4_000usize, 40_000, 200_000);
    let default_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_par.json");
    let json_path = json_path_from_args(std::env::args().skip(1), default_json);
    let samples = scale.pick(3, 5, 5);
    let lanes = e13_par_sort::lane_counts();
    // The input is generated once and each configuration's spec is built
    // before its timer starts. The steal-charging knob stays off here so
    // every lane count reports the same write total and the committed
    // baseline keeps re-proving work preservation on every CI run. Machine
    // construction happens inside the adapter, i.e. inside the timed
    // window: on the default mem backend (where the committed baseline and
    // the CI gate run) a fresh lane bank is a few arena headers, far below
    // the timer's noise floor; on ASYM_BENCH_BACKEND=file it additionally
    // creates one temp file per lane per run, so file-matrix numbers are
    // job-level timings (as in sim_throughput on the file backend), not
    // pure sort kernels.
    let input = e13_par_sort::input_for(n);

    // Each row's seconds are the median of `samples` timed runs; modeled
    // stats ride along so the CI regression gate can pin them exactly.
    let mut report = BenchReport::new("par-sort", scale.name())
        .with_backend(asym_bench::backend_from_env().name());
    for &omega in &OMEGAS {
        for &p in &lanes {
            let spec = e13_par_sort::spec(omega, p, false);
            let id = format!("e13-par-sort-w{omega}-l{p}");
            let (secs, stats) =
                asym_bench::time_row(&id, samples, || e13_par_sort::run_spec(&spec, &input).stats);
            report.push_sort(id, Algorithm::ParSamplesort.name(), n as u64, secs, stats);
        }
    }
    report.write_to(&json_path).expect("write bench json");
    println!("wrote bench report to {}", json_path.display());
    for e in report.entries() {
        println!(
            "{:<22} {:>10} records in {:>9.4}s  ->  {:>12.0} records/sec  (reads={}, writes={})",
            e.id, e.records, e.seconds, e.records_per_sec, e.reads, e.writes
        );
    }
}
