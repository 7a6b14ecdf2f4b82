//! sim-throughput — records/sec through the `EmMachine` simulator itself.
//!
//! Where the `tables` bench measures *modeled* transfer counts, this target
//! measures how fast the simulator executes them: the arena-backed disk and
//! buffer-reusing cursors are the hot path under every experiment table, so
//! their wall-clock throughput caps the problem sizes the k/ω sweeps can
//! tabulate. Workloads:
//!
//! * `raw-stream` — stage → `EmReader` → `EmWriter` copy (pure simulator
//!   overhead, no algorithm);
//! * `e3-mergesort-k{1,4,16}` — the Algorithm 2 mergesort (exercises the
//!   flat merge queue);
//! * `e5-samplesort-k4` — the §4.2 distribution sort (exercises the bucket
//!   writers);
//! * `e6-heapsort-k4` — the §4.3 heapsort (exercises the buffer tree's run
//!   cursors and the priority queue's β extraction, both on the Lemma 4.2
//!   selection kernel).
//!
//! ```text
//! cargo bench -p asym-bench --bench sim_throughput              # + BENCH_sim.json
//! cargo bench -p asym-bench --bench sim_throughput -- --json out.json
//! ASYM_BENCH_SCALE=smoke cargo bench -p asym-bench --bench sim_throughput
//! ```
//!
//! Each run emits a `BENCH_sim.json` bench report (see `asym_bench::json`)
//! with one records/sec entry per workload, which CI uploads as an artifact
//! so the perf trajectory of the simulator is tracked per commit.

use asym_bench::json::{json_path_from_args, BenchReport};
use asym_bench::Scale;
use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::workload::Workload;
use asym_model::Record;
use criterion::{BenchmarkId, Criterion};
use em_sim::{EmConfig, EmStats, EmVec, EmWriter};
use std::time::{Duration, Instant};

/// Machine geometry shared by every workload (matches the E3 tables).
const M: usize = 64;
const B: usize = 8;
const OMEGA: u64 = 8;

/// One simulator workload: stable id, the algorithm tag for the JSON
/// report (empty for non-sort workloads), records per run, and a runner
/// that executes one full pass over a fresh machine and returns its modeled
/// transfer stats (identical across backends by construction — the JSON
/// report freezes them so CI can diff against the committed baseline).
struct Case {
    id: &'static str,
    algorithm: &'static str,
    n: usize,
    run: Box<dyn Fn() -> EmStats>,
}

fn cases(scale: Scale) -> Vec<Case> {
    let n_raw = scale.pick(100_000usize, 2_000_000, 10_000_000);
    let n_sort = scale.pick(20_000usize, 200_000, 1_000_000);
    let mut cases = vec![raw_stream_case(n_raw)];
    for k in [1usize, 4, 16] {
        cases.push(mergesort_case(k, n_sort));
    }
    cases.push(samplesort_case(4, n_sort));
    cases.push(heapsort_case(4, n_sort));
    cases
}

/// Stage n records and stream them reader → writer: the pure cursor path.
fn raw_stream_case(n: usize) -> Case {
    let input: Vec<Record> = Workload::UniformRandom.generate(n, 0x5EED);
    Case {
        id: "raw-stream",
        algorithm: "",
        n,
        run: Box::new(move || {
            let em = asym_bench::machine(EmConfig::new(M, B, OMEGA));
            let v = EmVec::stage(&em, &input);
            let mut w = EmWriter::new(&em).expect("writer lease");
            let mut r = v.reader(&em).expect("reader lease");
            while let Some(x) = r.next() {
                w.push(x);
            }
            drop(r);
            let out = w.finish();
            assert_eq!(out.len(), n);
            em.stats()
        }),
    }
}

/// The job description a sort case runs (backend from `ASYM_BENCH_BACKEND`,
/// seed matching the workload's so the splitter schedule is frozen).
fn sort_spec(algorithm: Algorithm, k: usize, seed: u64) -> SortSpec {
    asym_bench::sort_spec(algorithm, M, B, OMEGA, k, seed)
}

fn mergesort_case(k: usize, n: usize) -> Case {
    let input: Vec<Record> = Workload::UniformRandom.generate(n, 0xE3);
    let id: &'static str = match k {
        1 => "e3-mergesort-k1",
        4 => "e3-mergesort-k4",
        16 => "e3-mergesort-k16",
        _ => unreachable!("fixed k sweep"),
    };
    let spec = sort_spec(Algorithm::Mergesort, k, 0xE3);
    Case {
        id,
        algorithm: Algorithm::Mergesort.name(),
        n,
        run: Box::new(move || {
            let outcome = sort::run(&spec, &input).expect("mergesort");
            assert_eq!(outcome.output.len(), n);
            outcome.stats
        }),
    }
}

fn samplesort_case(k: usize, n: usize) -> Case {
    let input: Vec<Record> = Workload::UniformRandom.generate(n, 0xE5);
    let spec = sort_spec(Algorithm::Samplesort, k, 0xE5);
    Case {
        id: "e5-samplesort-k4",
        algorithm: Algorithm::Samplesort.name(),
        n,
        run: Box::new(move || {
            let outcome = sort::run(&spec, &input).expect("samplesort");
            assert_eq!(outcome.output.len(), n);
            outcome.stats
        }),
    }
}

fn heapsort_case(k: usize, n: usize) -> Case {
    let input: Vec<Record> = Workload::UniformRandom.generate(n, 0xE6);
    let spec = sort_spec(Algorithm::Heapsort, k, 0xE6);
    Case {
        id: "e6-heapsort-k4",
        algorithm: Algorithm::Heapsort.name(),
        n,
        run: Box::new(move || {
            let outcome = sort::run(&spec, &input).expect("heapsort");
            assert_eq!(outcome.output.len(), n);
            outcome.stats
        }),
    }
}

fn main() {
    let scale = Scale::from_env();
    // Default to the workspace root (cargo runs benches from the package
    // dir), so `BENCH_sim.json` lands next to README.md unless overridden.
    let default_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let json_path = json_path_from_args(std::env::args().skip(1), default_json);
    let cases = cases(scale);

    // Criterion wall-clock display (min/mean/max per run).
    let mut c = Criterion::default();
    {
        let mut group = c.benchmark_group("sim-throughput");
        group
            .sample_size(scale.pick(3, 5, 5))
            .warm_up_time(Duration::from_millis(scale.pick(50, 300, 300)));
        for case in &cases {
            group.bench_with_input(BenchmarkId::new(case.id, case.n), &(), |b, ()| {
                b.iter(|| (case.run)())
            });
        }
        group.finish();
    }

    // One clean timed run per workload feeds the JSON report. The modeled
    // stats ride along so the CI regression gate can pin them exactly.
    let mut report = BenchReport::new("sim-throughput", scale.name())
        .with_backend(asym_bench::backend_from_env().name());
    for case in &cases {
        let start = Instant::now();
        let stats = (case.run)();
        let secs = start.elapsed().as_secs_f64();
        report.push_sort(case.id, case.algorithm, case.n as u64, secs, stats);
    }
    report.write_to(&json_path).expect("write bench json");
    println!("wrote bench report to {}", json_path.display());
    for e in report.entries() {
        println!(
            "{:<18} {:>10} records in {:>9.4}s  ->  {:>12.0} records/sec",
            e.id, e.records, e.seconds, e.records_per_sec
        );
    }
}
