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
//! * `stage-gather` — stage the input, then gather it back: the uncharged
//!   bulk paths every `sort::run` starts and ends with, zero modeled
//!   transfers;
//! * `e3-mergesort-k{1,4,16}` — the Algorithm 2 mergesort (exercises the
//!   slice merge queue and its phase-1 selection);
//! * `e3-mergesort-k4-runs4` — the same k=4 mergesort over a compaction's
//!   shape, four sorted runs laid end to end (exercises the run-aware base
//!   case and merges whose runs barely interleave);
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
//! ASYM_BENCH_BACKEND=file cargo bench -p asym-bench --bench sim_throughput -- --json f.json
//! ```
//!
//! Each run emits a `BENCH_sim.json` bench report (see `asym_bench::json`)
//! with one records/sec entry per workload — the median of several timed
//! runs (`asym_bench::time_row`) — which CI uploads as an artifact so the
//! perf trajectory of the simulator is tracked per commit. On
//! `ASYM_BENCH_BACKEND=file` the same rows run the modeled transfer
//! schedule as real file I/O, with the same modeled counts.

use asym_bench::json::{json_path_from_args, BenchReport};
use asym_bench::Scale;
use asym_core::sort::{self, Algorithm};
use asym_model::workload::Workload;
use asym_model::Record;
use em_sim::{EmConfig, EmStats, EmVec, EmWriter};

/// Machine geometry shared by every workload (matches the E3 tables).
const M: usize = 64;
const B: usize = 8;
const OMEGA: u64 = 8;

/// The sort rows: id, algorithm, fan-in `k`, and the seed of both the
/// input and the splitter schedule (the experiment's, so counts stay
/// frozen).
const SORTS: [(&str, Algorithm, usize, u64); 5] = [
    ("e3-mergesort-k1", Algorithm::Mergesort, 1, 0xE3),
    ("e3-mergesort-k4", Algorithm::Mergesort, 4, 0xE3),
    ("e3-mergesort-k16", Algorithm::Mergesort, 16, 0xE3),
    ("e5-samplesort-k4", Algorithm::Samplesort, 4, 0xE5),
    ("e6-heapsort-k4", Algorithm::Heapsort, 4, 0xE6),
];

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
    let mut cases = vec![raw_stream_case(n_raw), stage_gather_case(n_raw)];
    for (id, algorithm, k, seed) in SORTS {
        let input = Workload::UniformRandom.generate(n_sort, seed);
        cases.push(sort_case(id, algorithm, k, seed, input));
    }
    let (algorithm, k, seed) = (Algorithm::Mergesort, 4, 0xE3);
    let runs = concatenated_runs(n_sort, 4, seed);
    cases.push(sort_case("e3-mergesort-k4-runs4", algorithm, k, seed, runs));
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

/// Stage n records and gather them back: the store's uncharged bulk
/// paths, which charge no transfer.
fn stage_gather_case(n: usize) -> Case {
    let input: Vec<Record> = Workload::UniformRandom.generate(n, 0x5EED);
    Case {
        id: "stage-gather",
        algorithm: "",
        n,
        run: Box::new(move || {
            let em = asym_bench::machine(EmConfig::new(M, B, OMEGA));
            let v = EmVec::stage(&em, &input);
            let out = v.read_all_uncharged(&em);
            assert_eq!(out.len(), n);
            v.free(&em);
            em.stats()
        }),
    }
}

/// `n` uniform records in `runs` sorted runs laid end to end, as a
/// compaction's input is; payloads stay the generator's positions, so the
/// records are distinct.
fn concatenated_runs(n: usize, runs: usize, seed: u64) -> Vec<Record> {
    let mut input = Workload::UniformRandom.generate(n, seed);
    for r in 0..runs {
        input[n * r / runs..n * (r + 1) / runs].sort_unstable();
    }
    input
}

/// One `sort::run` of `input` on the env-selected backend.
fn sort_case(
    id: &'static str,
    algorithm: Algorithm,
    k: usize,
    seed: u64,
    input: Vec<Record>,
) -> Case {
    let n = input.len();
    let spec = asym_bench::sort_spec(algorithm, M, B, OMEGA, k, seed);
    Case {
        id,
        algorithm: algorithm.name(),
        n,
        run: Box::new(move || {
            let outcome = sort::run(&spec, &input).unwrap_or_else(|e| panic!("{id}: {e}"));
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
    let samples = scale.pick(3, 9, 5);

    // The modeled stats ride along (identical on every run) so the CI
    // regression gate can pin them exactly.
    let mut report = BenchReport::new("sim-throughput", scale.name())
        .with_backend(asym_bench::backend_from_env().name());
    for case in cases(scale) {
        let (secs, stats) =
            asym_bench::time_row(&format!("sim-throughput/{}", case.id), samples, &case.run);
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
