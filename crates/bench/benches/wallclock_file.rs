//! wallclock_file — wall-clock parity of the file-backed block device.
//!
//! The AEM model charges `1` per block read and `ω` per block write because
//! NVM-class devices behave that way. Every modeled experiment in this repo
//! runs the same transfer schedule regardless of backend — this bench runs
//! E3 (mergesort) and E5 (sample sort) on **both** the in-memory slab and
//! the file-backed [`em_sim::FileStore`], and prints measured seconds next
//! to the modeled `reads + ω·writes` charge, so the cost/time correlation
//! the paper predicts becomes an observable artifact:
//!
//! * across backends, modeled `(reads, writes)` are asserted identical
//!   (costs are backend-independent by construction);
//! * within the file backend, wall-clock time scales with the number of
//!   block transfers — the `sec/kio` column (seconds per thousand unit
//!   charges) should be roughly flat across workloads on one device.
//!
//! ```text
//! cargo bench -p asym-bench --bench wallclock_file
//! ASYM_BENCH_SCALE=smoke cargo bench -p asym-bench --bench wallclock_file
//! cargo bench -p asym-bench --bench wallclock_file -- --json out.json
//! ```
//!
//! The optional JSON report (default `BENCH_wallclock_file.json`, not
//! committed) uses the same schema as `BENCH_sim.json`, tagged
//! `backend: "file"`, so runs can be diffed across machines.

use asym_bench::json::{json_path_from_args, BenchReport};
use asym_bench::Scale;
use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::record::assert_sorted_permutation;
use asym_model::table::{f2, Table};
use asym_model::workload::Workload;
use asym_model::Record;
use em_sim::{Backend, EmStats};
use std::time::Instant;

/// Machine geometry shared by every workload (matches the E3 tables).
const M: usize = 64;
const B: usize = 8;
const OMEGA: u64 = 8;

/// One workload: a stable id, the algorithm tag for the JSON report, and a
/// runner returning the run's modeled stats plus the measured seconds for
/// the given backend. The runner times the whole unified-API job — machine
/// construction, uncharged staging, the modeled transfer schedule, and the
/// uncharged gather. On the file backend the uncharged staging and gather
/// are real device I/O too (~2·n/B transfers on top of the modeled
/// schedule), so `seconds`, `us/io`, and `file/mem` measure the *job*, not
/// the modeled schedule alone — they overstate the per-modeled-transfer
/// device cost by that bounded fraction. The job shape is identical on
/// both backends, so ratios remain comparable across workloads and
/// commits; they are no longer a pure device-latency isolate.
struct Case {
    id: &'static str,
    algorithm: &'static str,
    n: usize,
    run: Box<dyn Fn(Backend) -> (EmStats, f64)>,
}

/// One timed `sort::run` of `spec` over `input`.
fn timed_run(spec: &SortSpec, input: &[Record]) -> (EmStats, f64) {
    let start = Instant::now();
    let outcome = sort::run(spec, input).expect("sort");
    let seconds = start.elapsed().as_secs_f64();
    assert_sorted_permutation(input, &outcome.output);
    (outcome.stats, seconds)
}

fn spec_for(algorithm: Algorithm, k: usize, seed: u64, backend: Backend) -> SortSpec {
    SortSpec::builder(algorithm, M, B, OMEGA)
        .k(k)
        .seed(seed)
        .backend(backend)
        .build()
        .unwrap_or_else(|e| panic!("bench spec: {e}"))
}

fn mergesort_case(k: usize, n: usize) -> Case {
    let input: Vec<Record> = Workload::UniformRandom.generate(n, 0xE3);
    let id: &'static str = match k {
        1 => "e3-mergesort-k1",
        8 => "e3-mergesort-k8",
        _ => unreachable!("fixed k sweep"),
    };
    Case {
        id,
        algorithm: Algorithm::Mergesort.name(),
        n,
        run: Box::new(move |backend| {
            timed_run(&spec_for(Algorithm::Mergesort, k, 0xE3, backend), &input)
        }),
    }
}

fn samplesort_case(k: usize, n: usize) -> Case {
    let input: Vec<Record> = Workload::UniformRandom.generate(n, 0xE5);
    Case {
        id: "e5-samplesort-k4",
        algorithm: Algorithm::Samplesort.name(),
        n,
        run: Box::new(move |backend| {
            timed_run(&spec_for(Algorithm::Samplesort, k, 0xE5, backend), &input)
        }),
    }
}

fn main() {
    let scale = Scale::from_env();
    let n = scale.pick(10_000usize, 100_000, 400_000);
    let cases = [
        mergesort_case(1, n),
        mergesort_case(8, n),
        samplesort_case(4, n),
    ];

    let mut table = Table::new(
        format!(
            "wallclock_file: measured seconds vs modeled cost (M={M}, B={B}, omega={OMEGA}, n={n})"
        ),
        &[
            "workload",
            "backend",
            "reads",
            "writes",
            "cost R+wW",
            "seconds",
            "us/io",
            "file/mem",
        ],
    );
    let default_json = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_wallclock_file.json"
    );
    let json_path = json_path_from_args(std::env::args().skip(1), default_json);
    let mut report = BenchReport::new("wallclock-file", scale.name()).with_backend("file");

    for case in &cases {
        let mut seconds = [0.0f64; 2];
        let mut stats = [EmStats::default(); 2];
        for (i, backend) in [Backend::Mem, Backend::File].into_iter().enumerate() {
            (stats[i], seconds[i]) = (case.run)(backend);
        }
        assert_eq!(
            stats[0], stats[1],
            "{}: modeled costs must not depend on the backend",
            case.id
        );
        let cost = stats[1].block_reads + OMEGA * stats[1].block_writes;
        for (i, backend) in [Backend::Mem, Backend::File].into_iter().enumerate() {
            table.row(&[
                case.id.into(),
                backend.name().into(),
                stats[i].block_reads.to_string(),
                stats[i].block_writes.to_string(),
                cost.to_string(),
                format!("{:.4}", seconds[i]),
                f2(seconds[i] * 1e6 / cost as f64),
                if backend == Backend::File {
                    f2(seconds[1] / seconds[0])
                } else {
                    "1.00".into()
                },
            ]);
        }
        report.push_sort(case.id, case.algorithm, case.n as u64, seconds[1], stats[1]);
    }
    table.note("modeled (reads, writes) asserted identical across backends");
    table
        .note("us/io = microseconds of whole-job time per unit of modeled charge; flat-ish across");
    table.note(
        "workloads on one device (the job includes uncharged staging/gather, ~2n/B transfers)",
    );
    table.note("file/mem = wall-clock slowdown of the full file-backed job vs the slab arena");
    print!("{table}");

    report.write_to(&json_path).expect("write bench json");
    println!("wrote bench report to {}", json_path.display());
}
