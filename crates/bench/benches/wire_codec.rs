//! wire-codec — the JSON codec on a compaction-shaped inline job, one row
//! per direction of each document that carries bulk records.
//!
//! The job is what an `asym-kv` compaction (and perfbench's `sort-inline`
//! workload) submits: 16,384 records in four sorted runs over a 100k-key
//! space, sorted by mergesort (M=1024, B=32, k=4, ω=8). Rows:
//!
//! * `codec-request-encode` / `codec-request-decode` — `JobRequest` with
//!   its inline input (the HTTP body and the `accepted` WAL line);
//! * `codec-outcome-encode` / `codec-outcome-decode` — `SortOutcome` with
//!   its sorted output (the `completed` WAL line and the status reply);
//! * `codec-manifest-render` — every checkpoint manifest of the staged run
//!   (the `checkpointed` WAL lines), rendered once each.
//!
//! ```text
//! cargo bench -p asym-bench --bench wire_codec              # + BENCH_codec.json
//! cargo bench -p asym-bench --bench wire_codec -- --json out.json
//! ```
//!
//! Each row's time is the median over repetitions. The outcome and
//! manifest rows carry the modeled stats of the sort that produced them,
//! so `bench_check` pins those counts exactly; the request rows carry none.

use asym_bench::json::{json_path_from_args, BenchReport};
use asym_bench::Scale;
use asym_core::sort::{run, run_staged, Algorithm, MemCheckpointer, SortOutcome, SortSpec};
use asym_model::workload::Workload;
use asym_model::Record;
use asym_serve::JobRequest;
use em_sim::EmStats;
use std::hint::black_box;
use std::time::Instant;

/// Records per job: the inline compaction size the service is tuned for.
const N: usize = 16_384;

/// Four sorted runs of `N / 4` keys below 100k, payloads their positions.
fn compaction_input() -> Vec<Record> {
    let mut input = Vec::with_capacity(N);
    for r in 0..4u64 {
        let mut run: Vec<u64> = Workload::UniformRandom
            .generate(N / 4, 0xC0DEC + r)
            .iter()
            .map(|rec| rec.key % 100_000)
            .collect();
        run.sort_unstable();
        input.extend(run.into_iter().map(|k| Record::new(k, 0)));
    }
    for (i, rec) in input.iter_mut().enumerate() {
        rec.payload = i as u64;
    }
    input
}

/// Median wall time in seconds of `reps` calls of `f`.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[reps / 2]
}

fn main() {
    let scale = Scale::from_env();
    // Default next to README.md (cargo runs benches from the package dir).
    let default_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json");
    let json_path = json_path_from_args(std::env::args().skip(1), default_json);
    let reps = scale.pick(5, 31, 101);

    let spec = SortSpec::builder(Algorithm::Mergesort, 1024, 32, 8)
        .k(4)
        .build()
        .expect("valid spec");
    let input = compaction_input();
    let request = JobRequest::inline(spec.clone(), input.clone());
    let outcome: SortOutcome = run(&spec, &input).expect("sort");
    let mut sink = MemCheckpointer::default();
    let staged = run_staged(&spec, &input, &mut sink).expect("staged sort");

    let request_text = request.to_json();
    let outcome_text = outcome.to_json(true);
    assert_eq!(JobRequest::from_json(&request_text).as_ref(), Ok(&request));
    assert_eq!(
        SortOutcome::from_json(&outcome_text)
            .expect("decode")
            .output,
        outcome.output
    );

    let mut report = BenchReport::new("wire-codec", scale.name());
    let none = EmStats::default();
    for (id, stats, secs) in [
        (
            "codec-request-encode",
            none,
            median_secs(reps, || request.to_json()),
        ),
        (
            "codec-request-decode",
            none,
            median_secs(reps, || JobRequest::from_json(&request_text)),
        ),
        (
            "codec-outcome-encode",
            outcome.stats,
            median_secs(reps, || outcome.to_json(true)),
        ),
        (
            "codec-outcome-decode",
            outcome.stats,
            median_secs(reps, || SortOutcome::from_json(&outcome_text)),
        ),
        (
            "codec-manifest-render",
            staged.stats,
            median_secs(reps, || {
                sink.manifests
                    .iter()
                    .map(|m| m.to_json().len())
                    .sum::<usize>()
            }),
        ),
    ] {
        report.push_with_stats(format!("{id}-16k"), N as u64, secs, stats);
    }
    report.write_to(&json_path).expect("write bench json");
    println!("wrote bench report to {}", json_path.display());
    for e in report.entries() {
        println!(
            "{:<28} {:>6} recs in {:>8.3} ms  ->  {:>12.0} recs/sec",
            e.id,
            e.records,
            e.seconds * 1e3,
            e.records_per_sec
        );
    }
}
