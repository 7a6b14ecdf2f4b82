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
//! * `codec-status-decode` — a completed job's wait reply, read through
//!   `asym_serve::client::wait`: `JobStatus::from_json` (which parses the
//!   body and renders the outcome back to text), then
//!   `SortOutcome::from_json` on that text;
//! * `codec-manifest-render` — every delta checkpoint manifest of the
//!   staged run (the `checkpointed` WAL lines), rendered once each;
//! * `codec-compaction-local-1350` — the result path of one in-process
//!   compaction of kv-mixed's mean size (1,350 records in the same four-run
//!   shape): `CompactionService::Local` from submit to the typed outcome,
//!   the `accepted` and `completed` WAL lines included;
//! * `serve-recover-16x16k` — one boot of a used service root:
//!   `SortService::recover` (and the clean shutdown after it) on a root
//!   whose log holds 16 completed 16k-record inline jobs that asked for
//!   their output. The root is built once, untimed. Each boot replays the
//!   log, sorts every job's logged input again and checks it against the
//!   logged digest.
//!
//! ```text
//! cargo bench -p asym-bench --bench wire_codec              # + BENCH_codec.json
//! cargo bench -p asym-bench --bench wire_codec -- --json out.json
//! ```
//!
//! Each row's time is the median over repetitions (`asym_bench::time_row`).
//! The outcome and manifest rows carry the modeled stats of the sort that
//! produced them, so `bench_check` pins those counts exactly; the request
//! rows carry none.

use asym_bench::json::{json_path_from_args, BenchReport};
use asym_bench::Scale;
use asym_core::sort::{run, run_staged, Algorithm, MemCheckpointer, SortOutcome, SortSpec};
use asym_kv::CompactionService;
use asym_model::workload::Workload;
use asym_model::Record;
use asym_serve::{JobRequest, JobState, JobStatus, ServiceConfig, SortService};
use em_sim::EmStats;
use std::hint::black_box;

/// Records per job: the inline compaction size the service is tuned for.
const N: usize = 16_384;

/// Records in the in-process compaction row: kv-mixed's mean compaction.
const LOCAL: usize = 1_350;

/// Completed jobs in the log of the boot row's root.
const BOOT_JOBS: usize = 16;

/// Four sorted runs of about `n / 4` keys below 100k, payloads their
/// positions.
fn compaction_input(n: usize) -> Vec<Record> {
    let mut input = Vec::with_capacity(n);
    for r in 0..4 {
        let len = n * (r + 1) / 4 - n * r / 4;
        let mut run: Vec<u64> = Workload::UniformRandom
            .generate(len, 0xC0DEC + r as u64)
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
    let input = compaction_input(N);
    let request = JobRequest::inline(spec.clone(), input.clone());
    let outcome: SortOutcome = run(&spec, &input).expect("sort");
    let mut sink = MemCheckpointer::default();
    let staged = run_staged(&spec, &input, &mut sink).expect("staged sort");

    let request_text = request.to_json();
    let outcome_text = outcome.to_json(true);
    let status_text = JobStatus {
        id: 0,
        state: JobState::Completed,
        predicted: request.predict(),
        attempts: 1,
        telemetry: Some(outcome_text.clone()),
        error: None,
        failure: None,
    }
    .to_json();
    assert_eq!(JobRequest::from_json(&request_text).as_ref(), Ok(&request));
    assert_eq!(
        SortOutcome::from_json(&outcome_text)
            .expect("decode")
            .output,
        outcome.output
    );

    let mut report = BenchReport::new("wire-codec", scale.name());
    let none = EmStats::default();
    // `black_box` keeps each call's work alive. The codec models no
    // transfers, so a row carries the stats of the sort behind its document.
    let rows: [(&str, EmStats, &dyn Fn()); 6] = [
        ("codec-request-encode", none, &|| {
            black_box(request.to_json());
        }),
        ("codec-request-decode", none, &|| {
            let _ = black_box(JobRequest::from_json(&request_text));
        }),
        ("codec-outcome-encode", outcome.stats, &|| {
            black_box(outcome.to_json(true));
        }),
        ("codec-outcome-decode", outcome.stats, &|| {
            let _ = black_box(SortOutcome::from_json(&outcome_text));
        }),
        ("codec-status-decode", outcome.stats, &|| {
            let status = JobStatus::from_json(&status_text).expect("status");
            let telemetry = status.telemetry.as_deref().expect("completed");
            let _ = black_box(SortOutcome::from_json(telemetry));
        }),
        ("codec-manifest-render", staged.stats, &|| {
            black_box(
                sink.manifests
                    .iter()
                    .map(|m| m.to_json().len())
                    .sum::<usize>(),
            );
        }),
    ];
    for (id, stats, run) in rows {
        let id = format!("{id}-16k");
        let (secs, _) = asym_bench::time_row(&id, reps, || {
            run();
            none
        });
        report.push_with_stats(id, N as u64, secs, stats);
    }

    // The embedded service `asym-kv` compacts through, on a private root.
    let small = compaction_input(LOCAL);
    let root = std::env::temp_dir().join(format!("asym-wire-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, &root)).expect("start");
    let local = CompactionService::Local(service);
    let compact = || {
        let job = JobRequest::inline(spec.clone(), small.clone());
        local.submit_and_wait(job).expect("compaction").outcome
    };
    let mut sorted = small.clone();
    sorted.sort_unstable();
    assert_eq!(compact().output, sorted);
    let id = format!("codec-compaction-local-{LOCAL}");
    let (secs, stats) = asym_bench::time_row(&id, reps, || compact().stats);
    report.push_with_stats(id, LOCAL as u64, secs, stats);
    drop(local);
    std::fs::remove_dir_all(&root).expect("remove the service root");

    // A used root, built once: every job asked for its output, so each
    // boot rebuilds all of them.
    let root = std::env::temp_dir().join(format!("asym-wire-codec-boot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = ServiceConfig::new(1, u64::MAX, &root);
    let service = SortService::start(cfg.clone()).expect("start");
    let ids: Vec<_> = (0..BOOT_JOBS)
        .map(|_| service.submit(request.clone()).expect("admitted"))
        .collect();
    for id in ids {
        assert_eq!(
            service.wait(id).expect("known job").state,
            JobState::Completed
        );
    }
    drop(service);
    let id = format!("serve-recover-{BOOT_JOBS}x16k");
    let (secs, _) = asym_bench::time_row(&id, reps, || {
        let (service, booted) = SortService::recover(cfg.clone()).expect("recover");
        assert_eq!(booted.restored, BOOT_JOBS as u64);
        drop(service);
        none
    });
    report.push_with_stats(id, (BOOT_JOBS * N) as u64, secs, none);
    std::fs::remove_dir_all(&root).expect("remove the service root");

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
