//! Sort-as-a-service: a multi-tenant session against the job server.
//!
//! ```text
//! cargo run --release --example sort_service
//! ```
//!
//! Starts an HTTP sort server on loopback, plays a small multi-tenant
//! session against it — mixed algorithms, a rejection, a file-backed job —
//! and prints the admission ledger. The point of the demo is the
//! admission-control claim: every decision is made *before* the sort runs,
//! from `SortSpec::predict()` alone, and the predicted peak memory is a
//! hard bound, so "admitted" means "cannot thrash".

use asym_core::sort::{Algorithm, SortSpec};
use asym_model::workload::Workload;
use asym_serve::{serve, JobRequest, JobState, Refusal, ServiceConfig, SortService, SubmitError};
use em_sim::Backend;

fn main() {
    let root = std::env::temp_dir().join(format!("asym-sort-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // A budget that fits a few serial jobs, or the 4-lane parallel job
    // alone — small enough that this session sees a real rejection.
    let standard = SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
        .k(2)
        .build()
        .unwrap();
    let budget = 8 * 1024;
    let service =
        SortService::start(ServiceConfig::new(4, budget, root.clone())).expect("start service");
    let server = serve(service, "127.0.0.1:0").expect("bind");
    println!(
        "sort service on http://{} (budget {budget} B)\n",
        server.addr()
    );

    // Tenants with different shapes: the three serial sorts, the parallel
    // sample sort, and a file-backed job that gets its own directory.
    let tenants: Vec<(&str, JobRequest)> = vec![
        (
            "mergesort/uniform",
            JobRequest {
                spec: standard.clone(),
                workload: Workload::UniformRandom,
                records: 50_000,
                data_seed: 1,
                input: None,
                include_output: false,
                deadline_ms: None,
                checkpoint: false,
            },
        ),
        (
            "samplesort/zipf",
            JobRequest {
                spec: SortSpec::builder(Algorithm::Samplesort, 64, 8, 16)
                    .k(2)
                    .build()
                    .unwrap(),
                workload: Workload::Zipf,
                records: 50_000,
                data_seed: 2,
                input: None,
                include_output: false,
                deadline_ms: None,
                checkpoint: false,
            },
        ),
        (
            "par-samplesort/4-lanes",
            JobRequest {
                spec: SortSpec::builder(Algorithm::ParSamplesort, 64, 8, 16)
                    .lanes(4)
                    .build()
                    .unwrap(),
                workload: Workload::NearlySorted,
                records: 50_000,
                data_seed: 3,
                input: None,
                include_output: false,
                deadline_ms: None,
                checkpoint: false,
            },
        ),
        (
            "heapsort/file-backed",
            JobRequest {
                spec: SortSpec::builder(Algorithm::Heapsort, 64, 8, 16)
                    .backend(Backend::File)
                    .build()
                    .unwrap(),
                workload: Workload::FewDistinct,
                records: 20_000,
                data_seed: 4,
                input: None,
                include_output: false,
                deadline_ms: None,
                checkpoint: false,
            },
        ),
    ];

    println!("{:<28}{:>16}{:>12}", "tenant", "predicted B", "decision");
    let mut admitted = Vec::new();
    let mut deferred = Vec::new();
    for (name, job) in tenants {
        let predicted = job.predict().peak_bytes();
        match server.service().submit(job.clone()) {
            Ok(id) => {
                println!("{name:<28}{predicted:>16}{:>12}", format!("job {id}"));
                admitted.push((name, id));
            }
            Err(SubmitError::Rejected(Refusal::Budget { available, .. })) => {
                println!(
                    "{name:<28}{predicted:>16}{:>12}  (only {available} B free — deferred)",
                    "REJECTED"
                );
                deferred.push((name, job));
            }
            Err(e) => println!("{name:<28}{predicted:>16}{e:>12}"),
        }
    }

    // The first wave finishing releases its predicted bytes; the deferred
    // tenants fit now. (A real client would retry on 429 with backoff.)
    for (_, id) in &admitted {
        server.service().wait(*id);
    }
    if !deferred.is_empty() {
        println!("\nfirst wave done — retrying deferred tenants:");
        for (name, job) in deferred {
            match server.service().submit(job) {
                Ok(id) => {
                    println!("  {name}: admitted as job {id}");
                    admitted.push((name, id));
                }
                Err(e) => println!("  {name}: still refused ({e})"),
            }
        }
    }

    println!();
    for (name, id) in admitted {
        let status = server.service().wait(id).expect("known job");
        match status.state {
            JobState::Completed => {
                // Telemetry is the wire-format SortOutcome; show headline numbers.
                let t = status.telemetry.expect("telemetry");
                let v = asym_model::json::Json::parse(&t).expect("parses");
                println!(
                    "job {id} ({name}): {} reads, {} writes, io cost {}",
                    v.get("reads").and_then(|x| x.as_u64()).unwrap_or(0),
                    v.get("writes").and_then(|x| x.as_u64()).unwrap_or(0),
                    v.get("io_cost").and_then(|x| x.as_u64()).unwrap_or(0),
                );
            }
            _ => println!("job {id} ({name}): {:?}", status.error),
        }
    }

    let stats = server.service().stats();
    println!(
        "\nsession: {} submitted, {} rejected, {} completed; peak in-flight {} / {} B",
        stats.submitted,
        stats.rejected,
        stats.completed,
        stats.peak_in_flight_bytes,
        stats.budget_bytes,
    );
    println!("audit log at {}", root.join("audit.jsonl").display());
}
