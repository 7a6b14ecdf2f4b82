//! CI smoke check for the sort service: start a real server on loopback,
//! submit one acceptable and one over-budget job over actual HTTP, verify
//! the telemetry parses and the count gates hold, then drain. Exits
//! non-zero (panics) on any violation — `bench_check` style.

use asym_core::sort::SortOutcome;
use asym_model::json::Json;
use asym_serve::client::{self, roundtrip, ClientError};
use asym_serve::{serve, JobRequest, JobState, ServiceConfig, SortService, SubmitError};

const ACCEPTED_JOB: &str = r#"{
    "spec": {"algorithm": "par-aem-samplesort", "m": 64, "b": 8, "omega": 16, "k": 2, "lanes": 4},
    "workload": "uniform", "records": 20000, "data_seed": 7, "include_output": false }"#;

const OVERSIZED_JOB: &str = r#"{
    "spec": {"algorithm": "aem-mergesort", "m": 16777216, "b": 8, "omega": 16},
    "workload": "uniform", "records": 1000, "data_seed": 7, "include_output": false }"#;

fn main() {
    let root = std::env::temp_dir().join(format!("asym-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let service =
        SortService::start(ServiceConfig::new(2, 64 << 20, root.clone())).expect("start service");
    let server = serve(service, "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    println!("serve_smoke: listening on {addr}");

    let (code, body) = roundtrip(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(code, 200, "healthz: {body}");

    // One job the budget admits...
    let job = |text| JobRequest::from_json(text).expect("valid job");
    let id = client::submit(addr, &job(ACCEPTED_JOB)).expect("submit");
    println!("serve_smoke: job {id} accepted");

    // ...and one whose predicted peak no budget this size can hold.
    let (predicted, available) = match client::submit(addr, &job(OVERSIZED_JOB)) {
        Err(ClientError::Refused(SubmitError::Rejected {
            predicted,
            available,
        })) => (predicted, available),
        other => panic!("oversized submit must be a memory rejection: {other:?}"),
    };
    assert!(predicted > available, "rejection must be a real shortfall");
    println!(
        "serve_smoke: oversized job rejected ({predicted} B predicted, {available} B available)"
    );

    // Long-poll the accepted job to completion; its telemetry must decode.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let outcome = loop {
        let status = client::wait(addr, id).expect("wait");
        match status.state {
            JobState::Completed => {
                let telemetry = status.telemetry.expect("outcome present");
                break SortOutcome::from_json(&telemetry).expect("telemetry decodes");
            }
            state if state.is_terminal() => panic!("job ended {}: {status:?}", state.name()),
            _ => assert!(std::time::Instant::now() < deadline, "job did not finish"),
        }
    };
    // Count gates: a real 20k-record parallel sort moved real blocks.
    assert!(outcome.stats.block_reads > 0, "no reads counted");
    assert!(outcome.stats.block_writes > 0, "no writes counted");
    assert!(outcome.report.total() >= outcome.stats.block_reads);
    println!(
        "serve_smoke: job {id} completed ({} reads, {} writes, io cost {})",
        outcome.stats.block_reads,
        outcome.stats.block_writes,
        outcome.report.total(),
    );

    let (code, body) = roundtrip(addr, "GET", "/stats", "").expect("stats");
    assert_eq!(code, 200, "stats: {body}");
    let v = Json::parse(&body).expect("stats parse");
    assert_eq!(v.get("submitted").and_then(Json::as_u64), Some(1), "{body}");
    assert_eq!(v.get("rejected").and_then(Json::as_u64), Some(1), "{body}");
    assert_eq!(v.get("completed").and_then(Json::as_u64), Some(1), "{body}");

    let (code, body) = roundtrip(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(code, 200, "shutdown: {body}");
    assert_eq!(
        Json::parse(&body)
            .expect("parses")
            .get("drained")
            .and_then(Json::as_bool),
        Some(true)
    );
    drop(server);

    let audit = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit log");
    for line in audit.lines() {
        asym_serve::AuditEvent::from_json(line).expect("audit line decodes");
    }
    assert!(
        audit.lines().count() >= 4,
        "audit must hold the whole session"
    );
    let replayed = asym_serve::replay(&audit).expect("audit replays");
    assert!(!replayed.torn_tail, "clean shutdown leaves no torn tail");
    assert_eq!(replayed.jobs.len(), 1, "one accepted job in the log");
    assert_eq!(replayed.rejected, 1, "one rejection in the log");
    assert!(
        replayed.pending().next().is_none(),
        "nothing left pending after a drain"
    );
    let _ = std::fs::remove_dir_all(&root);
    println!("serve_smoke: ok");
}
