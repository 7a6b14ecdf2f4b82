//! The HTTP front door over real loopback sockets: submit, poll, reject,
//! introspect, shut down — all through `asym_serve::client`, so the test
//! exercises actual bytes on the wire, not internal calls.

use asym_core::sort::SortOutcome;
use asym_model::json::Json;
use asym_serve::client::{self, read_response, roundtrip};
use asym_serve::{serve, JobRequest, JobState, JobStatus, ServiceConfig, SortService, SubmitError};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;

fn fresh_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asym-serve-http-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SMALL_JOB: &str = r#"{
    "spec": {"algorithm": "aem-samplesort", "m": 64, "b": 8, "omega": 16, "k": 2},
    "workload": "zipf", "records": 3000, "data_seed": 11, "include_output": false }"#;

fn job(text: &str) -> JobRequest {
    JobRequest::from_json(text).expect("valid job")
}

#[test]
fn full_session_over_loopback() {
    let root = fresh_root("session");
    let service = SortService::start(ServiceConfig::new(2, 1 << 20, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let (code, body) = roundtrip(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(code, 200, "{body}");

    // Accepted submission: 202 with an id.
    let id = client::submit(addr, &job(SMALL_JOB)).expect("submit");

    // Poll until done; telemetry must be decodable outcome JSON.
    let outcome = loop {
        let (code, body) = roundtrip(addr, "GET", &format!("/jobs/{id}"), "").expect("status");
        assert_eq!(code, 200, "{body}");
        let status = JobStatus::from_json(&body).expect("status decodes");
        match status.state {
            JobState::Completed => {
                let telemetry = status.telemetry.as_deref().expect("telemetry present");
                break SortOutcome::from_json(telemetry).expect("telemetry decodes");
            }
            JobState::Failed => panic!("job failed: {body}"),
            _ => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    };
    assert!(outcome.output.is_empty(), "lean telemetry");
    assert!(outcome.stats.block_reads > 0);

    // Over-budget submission: typed 429 with both sides of the comparison.
    let monster = SMALL_JOB.replace("\"m\": 64", "\"m\": 1000000");
    let (code, body) = roundtrip(addr, "POST", "/jobs", &monster).expect("submit");
    assert_eq!(code, 429, "{body}");
    assert!(
        matches!(
            SubmitError::from_json(&body),
            Ok(SubmitError::Rejected { predicted, .. }) if predicted > 1 << 20
        ),
        "{body}"
    );

    // Malformed and invalid payloads: 400 with structured errors.
    let (code, body) = roundtrip(addr, "POST", "/jobs", "{ nope").expect("submit");
    assert_eq!(code, 400, "{body}");
    assert_eq!(
        Json::parse(&body)
            .expect("parses")
            .get("error")
            .and_then(Json::as_str),
        Some("malformed")
    );
    let invalid = SMALL_JOB.replace("\"b\": 8", "\"b\": 1000");
    let (code, body) = roundtrip(addr, "POST", "/jobs", &invalid).expect("submit");
    assert_eq!(code, 400, "{body}");
    let v = Json::parse(&body).expect("parses");
    assert_eq!(v.get("error").and_then(Json::as_str), Some("spec"));
    assert_eq!(
        v.get("kind").and_then(Json::as_str),
        Some("block_exceeds_memory")
    );

    let (code, _) = roundtrip(addr, "GET", "/jobs/4096", "").expect("status");
    assert_eq!(code, 404);

    let (code, body) = roundtrip(addr, "GET", "/stats", "").expect("stats");
    assert_eq!(code, 200);
    let v = Json::parse(&body).expect("parses");
    assert_eq!(v.get("submitted").and_then(Json::as_u64), Some(1));
    assert_eq!(v.get("rejected").and_then(Json::as_u64), Some(1));

    // Graceful shutdown over the wire: drained stats in the response.
    let (code, body) = roundtrip(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(code, 200, "{body}");
    let v = Json::parse(&body).expect("parses");
    assert_eq!(v.get("drained").and_then(Json::as_bool), Some(true));

    server.shutdown();
    let audit = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    assert!(
        audit.lines().count() >= 4,
        "accepted+completed+rejected+drained"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A mergesort big enough to hold the single worker for a while, so jobs
/// queued behind it observably wait.
const BUSY_JOB: &str = r#"{
    "spec": {"algorithm": "aem-mergesort", "m": 64, "b": 8, "omega": 16, "k": 2},
    "workload": "uniform", "records": 150000, "data_seed": 3, "include_output": false }"#;

#[test]
fn wait_long_polls_with_a_bounded_server_side_timeout() {
    let root = fresh_root("wait");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Unknown jobs are 404 on the wait route too.
    let (code, _) = roundtrip(addr, "GET", "/jobs/4096/wait", "").expect("wait");
    assert_eq!(code, 404);

    // An admin hold keeps the job queued however fast the worker is, so a
    // short wait must come back 408 carrying the *current* snapshot.
    server.service().hold();
    let queued = client::submit(addr, &job(SMALL_JOB)).expect("submit");
    let path = format!("/jobs/{queued}/wait?timeout_ms=50");
    let (code, body) = roundtrip(addr, "GET", &path, "").expect("wait");
    assert_eq!(code, 408, "{body}");
    let status = JobStatus::from_json(&body).expect("status decodes");
    assert_eq!(status.state, JobState::Queued, "{body}");

    // Once released, a long enough wait rides the long-poll to 200
    // completed (`client::wait` checks each code against the state it
    // carries).
    server.service().release();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let status = client::wait(addr, queued).expect("wait");
        if status.state.is_terminal() {
            assert_eq!(status.state, JobState::Completed, "{status:?}");
            break;
        }
        assert!(std::time::Instant::now() < deadline);
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn queued_jobs_past_their_deadline_expire_into_504() {
    let root = fresh_root("expire");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    client::submit(addr, &job(BUSY_JOB)).expect("submit");
    // One millisecond of deadline against a worker held busy for much
    // longer: the job must expire in the queue, never having run.
    let mut dated = job(SMALL_JOB);
    dated.deadline_ms = Some(1);
    let id = client::submit(addr, &dated).expect("submit");

    std::thread::sleep(std::time::Duration::from_millis(20));
    let (code, body) = roundtrip(addr, "GET", &format!("/jobs/{id}"), "").expect("status");
    assert_eq!(code, 504, "{body}");
    let status = JobStatus::from_json(&body).expect("status decodes");
    assert_eq!(status.state, JobState::Expired);
    assert_eq!(status.attempts, 0, "never ran");
    // The wait route agrees: expiry is terminal, reported as 504.
    let (code, _) = roundtrip(addr, "GET", &format!("/jobs/{id}/wait"), "").expect("wait");
    assert_eq!(code, 504);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unmeetable_deadlines_are_refused_up_front_with_422() {
    let root = fresh_root("eta");
    // 1 modeled I/O unit per millisecond: every real sort's ETA dwarfs a
    // 1 ms deadline, so admission refuses before anything is queued.
    let mut cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    cfg.io_per_ms = 1;
    let service = SortService::start(cfg).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let mut dated = job(SMALL_JOB);
    dated.deadline_ms = Some(1);
    let (code, body) = roundtrip(addr, "POST", "/jobs", &dated.to_json()).expect("submit");
    assert_eq!(code, 422, "{body}");
    assert!(
        matches!(
            SubmitError::from_json(&body),
            Ok(SubmitError::DeadlineUnmeetable { eta_ms, deadline_ms: 1 }) if eta_ms > 1
        ),
        "{body}"
    );

    // The same job without a deadline sails through.
    client::submit(addr, &job(SMALL_JOB)).expect("submit");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_request_bodies_get_a_typed_413_without_allocation() {
    let root = fresh_root("toolarge");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Declare a body far over the cap but never send it: the server must
    // answer from the headers alone instead of trying to read (or
    // allocate) two gigabytes.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: 2147483647\r\nConnection: close\r\n\r\n"
    )
    .expect("send headers");
    let (code, body) = read_response(stream).expect("receive");
    assert_eq!(code, 413, "{body}");
    let v = Json::parse(&body).expect("parses");
    assert_eq!(v.get("error").and_then(Json::as_str), Some("too_large"));
    assert_eq!(v.get("length").and_then(Json::as_u64), Some(2147483647));
    assert!(v.get("max").and_then(Json::as_u64).unwrap() >= 1 << 20);

    // The connection above did not wedge the server.
    let (code, _) = roundtrip(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(code, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
