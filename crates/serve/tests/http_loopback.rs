//! The HTTP front door over real loopback sockets: submit, poll, reject,
//! introspect, shut down, and serve clients side by side (an idle peer, a
//! long-poll, the connection cap) — all through real sockets, so the test
//! exercises actual bytes on the wire, not internal calls.

use asym_core::sort::SortOutcome;
use asym_model::json::Json;
use asym_serve::client::{self, read_response, roundtrip, ClientError};
use asym_serve::http::MAX_CONNECTIONS;
use asym_serve::{
    serve, JobRequest, JobState, JobStatus, Refusal, ServiceConfig, SortService, SubmitError,
};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

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
            Ok(SubmitError::Rejected(Refusal::Budget { predicted, .. })) if predicted > 1 << 20
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

    let busy = client::submit(addr, &job(BUSY_JOB)).expect("submit");
    // The worker must hold the busy job before the dated one arrives: with
    // both queued, the ETA-priority pick would run the smaller dated job
    // first.
    let state = |id: u64| {
        let (_, body) = roundtrip(addr, "GET", &format!("/jobs/{id}"), "").expect("status");
        JobStatus::from_json(&body).expect("status decodes").state
    };
    while state(busy) == JobState::Queued {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
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
            Ok(SubmitError::Rejected(Refusal::Deadline { eta_ms, deadline_ms: 1 })) if eta_ms > 1
        ),
        "{body}"
    );

    // The same job without a deadline sails through.
    client::submit(addr, &job(SMALL_JOB)).expect("submit");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A job the audit log refuses is not admitted: the front door answers
/// 503 with the typed refusal, and the client decodes it.
#[cfg(target_os = "linux")]
#[test]
fn a_submission_the_log_refuses_is_a_typed_503() {
    let root = fresh_root("wal-full");
    std::fs::create_dir_all(&root).expect("mkdir");
    std::os::unix::fs::symlink("/dev/full", root.join("audit.jsonl")).expect("symlink");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let (code, body) = roundtrip(addr, "POST", "/jobs", SMALL_JOB).expect("submit");
    assert_eq!(code, 503, "{body}");
    assert!(
        matches!(
            client::submit(addr, &job(SMALL_JOB)),
            Err(ClientError::Refused(SubmitError::Unlogged { .. }))
        ),
        "{body}"
    );
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

#[test]
fn an_endless_request_line_gets_a_400_and_the_server_keeps_serving() {
    let root = fresh_root("long-head");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // A 1 MiB request line: the server stops reading at its head cap,
    // answers, and reads out the rest so the answer is not reset away.
    let path = format!("/{}", "a".repeat(1 << 20));
    let (code, body) =
        roundtrip_within(addr, "GET", &path, "", Duration::from_secs(5)).expect("answered");
    assert_eq!(code, 400, "{body}");
    assert_eq!(
        Json::parse(&body)
            .expect("parses")
            .get("error")
            .and_then(Json::as_str),
        Some("malformed")
    );

    let (code, _) = roundtrip(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(code, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_wait_route_without_an_id_is_a_404_and_the_server_keeps_serving() {
    let root = fresh_root("wait-no-id");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    for path in ["/jobs/wait", "/jobs//wait", "/jobs/"] {
        let (code, body) = roundtrip(addr, "GET", path, "").expect(path);
        assert_eq!(code, 404, "{path}: {body}");
    }
    let (code, _) = roundtrip(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(code, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Connect and send one request, leaving its answer on the returned stream.
fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    Ok(stream)
}

/// One request whose answer must arrive within `limit`: the socket's read
/// timeout turns a stalled server into an error instead of a hung test.
fn roundtrip_within(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    limit: Duration,
) -> std::io::Result<(u16, String)> {
    let stream = send(addr, method, path, body)?;
    stream.set_read_timeout(Some(limit))?;
    read_response(stream)
}

/// `GET /healthz` must answer 200 in well under a second.
fn assert_healthz_is_prompt(addr: SocketAddr) {
    let started = Instant::now();
    let (code, body) =
        roundtrip_within(addr, "GET", "/healthz", "", Duration::from_secs(2)).expect("healthz");
    assert_eq!(code, 200, "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "{:?}",
        started.elapsed()
    );
}

/// Send `GET /jobs/<id>/wait` at the 10 s cap and read its answer on a
/// thread of its own. The request is on the wire when this returns, and the
/// listener accepts connections in arrival order, so the long-poll is ahead
/// of every request made after it.
fn long_poll(addr: SocketAddr, id: u64) -> std::thread::JoinHandle<(u16, String)> {
    let path = format!("/jobs/{id}/wait?timeout_ms=10000");
    let stream = send(addr, "GET", &path, "").expect("send");
    std::thread::spawn(move || read_response(stream).expect("wait"))
}

#[test]
fn an_idle_peer_does_not_delay_healthz() {
    let root = fresh_root("idle-peer");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Connected, and silent: its handler waits on a read.
    let idle = TcpStream::connect(addr).expect("connect");
    assert_healthz_is_prompt(addr);
    drop(idle);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_long_poll_does_not_delay_other_clients() {
    let root = fresh_root("long-poll");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // A held job keeps its waiter parked for the whole 10 s cap.
    server.service().hold();
    let held = client::submit(addr, &job(SMALL_JOB)).expect("submit");
    let poller = long_poll(addr, held);

    assert_healthz_is_prompt(addr);
    let (code, body) =
        roundtrip_within(addr, "POST", "/jobs", SMALL_JOB, Duration::from_secs(2)).expect("submit");
    assert_eq!(code, 202, "{body}");

    server.service().release();
    let (code, body) = poller.join().expect("poller");
    assert_eq!(code, 200, "{body}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn connections_over_the_cap_get_503_busy_until_they_close() {
    let root = fresh_root("busy");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Every handler slot held by a silent peer, accepted in connect order
    // ahead of the requests below.
    let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let (code, body) =
        roundtrip_within(addr, "GET", "/healthz", "", Duration::from_secs(2)).expect("healthz");
    assert_eq!(code, 503, "{body}");
    assert_eq!(
        Json::parse(&body)
            .expect("parses")
            .get("error")
            .and_then(Json::as_str),
        Some("busy")
    );
    // The client reports it as a status, not as a garbled refusal.
    assert!(
        matches!(
            client::submit(addr, &job(SMALL_JOB)),
            Err(ClientError::Status { code: 503, .. })
        ),
        "busy submit"
    );

    // Closed peers give their slots back.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (code, body) =
            roundtrip_within(addr, "GET", "/healthz", "", Duration::from_secs(2)).expect("healthz");
        if code == 200 {
            break;
        }
        assert_eq!(code, 503, "{body}");
        assert!(Instant::now() < deadline, "slots never came back");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_with_a_long_poll_in_flight_answers_the_poller() {
    let root = fresh_root("shutdown-poll");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    server.service().hold();
    let held = client::submit(addr, &job(SMALL_JOB)).expect("submit");
    let poller = long_poll(addr, held);
    // Answered only once the long-poll's connection has been accepted.
    let (code, _) = roundtrip(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(code, 200);

    // The drain lifts the hold, so the job runs and the poller's answer is
    // its terminal status, long before the 10 s wait would lapse.
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "{:?}",
        started.elapsed()
    );
    let (code, body) = poller.join().expect("poller");
    assert_eq!(code, 200, "{body}");
    let status = JobStatus::from_json(&body).expect("status decodes");
    assert_eq!(status.state, JobState::Completed, "{body}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_body_shorter_than_its_content_length_is_a_400() {
    let root = fresh_root("short-body");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // Ten bytes of a declared hundred, then end of stream.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: 100\r\nConnection: close\r\n\r\n{{\"spec\": "
    )
    .expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let (code, body) = read_response(stream).expect("receive");
    assert_eq!(code, 400, "{body}");
    assert_eq!(
        Json::parse(&body)
            .expect("parses")
            .get("error")
            .and_then(Json::as_str),
        Some("malformed")
    );

    assert_healthz_is_prompt(addr);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_head_cut_off_before_its_blank_line_is_a_400_not_a_request() {
    let root = fresh_root("short-head");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // The request line of a shutdown, then end of stream: no headers, no
    // blank line. Running it would drain the server.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "POST /shutdown HTTP/1.1\r\n").expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let (code, body) = read_response(stream).expect("receive");
    assert_eq!(code, 400, "{body}");
    assert_eq!(
        Json::parse(&body)
            .expect("parses")
            .get("error")
            .and_then(Json::as_str),
        Some("malformed")
    );

    let (code, _) = roundtrip(addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(code, 200);
    client::submit(addr, &job(SMALL_JOB)).expect("still admitting");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
