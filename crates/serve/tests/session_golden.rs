//! The service session golden: one scripted single-worker session, pinned
//! byte for byte. Each step folds the audit-log bytes it appended and every
//! response it was served (status code and body) into one 64-bit FNV-1a
//! digest, as `tests/trace_golden.rs` does for block transfers, so a
//! refactor of the service proves it leaves both the WAL and the wire
//! unchanged.
//!
//! The session runs one worker under an admin `hold`: every job is queued
//! while held and released alone, and aging is off, so the order of every
//! event is fixed. It logs every event kind (accepted; rejected by memory
//! budget, I/O budget and deadline; started; checkpointed; retried under a
//! seeded fault storm; completed lean, full and parallel; failed by a
//! panic; expired; drained; recovered after a kill) and serves every
//! status the front door has: 200, 202, 400, 404, 408, 413, 422, 429, 503
//! and 504.
//!
//! A mismatch names each moved step and prints every fresh row, ready to
//! commit. A change meant to move the WAL or a served body re-freezes the
//! rows it moves, with its reason in CHANGES.md.

use asym_core::sort::{Algorithm, SortSpec};
use asym_model::workload::Workload;
use asym_serve::client::{read_response, roundtrip};
use asym_serve::{serve, JobRequest, ServerHandle, ServiceConfig, SortService};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// `(step, WAL lines appended, responses served, digest)`.
type Row = (&'static str, usize, usize, u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut digest: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    digest
}

/// The script's driver: the service root, the server of the current boot,
/// and the step being folded.
struct Session {
    root: PathBuf,
    server: Option<ServerHandle>,
    /// Audit-log bytes already folded into an earlier step.
    wal_seen: usize,
    responses: usize,
    digest: u64,
    rows: Vec<Row>,
}

impl Session {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("a server is up").addr()
    }

    fn service(&self) -> &SortService {
        self.server.as_ref().expect("a server is up").service()
    }

    /// Fold one served answer, or any other text the step observed.
    fn fold(&mut self, code: u16, body: &str) {
        self.responses += 1;
        self.digest = fnv(self.digest, &code.to_le_bytes());
        self.digest = fnv(self.digest, &(body.len() as u64).to_le_bytes());
        self.digest = fnv(self.digest, body.as_bytes());
    }

    /// One request over loopback, folded; returns the code and body.
    fn call(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let (code, text) = roundtrip(self.addr(), method, path, body).expect(path);
        self.fold(code, &text);
        (code, text)
    }

    /// `call`, asserting the code.
    fn expect(&mut self, code: u16, method: &str, path: &str, body: &str) -> String {
        let (got, text) = self.call(method, path, body);
        assert_eq!(got, code, "{method} {path}: {text}");
        text
    }

    /// Submit `request` while the worker is held, so the `202` body shows
    /// the job queued; returns its id.
    fn submit(&mut self, request: &JobRequest) -> u64 {
        self.service().hold();
        let body = self.expect(202, "POST", "/jobs", &request.to_json());
        body.split_once("\"id\": ")
            .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|id| id.parse().ok())
            .expect("a 202 names the job")
    }

    /// Release the worker and long-poll job `id` to its terminal answer.
    fn settle(&mut self, id: u64, code: u16) -> String {
        self.service().release();
        self.expect(
            code,
            "GET",
            &format!("/jobs/{id}/wait?timeout_ms=10000"),
            "",
        )
    }

    /// Submit one job, run it alone, and return its terminal body.
    fn run(&mut self, request: &JobRequest, code: u16) -> String {
        let id = self.submit(request);
        self.settle(id, code)
    }

    /// Close the step: fold the audit bytes it appended and push its row.
    fn step(&mut self, name: &'static str) {
        let wal = std::fs::read(self.root.join("audit.jsonl")).unwrap_or_default();
        let fresh = &wal[self.wal_seen.min(wal.len())..];
        let lines = fresh.iter().filter(|&&b| b == b'\n').count();
        let digest = fnv(self.digest, fresh);
        self.rows.push((name, lines, self.responses, digest));
        self.wal_seen = wal.len();
        self.responses = 0;
        self.digest = FNV_OFFSET;
    }
}

fn config(root: &Path) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(1, 1 << 22, root);
    cfg.max_attempts = 12;
    cfg.backoff_base_ms = 1;
    cfg.backoff_cap_ms = 4;
    // An ETA of one millisecond per million modeled I/Os: the small jobs
    // meet a 5 ms deadline, a huge one misses a 1 ms deadline.
    cfg.io_per_ms = 1_000_000;
    cfg.io_budget = 1 << 40;
    cfg.aging_io_per_ms = 0;
    cfg
}

fn spec(algorithm: Algorithm) -> SortSpec {
    SortSpec::builder(algorithm, 64, 8, 16)
        .k(2)
        .build()
        .expect("valid spec")
}

fn job(spec: SortSpec, records: usize, data_seed: u64) -> JobRequest {
    JobRequest {
        spec,
        workload: Workload::Zipf,
        records,
        data_seed,
        input: None,
        include_output: false,
        deadline_ms: None,
        checkpoint: false,
    }
}

/// A mergesort on a seeded faulty store: each read and write of its first
/// attempt fails with `io_permille`/1000 odds and each operation crashes
/// with `panic_permille`/1000 odds, the odds halving on every retry.
fn stormy(seed: u64, io_permille: u16, panic_permille: u16) -> JobRequest {
    let fault = em_sim::FaultSpec {
        seed,
        read_permille: io_permille,
        write_permille: io_permille,
        short_permille: 300,
        panic_permille,
    };
    let spec = SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
        .k(2)
        .fault(Some(fault))
        .build()
        .expect("valid spec");
    job(spec, 1_500, 21)
}

/// Send a request head that declares a body far over the cap, and read the
/// answer the server gives from the head alone.
fn oversized(addr: SocketAddr) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: golden\r\nContent-Length: 2147483647\r\nConnection: close\r\n\r\n"
    )
    .expect("send the head");
    read_response(stream).expect("an answer")
}

fn session() -> Vec<Row> {
    let root = std::env::temp_dir().join(format!("asym-session-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let service = SortService::start(config(&root)).expect("start");
    let mut s = Session {
        server: Some(serve(service, "127.0.0.1:0").expect("bind")),
        root,
        wal_seen: 0,
        responses: 0,
        digest: FNV_OFFSET,
        rows: Vec::new(),
    };

    s.expect(200, "GET", "/healthz", "");
    s.expect(200, "GET", "/stats", "");
    s.step("boot");

    s.expect(400, "POST", "/jobs", "{ nope");
    let wide = job(spec(Algorithm::Samplesort), 100, 1)
        .to_json()
        .replace("\"b\": 8", "\"b\": 1000");
    s.expect(400, "POST", "/jobs", &wide);
    s.expect(404, "GET", "/jobs/4096", "");
    s.expect(404, "GET", "/jobs/4096/wait?timeout_ms=1", "");
    s.expect(404, "GET", "/no-such-route", "");
    let (code, body) = oversized(s.addr());
    assert_eq!(code, 413, "{body}");
    s.fold(code, &body);
    s.step("bad requests");

    let mut huge = job(spec(Algorithm::Mergesort), 100, 1);
    huge.spec = SortSpec::builder(Algorithm::Mergesort, 1 << 22, 8, 16)
        .k(2)
        .build()
        .expect("valid spec");
    s.expect(429, "POST", "/jobs", &huge.to_json());
    s.step("rejected by the memory budget");

    let endless = job(spec(Algorithm::Mergesort), 1 << 40, 1);
    s.expect(429, "POST", "/jobs", &endless.to_json());
    s.step("rejected by the I/O budget");

    let mut late = job(spec(Algorithm::Mergesort), 20_000_000, 1);
    late.deadline_ms = Some(1);
    s.expect(422, "POST", "/jobs", &late.to_json());
    s.step("rejected by the deadline");

    s.run(&job(spec(Algorithm::Mergesort), 2_000, 3), 200);
    s.step("completed lean");

    let input = Workload::DuplicateHeavy.generate(300, 4);
    let full = s.submit(&JobRequest::inline(spec(Algorithm::Samplesort), input));
    s.settle(full, 200);
    s.step("completed full");

    let parallel = SortSpec::builder(Algorithm::ParSamplesort, 64, 8, 16)
        .k(2)
        .lanes(4)
        .build()
        .expect("valid spec");
    s.run(&job(parallel, 4_000, 5), 200);
    s.step("completed parallel");

    s.run(
        &job(spec(Algorithm::Mergesort), 2_000, 6).checkpointed(true),
        200,
    );
    s.step("checkpointed");

    s.run(&stormy(0x5E55_1011, 150, 0), 200);
    s.step("retried under a fault storm");

    s.run(&stormy(0xC8A5, 0, 1_000), 200);
    s.step("failed by a panic");

    let waiting = s.submit(&job(spec(Algorithm::Heapsort), 1_000, 7));
    s.expect(
        408,
        "GET",
        &format!("/jobs/{waiting}/wait?timeout_ms=20"),
        "",
    );
    s.step("wait timed out");

    let mut dated = job(spec(Algorithm::Mergesort), 1_000, 8);
    dated.deadline_ms = Some(5);
    let expired = s.submit(&dated);
    std::thread::sleep(Duration::from_millis(30));
    s.expect(504, "GET", &format!("/jobs/{expired}"), "");
    s.expect(504, "GET", &format!("/jobs/{expired}/wait"), "");
    s.step("expired");

    s.settle(waiting, 200);
    s.expect(200, "GET", "/stats", "");
    s.step("released");

    let requeued = s.submit(&job(spec(Algorithm::Samplesort), 1_500, 9));
    s.service().kill();
    s.expect(
        503,
        "POST",
        "/jobs",
        &job(spec(Algorithm::Mergesort), 10, 1).to_json(),
    );
    s.expect(200, "GET", "/stats", "");
    s.server.take().expect("the first boot").shutdown();
    s.step("killed");

    let (service, report) = SortService::recover(config(&s.root)).expect("recover");
    s.fold(0, &format!("{report:?}"));
    // The worker starts with the service, so the requeued job runs at
    // once: this step closes only after it has settled.
    s.server = Some(serve(service, "127.0.0.1:0").expect("bind"));
    s.expect(
        200,
        "GET",
        &format!("/jobs/{requeued}/wait?timeout_ms=10000"),
        "",
    );
    for id in 0..expired {
        s.expect(200, "GET", &format!("/jobs/{id}"), "");
    }
    s.expect(504, "GET", &format!("/jobs/{expired}"), "");
    s.expect(200, "GET", "/stats", "");
    s.step("recovered");

    s.expect(200, "POST", "/shutdown", "");
    s.server.take().expect("the second boot").shutdown();
    s.step("drained");

    let _ = std::fs::remove_dir_all(&s.root);
    s.rows
}

#[test]
fn a_scripted_session_logs_and_serves_the_golden_bytes() {
    // The panicking job dies inside a worker's catch_unwind; keep its
    // message off the test output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("sort-worker"));
        if !worker {
            default_hook(info);
        }
    }));
    let fresh = session();
    // Rows print as the table below is written: the digest in hex.
    let render = |(step, lines, responses, digest): &Row| {
        format!("({step:?}, {lines}, {responses}, {digest:#018x})")
    };
    let mut moved = String::new();
    for row in &fresh {
        match GOLDEN.iter().find(|g| g.0 == row.0) {
            Some(g) if g == row => {}
            Some(g) => moved += &format!("    step {:?} moved from {}\n", row.0, render(g)),
            None => moved += &format!("    step {:?} has no golden row\n", row.0),
        }
    }
    if fresh.len() != GOLDEN.len() {
        moved += &format!(
            "    {} steps ran, {} are golden\n",
            fresh.len(),
            GOLDEN.len()
        );
    }
    let rows: String = fresh
        .iter()
        .map(|row| format!("    {},\n", render(row)))
        .collect();
    assert!(
        moved.is_empty(),
        "the session moved:\n{moved}fresh rows:\n{rows}"
    );
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("boot", 0, 2, 0xab0e5d90b684177d),
    ("bad requests", 0, 6, 0xb44979f6b9361c74),
    ("rejected by the memory budget", 1, 1, 0xdd8fb80201fc9e78),
    ("rejected by the I/O budget", 1, 1, 0xfa67920313871aad),
    ("rejected by the deadline", 1, 1, 0x851d9fe903092f14),
    ("completed lean", 3, 2, 0xd9fbea634e86e9d2),
    ("completed full", 3, 2, 0x30f114a1a17dde73),
    ("completed parallel", 3, 2, 0x3b8d238c06ee2b56),
    ("checkpointed", 11, 2, 0xb032c1b0bfc35bf3),
    ("retried under a fault storm", 15, 2, 0xb88a9998b3109682),
    ("failed by a panic", 3, 2, 0x035a6fe597de035e),
    ("wait timed out", 1, 2, 0x66c269eab9bfba46),
    ("expired", 2, 3, 0x3936922c09c3d762),
    ("released", 2, 2, 0x6e61af68330c25df),
    ("killed", 1, 3, 0x4b91791ec06de36e),
    ("recovered", 3, 11, 0x14c6c3b94310d080),
    ("drained", 1, 1, 0xb02b68088ae7827f),
];
