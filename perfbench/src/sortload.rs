//! The `sort-bulk` and `sort-inline` workloads: two closed-loop HTTP
//! clients against `asym_serve::serve`, one fresh service root per pass.

use crate::trace::{Span, Tracer};
use crate::wire::{read_wal, roundtrip, Wal};
use asym_core::sort::{Algorithm, SortOutcome, SortSpec};
use asym_model::json::{self, Json};
use asym_model::workload::Workload;
use asym_model::Record;
use asym_serve::{JobRequest, ServiceConfig, SortService};
use em_sim::Backend;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The geometry every sort job uses: M = 1024, B = 32, ω = 8.
pub const M: usize = 1024;
pub const B: usize = 32;
pub const OMEGA: u64 = 8;

/// Client threads (the machine this was tuned on has two cores).
const CLIENTS: usize = 2;

/// How a client waits for its job: `GET /jobs/<id>/wait` with this query.
/// `sort-bulk` long-polls in 10 ms slices so one client's wait never holds
/// the single accept thread for a whole 200k-record sort; `sort-inline`
/// waits with the server's default timeout, as `asym-kv`'s client does.
pub const BULK_WAIT: &str = "?timeout_ms=10";
pub const DEFAULT_WAIT: &str = "";

/// One job of a pass, plus what its output must be (inline jobs only).
pub struct Job {
    pub request: JobRequest,
    pub expected: Option<Vec<Record>>,
}

/// `sort-bulk`: 10 generator jobs of 200k uniform records, every registry
/// sorter on both backends.
pub fn bulk_jobs(seed: u64) -> Vec<Job> {
    let sorters = [
        (Algorithm::Mergesort, 1, 1),
        (Algorithm::Mergesort, 4, 1),
        (Algorithm::Samplesort, 1, 1),
        (Algorithm::Heapsort, 1, 1),
        (Algorithm::ParSamplesort, 1, 2),
    ];
    let mut jobs = Vec::new();
    for backend in [Backend::Mem, Backend::File] {
        for (algorithm, k, lanes) in sorters {
            let i = jobs.len() as u64;
            let spec = SortSpec::builder(algorithm, M, B, OMEGA)
                .k(k)
                .lanes(lanes)
                .backend(backend)
                .seed(mix(seed, 100 + i))
                .build()
                .expect("valid bulk spec");
            jobs.push(Job {
                request: JobRequest {
                    spec,
                    workload: Workload::UniformRandom,
                    records: 200_000,
                    data_seed: mix(seed, i),
                    input: None,
                    include_output: false,
                    deadline_ms: None,
                    checkpoint: false,
                },
                expected: None,
            });
        }
    }
    jobs
}

/// `sort-inline`: 16 compaction-shaped jobs of 16k records (four sorted
/// runs of 4096 records over a 100k-key space, payloads unique sequence
/// numbers), mergesort k = 4 on `mem`, every fourth job checkpointed.
/// Returns the jobs and the time spent generating their inputs.
pub fn inline_jobs(seed: u64) -> (Vec<Job>, Duration) {
    let spec = SortSpec::builder(Algorithm::Mergesort, M, B, OMEGA)
        .k(4)
        .build()
        .expect("valid inline spec");
    let mut jobs = Vec::new();
    let mut gen = Duration::ZERO;
    for j in 0..16u64 {
        let t = Instant::now();
        let mut input = Vec::with_capacity(16_384);
        for r in 0..4u64 {
            let mut run: Vec<u64> = Workload::UniformRandom
                .generate(4096, mix(seed, j * 4 + r))
                .iter()
                .map(|rec| rec.key % 100_000)
                .collect();
            run.sort_unstable();
            input.extend(run.into_iter().map(|k| Record::new(k, 0)));
        }
        for (i, rec) in input.iter_mut().enumerate() {
            rec.payload = j * 16_384 + i as u64;
        }
        gen += t.elapsed();
        let mut expected = input.clone();
        expected.sort_unstable();
        jobs.push(Job {
            request: JobRequest::inline(spec.clone(), input).checkpointed(j % 4 == 3),
            expected: Some(expected),
        });
    }
    (jobs, gen)
}

/// One served job as the client saw it.
pub struct Done {
    pub job: usize,
    pub latency: Duration,
    pub outcome: SortOutcome,
}

/// One pass: a fresh service root served over HTTP, every job run once by
/// the closed-loop clients, then shut down and metered.
pub struct Pass {
    pub active: Duration,
    pub done: Vec<Done>,
    pub errors: Vec<String>,
    pub wire_bytes: u64,
    pub wal: Wal,
    pub spans: Vec<Span>,
}

/// Start a service on a fresh `root` behind an HTTP front door.
pub fn boot(root: &Path) -> asym_serve::ServerHandle {
    let service =
        SortService::start(ServiceConfig::new(CLIENTS, 1 << 30, root)).expect("start sort service");
    asym_serve::serve(service, "127.0.0.1:0").expect("bind front door")
}

pub fn run_pass(jobs: &[Job], wait: &str, root: &Path, tracing: bool, epoch: Instant) -> Pass {
    let mut server = boot(root);
    let rounds = Barrier::new(CLIENTS);
    let t = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let rounds = &rounds;
                let addr = server.addr();
                s.spawn(move || client(jobs, wait, c, rounds, addr, Tracer::new(tracing, c, epoch)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let active = t.elapsed();
    server.shutdown();

    let mut pass = Pass {
        active,
        done: Vec::new(),
        errors: Vec::new(),
        wire_bytes: 0,
        wal: Wal::default(),
        spans: Vec::new(),
    };
    for (done, errors, bytes, tracer) in per_client {
        pass.done.extend(done);
        pass.errors.extend(errors);
        pass.wire_bytes += bytes;
        crate::trace::append(&mut pass.spans, tracer.into_spans());
    }
    pass.done.sort_by_key(|d| d.job);
    match read_wal(root, tracing) {
        Ok(wal) => pass.wal = wal,
        Err(e) => pass.errors.push(e),
    }
    let _ = std::fs::remove_dir_all(root);
    pass
}

type ClientOut = (Vec<Done>, Vec<String>, u64, Tracer);

/// Client `c` runs jobs `c`, `c + CLIENTS`, ... in rounds: every client
/// submits one job, waits for it, and meets the others at the barrier, so
/// the same jobs always share the service and a pass's work is the same
/// from run to run.
fn client(
    jobs: &[Job],
    wait: &str,
    c: usize,
    rounds: &Barrier,
    addr: SocketAddr,
    mut tr: Tracer,
) -> ClientOut {
    let mut done = Vec::new();
    let mut errors = Vec::new();
    let mut bytes = 0u64;
    for round in (0..jobs.len()).step_by(CLIENTS) {
        rounds.wait();
        let i = round + c;
        let Some(job) = jobs.get(i) else { continue };
        let t = Instant::now();
        let root = tr.open("client", "job");
        let result = submit_and_wait(&job.request, wait, addr, &mut tr, &mut bytes);
        tr.close(root);
        let latency = t.elapsed();
        match result.and_then(|outcome| check(job, outcome)) {
            Ok(outcome) => done.push(Done {
                job: i,
                latency,
                outcome,
            }),
            Err(e) => errors.push(format!("job {i}: {e}")),
        }
    }
    (done, errors, bytes, tr)
}

/// Encode, `POST /jobs`, long-poll `GET /jobs/<id>/wait`, decode.
fn submit_and_wait(
    request: &JobRequest,
    wait: &str,
    addr: SocketAddr,
    tr: &mut Tracer,
    bytes: &mut u64,
) -> Result<SortOutcome, String> {
    let span = tr.open("codec", "codec.request_encode");
    let body = request.to_json();
    tr.close(span);

    let span = tr.open("http", "http.submit");
    let reply = roundtrip(addr, "POST", "/jobs", &body);
    tr.close(span);
    let reply = reply?;
    *bytes += reply.wire_bytes as u64;
    if reply.code != 202 {
        return Err(format!("submit: HTTP {} {}", reply.code, reply.body));
    }
    let id = Json::parse(&reply.body)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_u64))
        .ok_or("202 without a job id")?;

    let reply = loop {
        let span = tr.open("http", "http.wait");
        let reply = roundtrip(addr, "GET", &format!("/jobs/{id}/wait{wait}"), "");
        tr.close(span);
        let reply = reply?;
        *bytes += reply.wire_bytes as u64;
        if reply.code != 408 {
            break reply;
        }
    };
    if reply.code != 200 {
        return Err(format!("wait: HTTP {} {}", reply.code, reply.body));
    }

    let span = tr.open("codec", "codec.outcome_decode");
    let outcome = decode_status(&reply.body);
    tr.close(span);
    outcome
}

/// A terminal status body to its decoded outcome.
fn decode_status(body: &str) -> Result<SortOutcome, String> {
    let v = Json::parse(body).map_err(|e| format!("status: {e}"))?;
    let obj = v.as_obj().ok_or("status is not an object")?;
    match json::get_str(obj, "state").as_deref() {
        Some("completed") => {}
        other => return Err(format!("job ended {other:?}: {body}")),
    }
    let telemetry = json::find(obj, "outcome").ok_or("completed without outcome")?;
    SortOutcome::from_json(&telemetry.render()).map_err(|e| format!("outcome: {e}"))
}

/// Inline jobs must return exactly their input, sorted. The checked
/// output is dropped: only the stats are kept past this point.
fn check(job: &Job, mut outcome: SortOutcome) -> Result<SortOutcome, String> {
    match &job.expected {
        Some(expected) if outcome.output != *expected => {
            Err("output is not the sorted permutation of the input".into())
        }
        _ => {
            outcome.output = Vec::new();
            Ok(outcome)
        }
    }
}

/// The input a job sorts: inline records or the named generator's output.
pub fn materialize(request: &JobRequest) -> Vec<Record> {
    match &request.input {
        Some(records) => records.clone(),
        None => request
            .workload
            .generate(request.records, request.data_seed),
    }
}

/// SplitMix64 of `seed` and a stream index: independent per-job seeds.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
