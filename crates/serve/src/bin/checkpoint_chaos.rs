//! CI smoke for the checkpoint/resume subsystem — `bench_check` style,
//! panics (non-zero exit) on any violation.
//!
//! Two waves, both on pinned seeds so a red run reproduces exactly:
//!
//! 1. **Kill/recover mid-phase.** Three checkpointed jobs on one worker;
//!    the process is killed as soon as the WAL shows a job mid-flight
//!    (some phase done, more to go), then recovered. Every job must land
//!    `completed` with modeled stats bit-identical to a fault-free staged
//!    run, the per-job phase stream across the whole log must be exactly
//!    `1..total` with no duplicates (a completed phase is never re-run;
//!    the last phase saves no manifest), its delta manifests must carry
//!    exactly `n·rounds` records (each record written once per level but
//!    the last), and the resumed job's total
//!    paid writes — fault-free total plus the one interrupted phase it can
//!    have re-started — must stay strictly under 2× the fault-free run.
//!
//! 2. **Fault storm.** Checkpointed jobs under seeded retryable I/O
//!    faults (reads and writes, torn and clean, no panics). Retries keep
//!    whatever phases checkpointed — the phase stream stays
//!    duplicate-free even across `started` attempt boundaries, so the
//!    manifest volume is exactly `n·rounds` here too — and the
//!    final telemetry is still bit-identical to the fault-free reference.
//!
//! 3. **Inline WAL volume.** Compaction-shaped inline jobs that ask for
//!    their output, one staged and one not. Each serves exactly its
//!    sorted input, and its WAL bytes are at most its `accepted` line plus
//!    its manifests plus 1 KB: the output is logged as a digest, not a
//!    second copy. The staged job's manifests carry exactly `n·rounds`
//!    records: no manifest copies the output either. A recovery rebuilds
//!    the outputs into the telemetry the live service served.
//!
//! In every wave, every `completed` line carries zero records.
//!
//! Artifacts (audit logs + every job's folded last manifest) land in
//! `CHECKPOINT_CHAOS_DIR` when set, a temp dir otherwise.

use asym_core::sort::{
    self, Algorithm, CheckpointManifest, MemCheckpointer, SortOutcome, SortSpec, StagePlan,
};
use asym_model::json::Json;
use asym_model::workload::Workload;
use asym_model::Record;
use asym_serve::{replay, AuditEvent, JobRequest, JobState, ServiceConfig, SortService};
use em_sim::FaultSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn out_dir() -> PathBuf {
    std::env::var_os("CHECKPOINT_CHAOS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("asym-checkpoint-chaos-{}", std::process::id()))
        })
}

fn spec(fault: Option<FaultSpec>) -> SortSpec {
    SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
        .k(2)
        .fault(fault)
        .build()
        .expect("valid spec")
}

fn job(records: usize, data_seed: u64, fault: Option<FaultSpec>) -> JobRequest {
    JobRequest {
        spec: spec(fault),
        workload: Workload::Zipf,
        records,
        data_seed,
        input: None,
        include_output: false,
        deadline_ms: None,
        checkpoint: true,
    }
}

/// Fault-free staged reference for a request: final outcome plus the
/// manifest at every phase but the last (faults are stripped — modeled
/// costs are fault-invariant, so this is exactly what a surviving job must
/// report).
fn reference(request: &JobRequest) -> (SortOutcome, Vec<CheckpointManifest>) {
    let clean = JobRequest {
        spec: spec(None),
        ..request.clone()
    };
    let input = clean.workload.generate(clean.records, clean.data_seed);
    let mut sink = MemCheckpointer::default();
    let outcome = sort::run_staged(&clean.spec, &input, &mut sink).expect("reference run");
    (outcome, sink.manifests)
}

/// One job's `checkpointed` lines.
#[derive(Default)]
struct Stream {
    /// Each line's phase, in log order.
    phases: Vec<u64>,
    /// Records carried by the lines' runs, all lines together.
    records: u64,
    /// The fold of the lines' delta manifests.
    folded: Option<CheckpointManifest>,
}

/// Every checkpointed job's [`Stream`], by id.
fn phase_streams(log: &str) -> BTreeMap<u64, Stream> {
    let mut streams: BTreeMap<u64, Stream> = BTreeMap::new();
    for line in log.lines().filter(|l| !l.trim().is_empty()) {
        if let Ok(AuditEvent::Checkpointed { id, manifest }) = AuditEvent::from_json(line) {
            let s = streams.entry(id).or_default();
            s.phases.push(manifest.phases_done);
            s.records += manifest.runs.iter().map(|r| r.len() as u64).sum::<u64>();
            CheckpointManifest::fold(&mut s.folded, manifest);
        }
    }
    streams
}

/// Assert `stream` logged every phase of `request`'s plan but the last
/// exactly once, and that its deltas wrote each record once per level but
/// the last: `n·rounds`.
fn assert_stream(stream: &Stream, request: &JobRequest, id: u64, label: &str) {
    let plan = StagePlan::new(&request.spec, request.records);
    let mut sorted = stream.phases.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (1..plan.total_phases() as u64).collect::<Vec<_>>(),
        "{label}: job {id}: phase stream has duplicates or holes: {:?}",
        stream.phases
    );
    let want = (request.records * plan.rounds()) as u64;
    assert_eq!(
        stream.records, want,
        "{label}: job {id}: manifests carried {} records, want n·rounds = {want}",
        stream.records
    );
}

/// The per-phase *write* deltas of a reference run: its manifests give
/// every phase's but the last, and the outcome's total gives the last.
fn write_deltas(outcome: &SortOutcome, manifests: &[CheckpointManifest]) -> Vec<u64> {
    let mut deltas = Vec::with_capacity(manifests.len() + 1);
    let mut prev = 0u64;
    for writes in manifests
        .iter()
        .map(|m| m.stats.block_writes)
        .chain([outcome.stats.block_writes])
    {
        deltas.push(writes - prev);
        prev = writes;
    }
    deltas
}

/// Assert `got` telemetry decodes to stats bit-identical to `want`.
fn assert_stats(service: &SortService, id: u64, want: &SortOutcome, label: &str) {
    let status = service.wait(id).expect("known job");
    assert_eq!(
        status.state,
        JobState::Completed,
        "{label}: job {id} not completed: {:?}",
        status.error
    );
    let got =
        SortOutcome::from_json(status.telemetry.as_ref().expect("telemetry")).expect("decodes");
    assert_eq!(
        got.stats, want.stats,
        "{label}: job {id} modeled stats diverged from the fault-free reference"
    );
}

/// Assert no `completed` line of `log` carries a record: the output of a
/// job that asked for it is logged as a digest.
fn assert_lean_completions(log: &str, label: &str) {
    let mut completions = 0;
    for line in log.lines().filter(|l| !l.trim().is_empty()) {
        if let Ok(AuditEvent::Completed { id, telemetry, .. }) = AuditEvent::from_json(line) {
            completions += 1;
            let outcome = SortOutcome::from_json(&telemetry).expect("logged telemetry decodes");
            assert!(
                outcome.output.is_empty() && !telemetry.contains("\"output\""),
                "{label}: job {id}: a completed line carries {} records",
                outcome.output.len()
            );
        }
    }
    assert!(completions > 0, "{label}: no completed lines");
}

/// Dump every job's folded last manifest (decoded, folded and
/// re-rendered, proving it parses) next to the audit log, as CI evidence.
fn dump_manifests(root: &Path, log: &str) {
    let dir = root.join("manifests");
    std::fs::create_dir_all(&dir).expect("manifest dir");
    for (id, stream) in phase_streams(log) {
        let m = stream
            .folded
            .expect("a job with a checkpointed line has a fold");
        std::fs::write(dir.join(format!("job-{id}.json")), m.to_json()).expect("write manifest");
    }
}

fn kill_recover_wave(root: &Path) {
    println!("checkpoint_chaos: wave 1 — kill/recover mid-phase");
    let _ = std::fs::remove_dir_all(root);
    let mut cfg = ServiceConfig::new(1, u64::MAX, root.to_path_buf());
    cfg.backoff_base_ms = 1;
    cfg.backoff_cap_ms = 10;

    let requests = [
        job(400_000, 101, None),
        job(200_000, 102, None),
        job(100_000, 103, None),
    ];
    let refs: Vec<(SortOutcome, Vec<CheckpointManifest>)> =
        requests.iter().map(reference).collect();
    assert!(
        requests
            .iter()
            .all(|r| StagePlan::new(&r.spec, r.records).total_phases() >= 3),
        "jobs must be multi-phase"
    );

    let service = SortService::start(cfg.clone()).expect("start");
    let ids: Vec<u64> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("admitted"))
        .collect();

    // Kill as soon as any job is visibly mid-flight in the WAL.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let log = std::fs::read_to_string(root.join("audit.jsonl")).unwrap_or_default();
        let streams = phase_streams(&log);
        // The last phase logs no manifest: a job with a logged phase that
        // is not terminal has more to go.
        let mid_flight = ids.iter().any(|id| {
            streams.contains_key(id) && !service.status(*id).expect("known").state.is_terminal()
        });
        if mid_flight {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no job was ever observably mid-phase; grow the jobs"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    service.kill();
    drop(service);

    let log = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let pre = replay(&log).expect("replays");
    let killed: Vec<u64> = ids
        .iter()
        .copied()
        .filter(|id| {
            let j = &pre.jobs[id];
            !j.outcome.is_terminal() && j.checkpoint_phase() >= 1
        })
        .collect();
    assert!(
        !killed.is_empty(),
        "the kill must have caught at least one job mid-phase"
    );
    println!(
        "checkpoint_chaos: killed with job(s) {killed:?} mid-phase (phases {:?})",
        killed
            .iter()
            .map(|id| pre.jobs[id].checkpoint_phase())
            .collect::<Vec<_>>()
    );

    let (service, report) = SortService::recover(cfg).expect("recover");
    assert!(report.requeued >= 1, "unfinished jobs must be re-queued");
    for (i, id) in ids.iter().enumerate() {
        assert_stats(&service, *id, &refs[i].0, "wave 1");
    }
    service.drain();
    drop(service);

    // Whole-log phase accounting: exactly 1..total per job, no phase
    // ever re-run — the WAL-visible form of "resume starts at k+1" — and
    // each record written once per level but the last.
    let log = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let streams = phase_streams(&log);
    for (i, id) in ids.iter().enumerate() {
        assert_stream(&streams[id], &requests[i], *id, "wave 1");
    }

    // The 2× gate: a resumed job paid, at most, the fault-free total plus
    // the one phase the kill interrupted (whose completed phases were
    // restored from the manifest, not re-run). Strictly under 2×.
    for id in &killed {
        let i = ids.iter().position(|x| x == id).expect("known id");
        let fault_free = refs[i].0.stats.block_writes;
        let deltas = write_deltas(&refs[i].0, &refs[i].1);
        let interrupted = pre.jobs[id].checkpoint_phase() as usize; // died in phase k+1
        let paid_bound = fault_free + deltas[interrupted];
        assert!(
            paid_bound < 2 * fault_free,
            "job {id}: paid-writes bound {paid_bound} not under 2x fault-free {fault_free}"
        );
        println!(
            "checkpoint_chaos: job {id} resumed from phase {} — paid ≤ {paid_bound} writes \
             vs {fault_free} fault-free ({:.2}x)",
            interrupted,
            paid_bound as f64 / fault_free as f64
        );
    }
    assert_lean_completions(&log, "wave 1");
    dump_manifests(root, &log);
}

fn fault_storm_wave(root: &Path) {
    println!("checkpoint_chaos: wave 2 — seeded retryable-fault storm");
    let _ = std::fs::remove_dir_all(root);
    let mut cfg = ServiceConfig::new(2, u64::MAX, root.to_path_buf());
    cfg.max_attempts = 8; // rates decay to zero well inside this
    cfg.backoff_base_ms = 1;
    cfg.backoff_cap_ms = 10;

    // Retryable flavors only (reads, writes, half of them torn) — the
    // storm exercises resume-under-retry, not catch_unwind.
    let storm = |seed: u64| {
        let mut f = FaultSpec::new(seed);
        f.read_permille = 1;
        f.write_permille = 1;
        f.short_permille = 500;
        f
    };
    let requests = [
        job(60_000, 201, Some(storm(0xC0AC))),
        job(40_000, 202, Some(storm(0x5EED))),
        job(30_000, 203, Some(storm(0xFA11))),
    ];
    let refs: Vec<(SortOutcome, Vec<CheckpointManifest>)> =
        requests.iter().map(reference).collect();

    let service = SortService::start(cfg).expect("start");
    let ids: Vec<u64> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("admitted"))
        .collect();
    for (i, id) in ids.iter().enumerate() {
        assert_stats(&service, *id, &refs[i].0, "wave 2");
    }
    service.drain();
    drop(service);

    let log = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let rep = replay(&log).expect("replays");
    assert!(
        rep.pending().next().is_none(),
        "every job terminal after the storm"
    );
    let retried: Vec<u64> = ids
        .iter()
        .copied()
        .filter(|id| rep.jobs[id].attempts > 1)
        .collect();
    println!(
        "checkpoint_chaos: storm settled — {} retries across jobs {retried:?}",
        rep.retries
    );

    // Even across retry boundaries no phase is ever paid twice: the
    // stream per job is duplicate-free, and whatever prefix an attempt
    // checkpointed survives into the next attempt.
    let streams = phase_streams(&log);
    for (i, id) in ids.iter().enumerate() {
        assert_stream(&streams[id], &requests[i], *id, "wave 2");
    }
    assert_lean_completions(&log, "wave 2");
    dump_manifests(root, &log);
}

/// A compaction-shaped input: four sorted runs of 4096 keys over a
/// 100k-key space, payloads unique sequence numbers.
fn compaction_input(seed: u64) -> Vec<Record> {
    let mut input = Vec::with_capacity(16_384);
    for run in 0..4 {
        let mut keys: Vec<u64> = Workload::UniformRandom
            .generate(4096, seed * 4 + run)
            .iter()
            .map(|r| r.key % 100_000)
            .collect();
        keys.sort_unstable();
        input.extend(keys.into_iter().map(|k| Record::new(k, 0)));
    }
    for (i, r) in input.iter_mut().enumerate() {
        r.payload = i as u64;
    }
    input
}

/// One job's WAL bytes (lines with their newlines), by event name.
fn job_wal_bytes(log: &str, id: u64) -> BTreeMap<String, usize> {
    let mut bytes = BTreeMap::new();
    for line in log.lines().filter(|l| !l.trim().is_empty()) {
        let v = Json::parse(line).expect("audit line parses");
        if v.get("id").and_then(Json::as_u64) == Some(id) {
            let event = v.get("event").and_then(Json::as_str).expect("event name");
            *bytes.entry(event.to_owned()).or_default() += line.len() + 1;
        }
    }
    bytes
}

fn inline_wave(root: &Path) {
    println!("checkpoint_chaos: wave 3 — inline WAL volume");
    let _ = std::fs::remove_dir_all(root);
    let cfg = ServiceConfig::new(1, u64::MAX, root.to_path_buf());
    let spec = SortSpec::builder(Algorithm::Mergesort, 1024, 32, 8)
        .k(4)
        .build()
        .expect("valid inline spec");
    let inputs = [compaction_input(301), compaction_input(302)];
    let requests: Vec<JobRequest> = inputs
        .iter()
        .zip([true, false])
        .map(|(input, staged)| JobRequest::inline(spec.clone(), input.clone()).checkpointed(staged))
        .collect();
    let service = SortService::start(cfg.clone()).expect("start");
    let ids: Vec<u64> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("admitted"))
        .collect();
    let mut live = Vec::new();
    for (input, id) in inputs.iter().zip(&ids) {
        let status = service.wait(*id).expect("known job");
        assert_eq!(status.state, JobState::Completed, "wave 3: job {id}");
        let telemetry = status.telemetry.expect("telemetry");
        let mut want = input.clone();
        want.sort_unstable();
        let served = SortOutcome::from_json(&telemetry).expect("decodes");
        assert!(served.output == want, "wave 3: job {id} output is wrong");
        live.push(telemetry);
    }
    service.drain();
    drop(service);

    let log = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    assert_lean_completions(&log, "wave 3");
    let streams = phase_streams(&log);
    assert_stream(&streams[&ids[0]], &requests[0], ids[0], "wave 3");
    assert!(
        !streams.contains_key(&ids[1]),
        "wave 3: the unstaged job logged a manifest"
    );
    for id in &ids {
        let bytes = job_wal_bytes(&log, *id);
        let total: usize = bytes.values().sum();
        let accepted = bytes["accepted"];
        let manifests = bytes.get("checkpointed").copied().unwrap_or(0);
        assert!(
            total <= accepted + manifests + 1024,
            "wave 3: job {id} logged {total} B, over accepted {accepted} B + manifests \
             {manifests} B + 1 KB: {bytes:?}"
        );
        println!(
            "checkpoint_chaos: inline job {id} logged {total} B: accepted {accepted} B, \
             manifests {manifests} B, the rest {} B",
            total - accepted - manifests
        );
    }

    let (service, report) = SortService::recover(cfg).expect("recover");
    assert_eq!((report.restored, report.requeued), (2, 0));
    for (id, telemetry) in ids.iter().zip(&live) {
        let status = service.status(*id).expect("known job");
        assert!(
            status.telemetry.as_ref() == Some(telemetry),
            "wave 3: job {id}: recovered telemetry differs from the live one"
        );
    }
    service.kill();
}

fn main() {
    // Injected write faults surface as `StoreIoPanic` inside the workers'
    // catch_unwind; silence the hook for worker threads only so the storm
    // doesn't spray backtraces (main-thread panics stay visible — they
    // are the failures this binary exists to report).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("sort-worker"));
        if !worker {
            default_hook(info);
        }
    }));
    let out = out_dir();
    std::fs::create_dir_all(&out).expect("output dir");
    kill_recover_wave(&out.join("kill-recover"));
    fault_storm_wave(&out.join("fault-storm"));
    inline_wave(&out.join("inline"));
    println!("checkpoint_chaos: ok (artifacts in {})", out.display());
}
