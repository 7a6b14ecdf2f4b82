//! Checkpointed jobs through the whole service lifecycle: jobs killed
//! after phase k resume from phase k+1 (never re-running a paid phase,
//! paying strictly under 2× the fault-free writes), with output
//! byte-identical and modeled stats bit-identical to an uninterrupted
//! staged run; retries under a seeded fault storm resume the same way; a
//! job killed after its last checkpoint but before `completed` redoes only
//! the final phase; a log that ends in a complete final-phase manifest (as
//! older builds wrote) recovers without running a phase; a torn
//! `checkpointed` line is tolerated and truncated; a stale manifest after
//! the terminal outcome is ignored; recovery is idempotent; a manifest the
//! WAL refuses fails its attempt; and an inline job's WAL holds its input
//! once, its output only as a digest.
//!
//! Every job's deltas log phases `1..total` once each and carry exactly
//! `n·rounds` records: each record is written once per level but the last.
//! Set `CHECKPOINT_CHAOS_DIR` to keep the kill, storm and inline tests'
//! audit logs and each job's folded manifest as CI artifacts.

use asym_core::sort::{
    self, Algorithm, CheckpointManifest, MemCheckpointer, SortOutcome, SortSpec, StagePlan,
    MANIFEST_VERSION,
};
use asym_model::json::Json;
use asym_model::workload::Workload;
use asym_model::Record;
use asym_serve::{
    replay, AuditEvent, FailureKind, JobRequest, JobState, ReplayOutcome, ServiceConfig,
    SortService,
};
use em_sim::FaultSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fresh_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asym-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn staged_job(records: usize) -> JobRequest {
    JobRequest {
        spec: SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
            .k(2)
            .build()
            .expect("valid spec"),
        workload: Workload::Zipf,
        records,
        data_seed: 31,
        input: None,
        include_output: true,
        deadline_ms: None,
        checkpoint: true,
    }
}

/// Every event of the WAL at `root` that decodes, in log order: a line
/// still being written does not.
fn wal(root: &Path) -> Vec<AuditEvent> {
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    text.lines()
        .filter_map(|l| AuditEvent::from_json(l).ok())
        .collect()
}

/// The manifests `events` recorded for `id`, in log order.
fn manifests_of(events: &[AuditEvent], id: u64) -> Vec<&CheckpointManifest> {
    events
        .iter()
        .filter_map(|ev| match ev {
            AuditEvent::Checkpointed { id: jid, manifest } if *jid == id => Some(manifest),
            _ => None,
        })
        .collect()
}

/// The phases recorded in the WAL for `id`, in log order.
fn checkpointed_phases(root: &Path, id: u64) -> Vec<u64> {
    manifests_of(&wal(root), id)
        .iter()
        .map(|m| m.phases_done)
        .collect()
}

/// The fault-free staged reference for a request: output, stats, and the
/// delta manifest stream an uninterrupted run saves (every phase but the
/// last).
fn reference(request: &JobRequest) -> (SortOutcome, MemCheckpointer) {
    let input = request
        .workload
        .generate(request.records, request.data_seed);
    let mut sink = MemCheckpointer::default();
    let outcome = sort::run_staged(&request.spec, &input, &mut sink).expect("staged reference");
    (outcome, sink)
}

/// Assert the WAL holds every phase of `request`'s plan but the last (which
/// saves no manifest) exactly once for job `id`, and that its deltas wrote
/// each record once per level but the last: `n·rounds` records. A phase
/// logged twice would be a paid phase run again.
fn assert_each_phase_paid_once(events: &[AuditEvent], request: &JobRequest, id: u64) {
    let plan = StagePlan::new(&request.spec, request.records);
    let manifests = manifests_of(events, id);
    let mut phases: Vec<u64> = manifests.iter().map(|m| m.phases_done).collect();
    phases.sort_unstable();
    assert_eq!(
        phases,
        (1..plan.total_phases() as u64).collect::<Vec<_>>(),
        "job {id}: phase stream with duplicates or holes"
    );
    let records: usize = manifests.iter().flat_map(|m| &m.runs).map(Vec::len).sum();
    assert_eq!(
        records,
        request.records * plan.rounds(),
        "job {id}: manifests carried {records} records, want n·rounds"
    );
}

/// Assert `events` hold `jobs` `completed` lines and none carries a
/// record: an output is logged as a digest.
fn assert_lean_completions(events: &[AuditEvent], jobs: usize) {
    let mut completions = 0;
    for ev in events {
        if let AuditEvent::Completed { id, outcome, .. } = ev {
            completions += 1;
            assert!(
                outcome.output.is_empty(),
                "job {id}: a completed line carries records"
            );
        }
    }
    assert_eq!(completions, jobs, "completed lines");
}

/// With `CHECKPOINT_CHAOS_DIR` set, keep `root`'s audit log and every
/// checkpointed job's folded manifest (decoded, folded and re-rendered,
/// proving it parses) under `<dir>/<name>` as evidence.
fn keep_artifacts(root: &Path, name: &str, events: &[AuditEvent]) {
    let Some(dir) = std::env::var_os("CHECKPOINT_CHAOS_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir).join(name);
    std::fs::create_dir_all(dir.join("manifests")).expect("artifact dir");
    std::fs::copy(root.join("audit.jsonl"), dir.join("audit.jsonl")).expect("copy audit log");
    let mut folds = BTreeMap::new();
    for ev in events {
        if let AuditEvent::Checkpointed { id, manifest } = ev {
            CheckpointManifest::fold(folds.entry(*id).or_default(), manifest.clone());
        }
    }
    for (id, fold) in folds {
        let m = fold.expect("a checkpointed line folds");
        let path = dir.join("manifests").join(format!("job-{id}.json"));
        std::fs::write(path, m.to_json()).expect("write manifest");
    }
}

/// Three staged jobs on one worker, killed as soon as the WAL shows one
/// mid-flight, then recovered.
#[test]
fn job_killed_after_phase_k_resumes_from_phase_k_plus_one() {
    let root = fresh_root("kill-resume");
    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    let requests =
        [(400_000, 101), (200_000, 102), (100_000, 103)].map(|(records, data_seed)| JobRequest {
            data_seed,
            ..staged_job(records)
        });
    let totals = requests
        .each_ref()
        .map(|r| StagePlan::new(&r.spec, r.records).total_phases() as u64);
    assert!(
        totals.iter().all(|&t| t >= 3),
        "need multi-phase jobs to kill mid-flight"
    );
    // The fault-free references run beside the service, on a thread of
    // their own, so the two sorts overlap.
    let refs = std::thread::spawn({
        let requests = requests.clone();
        move || requests.each_ref().map(reference)
    });

    // Run until the WAL shows real mid-job progress, then pull the plug.
    // The last phase logs no manifest: a job with a logged phase that is
    // not terminal has more to go. The hold queues all three before the
    // worker picks, so it runs them in ETA order, smallest first.
    let service = SortService::start(cfg.clone()).expect("start");
    service.hold();
    let ids = requests
        .each_ref()
        .map(|r| service.submit(r.clone()).expect("admitted"));
    service.release();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let running = ids.map(|id| !service.status(id).expect("known").state.is_terminal());
        assert!(
            running.contains(&true),
            "every job finished before the kill — grow the jobs"
        );
        let events = wal(&root);
        let mid_flight = ids
            .iter()
            .zip(running)
            .any(|(&id, running)| running && !manifests_of(&events, id).is_empty());
        if mid_flight {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no job was ever observably mid-phase"
        );
        std::thread::sleep(Duration::from_micros(300));
    }
    service.kill();
    drop(service);

    let pre = replay(&std::fs::read_to_string(root.join("audit.jsonl")).expect("audit"))
        .expect("replays");
    let killed: Vec<usize> = (0..ids.len())
        .filter(|&i| {
            let j = &pre.jobs[&ids[i]];
            !j.outcome.is_terminal() && j.checkpoint_phase() >= 1
        })
        .collect();
    assert!(!killed.is_empty(), "the kill caught no job mid-phase");

    // Recover: the jobs come back WITH their manifests and complete.
    let (service, report) = SortService::recover(cfg).expect("recover");
    assert_eq!(report.requeued, pre.pending().count() as u64);
    let refs = refs.join().expect("references");
    for ((_, full), total) in refs.iter().zip(totals) {
        assert_eq!(full.manifests.len() as u64, total - 1);
    }
    for &i in &killed {
        let (id, total, (want, full)) = (ids[i], totals[i], &refs[i]);
        let k = pre.jobs[&id].checkpoint_phase();
        assert!(k < total, "job {id} killed mid-job at phase {k} of {total}");
        // Replay folds the job's deltas into the reference's snapshot at k.
        let mut want_k = None;
        for delta in &full.manifests[..k as usize] {
            CheckpointManifest::fold(&mut want_k, delta.clone());
        }
        assert_eq!(pre.jobs[&id].manifest, want_k, "job {id}");
        // The 2× gate: a resumed job pays at most the fault-free writes
        // plus the one phase the kill interrupted (its completed phases are
        // restored from the manifest, not re-run). Strictly under 2×.
        let writes_after = |p: u64| match p {
            p if p == total => want.stats.block_writes,
            p => full.manifests[p as usize - 1].stats.block_writes,
        };
        let fault_free = want.stats.block_writes;
        let paid = fault_free + writes_after(k + 1) - writes_after(k);
        assert!(
            paid < 2 * fault_free,
            "job {id}: paid writes {paid} not under 2x fault-free {fault_free}"
        );
    }

    for (id, (want, _)) in ids.iter().zip(&refs) {
        let done = service.wait(*id).expect("known job");
        assert_eq!(done.state, JobState::Completed, "{:?}", done.error);
        let got =
            SortOutcome::from_json(done.telemetry.as_ref().expect("telemetry")).expect("decode");
        assert_eq!(got.output, want.output, "job {id}: resumed output diverged");
        assert_eq!(
            got.stats, want.stats,
            "job {id}: resume ⊕ prefix modeled stats diverged from an uninterrupted run"
        );
    }
    service.drain();
    drop(service);

    // The resumes picked up at phase k+1: across the whole log every phase
    // but the last appears exactly once — completed phases were never
    // re-run, which is the "never redo paid writes" property in WAL form —
    // and the durable deltas agree bit-for-bit with the uninterrupted
    // reference stream at every logged phase.
    let events = wal(&root);
    for ((request, id), (_, full)) in requests.iter().zip(ids).zip(&refs) {
        assert_each_phase_paid_once(&events, request, id);
        for manifest in manifests_of(&events, id) {
            let phase = manifest.phases_done;
            assert_eq!(
                manifest,
                &full.manifests[(phase - 1) as usize],
                "job {id}: phase {phase}"
            );
        }
    }
    assert_lean_completions(&events, ids.len());
    keep_artifacts(&root, "kill-recover", &events);
    let _ = std::fs::remove_dir_all(&root);
}

/// Staged jobs on two workers under a seeded storm of retryable read and
/// write faults, half of them torn. Every job retries, and each retry
/// resumes from the phases earlier attempts checkpointed: across attempt
/// boundaries no phase is logged twice, and the final stats are
/// bit-identical to a fault-free run (faults perturb availability, never
/// the model).
#[test]
fn retries_under_a_fault_storm_resume_and_never_pay_a_phase_twice() {
    let root = fresh_root("fault-storm");
    let mut cfg = ServiceConfig::new(2, u64::MAX, root.clone());
    cfg.max_attempts = 8; // rates decay to zero well inside this
    cfg.backoff_base_ms = 1;
    cfg.backoff_cap_ms = 10;
    let storm = |seed: u64| {
        let mut f = FaultSpec::new(seed);
        f.read_permille = 1;
        f.write_permille = 1;
        f.short_permille = 500;
        f
    };
    let jobs = [
        (60_000, 201, 0xC0AC),
        (40_000, 202, 0x5EED),
        (30_000, 203, 0xFA11),
    ];
    let requests = jobs.map(|(records, data_seed, seed)| {
        let request = staged_job(records);
        JobRequest {
            spec: request
                .spec
                .to_builder()
                .fault(Some(storm(seed)))
                .build()
                .expect("valid spec"),
            data_seed,
            include_output: false,
            ..request
        }
    });

    let service = SortService::start(cfg).expect("start");
    let ids = requests
        .each_ref()
        .map(|r| service.submit(r.clone()).expect("admitted"));
    for (id, request) in ids.iter().zip(&requests) {
        let clean = JobRequest {
            spec: request
                .spec
                .to_builder()
                .fault(None)
                .build()
                .expect("valid spec"),
            ..request.clone()
        };
        let (want, _) = reference(&clean);
        let done = service.wait(*id).expect("known job");
        assert_eq!(done.state, JobState::Completed, "{:?}", done.error);
        let got =
            SortOutcome::from_json(done.telemetry.as_ref().expect("telemetry")).expect("decode");
        assert_eq!(got.stats, want.stats, "job {id}: stats diverged");
    }
    service.drain();
    drop(service);

    let log = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let rep = replay(&log).expect("replays");
    assert!(rep.pending().next().is_none(), "every job terminal");
    let events = wal(&root);
    for (request, id) in requests.iter().zip(ids) {
        assert!(rep.jobs[&id].attempts > 1, "the storm missed job {id}");
        assert_each_phase_paid_once(&events, request, id);
    }
    assert_lean_completions(&events, ids.len());
    keep_artifacts(&root, "fault-storm", &events);
    let _ = std::fs::remove_dir_all(&root);
}

/// The log a crash between a job's last phase and its `completed` line
/// leaves: `log` without `id`'s `completed` line.
fn without_completion(log: &str, id: u64) -> String {
    log.lines()
        .filter(|l| {
            !matches!(AuditEvent::from_json(l),
                Ok(AuditEvent::Completed { id: jid, .. }) if jid == id)
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Recover the service at `root`, which must re-queue exactly job `id`,
/// and return its outcome.
fn recover_one(root: &Path, id: u64) -> SortOutcome {
    let (service, report) =
        SortService::recover(ServiceConfig::new(1, u64::MAX, root.to_path_buf())).expect("recover");
    assert_eq!(report.requeued, 1);
    let done = service.wait(id).expect("known job");
    assert_eq!(done.state, JobState::Completed, "{:?}", done.error);
    assert_eq!(
        service.stats().checkpoints,
        0,
        "the recovered attempt runs only the final phase, which saves nothing"
    );
    let got = SortOutcome::from_json(done.telemetry.as_ref().expect("telemetry")).expect("decode");
    service.drain();
    got
}

/// The last phase saves no manifest, so a job killed after it but before
/// its `completed` line is durable resumes from phase `total − 1` and
/// redoes only the final round: same output and stats as an uninterrupted
/// run, and the log holds phases `1..total`, each exactly once.
#[test]
fn job_killed_before_completed_redoes_only_the_final_phase() {
    let root = fresh_root("kill-final");
    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    let request = staged_job(2_000);
    let (want, _) = reference(&request);
    let total = StagePlan::new(&request.spec, request.records).total_phases() as u64;
    assert!(total >= 3, "a multi-phase job");

    let service = SortService::start(cfg).expect("start");
    let id = service.submit(request).expect("admitted");
    assert_eq!(service.wait(id).expect("known").state, JobState::Completed);
    assert_eq!(service.stats().checkpoints, total - 1);
    service.drain();
    drop(service);
    assert_eq!(
        checkpointed_phases(&root, id),
        (1..total).collect::<Vec<_>>(),
        "the live run logs every phase but the last"
    );

    // Crash between the final phase and `completed`.
    let log = root.join("audit.jsonl");
    let crashed = without_completion(&std::fs::read_to_string(&log).expect("audit"), id);
    std::fs::write(&log, &crashed).expect("rewrite log");
    let pre = replay(&crashed).expect("replays");
    assert_eq!(pre.jobs[&id].outcome, ReplayOutcome::Pending);
    assert_eq!(pre.jobs[&id].checkpoint_phase(), total - 1);

    let got = recover_one(&root, id);
    assert_eq!(got.output, want.output, "resumed output diverged");
    assert_eq!(got.stats, want.stats, "resumed modeled stats diverged");
    assert_eq!(
        checkpointed_phases(&root, id),
        (1..total).collect::<Vec<_>>(),
        "the recovered attempt logged a manifest"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Builds that also saved the last phase left logs whose final line for
/// an unfinished job is a complete manifest (`phases_done ==
/// total_phases`, `base` 0, the output as its one run). Replay folds it,
/// and recovery completes the job from it with no phase run and no new
/// manifest, bit-identical to an uninterrupted run.
#[test]
fn a_complete_final_manifest_recovers_with_no_phase_run() {
    let root = fresh_root("complete-manifest");
    std::fs::create_dir_all(&root).expect("mkdir");
    let request = staged_job(2_000);
    let (want, full) = reference(&request);
    let input = request
        .workload
        .generate(request.records, request.data_seed);
    let total = StagePlan::new(&request.spec, request.records).total_phases() as u64;
    let complete = CheckpointManifest {
        version: MANIFEST_VERSION,
        digest: sort::input_digest(&request.spec, &input),
        n: input.len() as u64,
        phases_done: total,
        total_phases: total,
        base: 0,
        stats: want.stats,
        runs: vec![want.output.clone()],
    };

    let mut events = vec![
        AuditEvent::Accepted {
            id: 0,
            request: request.clone(),
            predicted_bytes: request.predict().peak_bytes(),
        },
        AuditEvent::Started { id: 0, attempt: 1 },
    ];
    events.extend(
        full.manifests
            .iter()
            .chain([&complete])
            .map(|m| AuditEvent::Checkpointed {
                id: 0,
                manifest: m.clone(),
            }),
    );
    let log: String = events.iter().map(|ev| ev.to_json() + "\n").collect();
    std::fs::write(root.join("audit.jsonl"), &log).expect("write log");

    let rep = replay(&log).expect("replays");
    assert_eq!(rep.jobs[&0].outcome, ReplayOutcome::Pending);
    assert_eq!(rep.jobs[&0].manifest.as_ref(), Some(&complete));

    let got = recover_one(&root, 0);
    assert_eq!(got.output, want.output);
    assert_eq!(got.stats, want.stats, "a phase ran again");
    assert_eq!(
        checkpointed_phases(&root, 0),
        (1..=total).collect::<Vec<_>>(),
        "recovery logged a manifest"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_checkpoint_line_is_tolerated_and_resume_starts_from_the_last_whole_one() {
    let root = fresh_root("torn");
    std::fs::create_dir_all(&root).expect("mkdir");
    let request = staged_job(2_000);
    let (want, full) = reference(&request);

    // Hand-build a WAL: the job was accepted, started, checkpointed twice
    // — and the third manifest line was torn mid-write by the crash.
    let mut log = String::new();
    for ev in [
        AuditEvent::Accepted {
            id: 0,
            request: request.clone(),
            predicted_bytes: request.predict().peak_bytes(),
        },
        AuditEvent::Started { id: 0, attempt: 1 },
        AuditEvent::Checkpointed {
            id: 0,
            manifest: full.manifests[0].clone(),
        },
        AuditEvent::Checkpointed {
            id: 0,
            manifest: full.manifests[1].clone(),
        },
    ] {
        log.push_str(&ev.to_json());
        log.push('\n');
    }
    let torn = AuditEvent::Checkpointed {
        id: 0,
        manifest: full.manifests[2].clone(),
    }
    .to_json();
    log.push_str(&torn[..torn.len() / 2]); // crash mid-write
    std::fs::write(root.join("audit.jsonl"), &log).expect("write log");

    let rep = replay(&log).expect("torn tail tolerated");
    assert!(rep.torn_tail);
    assert_eq!(
        rep.jobs[&0].checkpoint_phase(),
        2,
        "last whole manifest wins"
    );

    let (service, report) =
        SortService::recover(ServiceConfig::new(1, u64::MAX, root.clone())).expect("recover");
    assert!(report.torn_tail);
    assert_eq!(report.requeued, 1);
    let done = service.wait(0).expect("known job");
    assert_eq!(done.state, JobState::Completed, "{:?}", done.error);
    let got = SortOutcome::from_json(done.telemetry.as_ref().expect("telemetry")).expect("decode");
    assert_eq!(got.output, want.output);
    assert_eq!(got.stats, want.stats);
    service.drain();
    drop(service);

    // The resumed attempt re-recorded only phases 3.. — phases 1 and 2
    // still appear exactly once each in the (truncated, then appended)
    // log.
    let phases = checkpointed_phases(&root, 0);
    assert_eq!(phases.iter().filter(|&&p| p == 1).count(), 1);
    assert_eq!(phases.iter().filter(|&&p| p == 2).count(), 1);
    assert!(phases.contains(&(full.manifests.len() as u64)));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stale_manifest_after_terminal_outcome_is_ignored_and_recovery_is_idempotent() {
    let root = fresh_root("stale");
    std::fs::create_dir_all(&root).expect("mkdir");
    let request = staged_job(2_000);
    let (want, full) = reference(&request);

    let mut log = String::new();
    for ev in [
        AuditEvent::Accepted {
            id: 0,
            request: request.clone(),
            predicted_bytes: request.predict().peak_bytes(),
        },
        AuditEvent::Started { id: 0, attempt: 1 },
        AuditEvent::Checkpointed {
            id: 0,
            manifest: full.manifests.last().unwrap().clone(),
        },
        AuditEvent::Completed {
            id: 0,
            outcome: Arc::new(want.clone()),
            output_digest: None,
        },
        // A stale (older) manifest line landing after the terminal
        // outcome — replay must not resurrect the job or touch progress.
        AuditEvent::Checkpointed {
            id: 0,
            manifest: full.manifests[0].clone(),
        },
    ] {
        log.push_str(&ev.to_json());
        log.push('\n');
    }
    std::fs::write(root.join("audit.jsonl"), &log).expect("write log");

    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    for round in 0..2 {
        let (service, report) = SortService::recover(cfg.clone()).expect("recover");
        assert_eq!(
            report.requeued, 0,
            "round {round}: terminal jobs stay terminal"
        );
        assert_eq!(report.restored, 1, "round {round}");
        let done = service.status(0).expect("known job");
        assert_eq!(done.state, JobState::Completed);
        let got =
            SortOutcome::from_json(done.telemetry.as_ref().expect("telemetry")).expect("decode");
        assert_eq!(got.output, want.output, "round {round}");
        assert_eq!(got.stats, want.stats, "round {round}");
        service.kill(); // leave the log as-is for the next round
        drop(service);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A checkpoint the WAL refused is not durable, so it must fail its phase:
/// with every append after the `accepted` line refused, every attempt's
/// first save fails with an I/O error, nothing is recorded as progress,
/// and the job exhausts its retries and ends `Failed`.
#[cfg(target_os = "linux")]
#[test]
fn a_checkpoint_the_wal_refuses_fails_the_attempt() {
    use std::io::BufRead;
    let root = fresh_root("wal-full");
    std::fs::create_dir_all(&root).expect("mkdir");
    // The log is a pipe whose reader takes the `accepted` line and hangs
    // up: the job is admitted (a refused `accepted` line would refuse the
    // submission), and every later append fails with a broken pipe.
    let log = root.join("audit.jsonl");
    let made = std::process::Command::new("mkfifo")
        .arg(&log)
        .status()
        .expect("run mkfifo");
    assert!(made.success(), "mkfifo: {made}");
    let reader = {
        let log = log.clone();
        std::thread::spawn(move || {
            let pipe = std::fs::File::open(log).expect("open the pipe");
            let mut line = String::new();
            std::io::BufReader::new(pipe)
                .read_line(&mut line)
                .expect("read the accepted line");
            line
        })
    };
    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    let service = SortService::start(cfg.clone()).expect("start");
    service.hold();
    let id = service.submit(staged_job(2_000)).expect("admitted");
    let accepted = reader.join().expect("pipe reader");
    assert!(accepted.contains("\"event\": \"accepted\""), "{accepted}");
    service.release();
    let done = service.wait(id).expect("known job");
    assert_eq!(
        done.state,
        JobState::Failed,
        "the refused manifests were ignored"
    );
    assert_eq!(done.failure, Some(FailureKind::Io), "{:?}", done.error);
    assert_eq!(done.attempts, cfg.max_attempts);
    assert_eq!(
        service.stats().checkpoints,
        0,
        "a refused manifest is not counted"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
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
    for line in log.lines() {
        let v = Json::parse(line).expect("audit line parses");
        if v.get("id").and_then(Json::as_u64) == Some(id) {
            let event = v.get("event").and_then(Json::as_str).expect("event name");
            *bytes.entry(event.to_owned()).or_default() += line.len() + 1;
        }
    }
    bytes
}

/// Compaction-shaped inline jobs that ask for their output, one staged and
/// one not. Each serves exactly its sorted input, yet its WAL holds at most
/// its `accepted` line plus its manifests plus 1 KB: the output is logged
/// as a digest, not a second copy, and the staged job's manifests carry
/// exactly `n·rounds` records, so no manifest copies the output either. A
/// recovery rebuilds both outputs into the telemetry the live service
/// served.
#[test]
fn inline_jobs_log_their_output_as_a_digest_not_a_copy() {
    let root = fresh_root("inline");
    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    let spec = SortSpec::builder(Algorithm::Mergesort, 1024, 32, 8)
        .k(4)
        .build()
        .expect("valid inline spec");
    let inputs = [compaction_input(301), compaction_input(302)];
    let requests = [(&inputs[0], true), (&inputs[1], false)].map(|(input, staged)| {
        JobRequest::inline(spec.clone(), input.clone()).checkpointed(staged)
    });
    let service = SortService::start(cfg.clone()).expect("start");
    let ids = requests
        .each_ref()
        .map(|r| service.submit(r.clone()).expect("admitted"));
    let mut live = Vec::new();
    for (input, id) in inputs.iter().zip(ids) {
        let status = service.wait(id).expect("known job");
        assert_eq!(status.state, JobState::Completed, "job {id}");
        let telemetry = status.telemetry.expect("telemetry");
        let mut want = input.clone();
        want.sort_unstable();
        let served = SortOutcome::from_json(&telemetry).expect("decodes");
        assert!(served.output == want, "job {id}: output is wrong");
        live.push(telemetry);
    }
    service.drain();
    drop(service);

    let events = wal(&root);
    assert_lean_completions(&events, ids.len());
    assert_each_phase_paid_once(&events, &requests[0], ids[0]);
    assert!(
        manifests_of(&events, ids[1]).is_empty(),
        "the unstaged job logged a manifest"
    );
    let log = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    for id in ids {
        let bytes = job_wal_bytes(&log, id);
        let total: usize = bytes.values().sum();
        let accepted = bytes["accepted"];
        let manifests = bytes.get("checkpointed").copied().unwrap_or(0);
        assert!(
            total <= accepted + manifests + 1024,
            "job {id} logged {total} B, over accepted {accepted} B + manifests \
             {manifests} B + 1 KB: {bytes:?}"
        );
    }

    let (service, report) = SortService::recover(cfg).expect("recover");
    assert_eq!((report.restored, report.requeued), (2, 0));
    for (id, telemetry) in ids.iter().zip(&live) {
        let status = service.status(*id).expect("known job");
        assert!(
            status.telemetry.as_ref() == Some(telemetry),
            "job {id}: recovered telemetry differs from the live one"
        );
    }
    service.kill();
    drop(service);
    keep_artifacts(&root, "inline", &events);
    let _ = std::fs::remove_dir_all(&root);
}
