//! Checkpointed jobs through the whole service lifecycle: a job killed
//! after phase k resumes from phase k+1 (never re-running a paid phase),
//! with output byte-identical and modeled stats bit-identical to an
//! uninterrupted staged run; a job killed after its last checkpoint but
//! before `completed` redoes only the final phase; a log that ends in a
//! complete final-phase manifest (as older builds wrote) recovers without
//! running a phase; a torn `checkpointed` line is tolerated and
//! truncated; a stale manifest after the terminal outcome is ignored;
//! recovery is idempotent; and a manifest the WAL refuses fails its attempt.

use asym_core::sort::{
    self, Algorithm, CheckpointManifest, MemCheckpointer, SortOutcome, SortSpec, StagePlan,
    MANIFEST_VERSION,
};
use asym_model::workload::Workload;
use asym_serve::{
    replay, AuditEvent, FailureKind, JobRequest, JobState, ReplayOutcome, ServiceConfig,
    SortService,
};
use std::path::{Path, PathBuf};
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

/// The phases recorded in the WAL for `id`, in log order.
fn checkpointed_phases(root: &Path, id: u64) -> Vec<u64> {
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| match AuditEvent::from_json(l) {
            Ok(AuditEvent::Checkpointed { id: jid, manifest }) if jid == id => {
                Some(manifest.phases_done)
            }
            _ => None,
        })
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

#[test]
fn job_killed_after_phase_k_resumes_from_phase_k_plus_one() {
    let root = fresh_root("kill-resume");
    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    let request = staged_job(150_000);
    let (want, full) = reference(&request);
    let total = StagePlan::new(&request.spec, request.records).total_phases() as u64;
    assert!(total >= 3, "need a multi-phase job to kill mid-flight");
    assert_eq!(full.manifests.len() as u64, total - 1);

    // Run until the WAL shows real mid-job progress, then pull the plug.
    let service = SortService::start(cfg.clone()).expect("start");
    let id = service.submit(request.clone()).expect("admitted");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let phases = checkpointed_phases(&root, id);
        if phases.iter().any(|&p| p >= 1 && p < total) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no mid-job checkpoint appeared; phases so far: {phases:?}"
        );
        assert!(
            !service.status(id).expect("known").state.is_terminal(),
            "job finished before the kill — grow the job size"
        );
        std::thread::sleep(Duration::from_micros(300));
    }
    service.kill();
    drop(service);

    let pre = replay(&std::fs::read_to_string(root.join("audit.jsonl")).expect("audit"))
        .expect("replays");
    let k = pre.jobs[&id].checkpoint_phase();
    assert!(
        k >= 1 && k < total,
        "killed mid-job at phase {k} of {total}"
    );
    assert_eq!(pre.jobs[&id].outcome, ReplayOutcome::Pending);
    // Replay folds the job's deltas into the reference's snapshot at k.
    let mut want_k = None;
    for delta in &full.manifests[..k as usize] {
        CheckpointManifest::fold(&mut want_k, delta.clone());
    }
    assert_eq!(pre.jobs[&id].manifest, want_k);

    // Recover: the job comes back WITH its manifest and completes.
    let (service, report) = SortService::recover(cfg).expect("recover");
    assert_eq!(report.requeued, 1);
    let done = service.wait(id).expect("known job");
    assert_eq!(done.state, JobState::Completed, "{:?}", done.error);
    let got = SortOutcome::from_json(done.telemetry.as_ref().expect("telemetry")).expect("decode");
    assert_eq!(got.output, want.output, "resumed output diverged");
    assert_eq!(
        got.stats, want.stats,
        "resume ⊕ prefix modeled stats diverged from an uninterrupted run"
    );
    service.drain();
    drop(service);

    // The resume picked up at phase k+1: across the whole log every phase
    // but the last (which saves no manifest) appears exactly once —
    // completed phases were never re-run, which is the "never redo paid
    // writes" property in WAL form.
    let phases = checkpointed_phases(&root, id);
    let mut sorted = phases.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted,
        (1..total).collect::<Vec<_>>(),
        "phase stream with duplicates or holes: {phases:?}"
    );
    // And the durable deltas agree bit-for-bit with the uninterrupted
    // reference stream at every logged phase.
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if let Ok(AuditEvent::Checkpointed { id: jid, manifest }) = AuditEvent::from_json(line) {
            if jid == id {
                let phase = manifest.phases_done;
                assert_eq!(
                    &manifest,
                    &full.manifests[(phase - 1) as usize],
                    "phase {phase}"
                );
            }
        }
    }
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
    let telemetry = want.to_json(true);

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
            telemetry: telemetry.clone(),
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
