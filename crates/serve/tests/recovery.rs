//! Crash recovery, pinned: kill a service mid-flight (queued and running
//! jobs dropped on the floor, exactly like a power cut), recover from the
//! audit log alone, and check that nothing audited is lost or duplicated,
//! re-run and restored jobs serve byte-identical telemetry, and the id
//! counter resumes. A restored job's output is rebuilt from its logged
//! input and checked against the logged digest; v1 logs, which embed the
//! output, still recover verbatim. Plus the prefix property: replaying
//! *any* byte prefix of a real session's `audit.jsonl` yields a consistent
//! state, and longer prefixes only ever add information.

use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::workload::Workload;
use asym_serve::{
    replay, AuditEvent, JobRequest, JobState, RecoverError, ReplayOutcome, ServiceConfig,
    SortService,
};
use em_sim::FaultSpec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn fresh_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asym-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job(data_seed: u64, records: usize) -> JobRequest {
    JobRequest {
        spec: SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
            .k(2)
            .build()
            .expect("valid spec"),
        workload: Workload::UniformRandom,
        records,
        data_seed,
        input: None,
        include_output: true,
        deadline_ms: None,
        checkpoint: false,
    }
}

/// A parallel sample sort job: its telemetry carries a `parallel` block.
fn par_job(data_seed: u64, records: usize) -> JobRequest {
    JobRequest {
        spec: SortSpec::builder(Algorithm::ParSamplesort, 64, 8, 16)
            .lanes(4)
            .steal_charge(true)
            .build()
            .expect("valid spec"),
        ..job(data_seed, records)
    }
}

/// The served telemetry of job `id`, which must have completed.
fn served(service: &SortService, id: u64) -> String {
    let status = service.wait(id).expect("known job");
    assert_eq!(
        status.state,
        JobState::Completed,
        "{id}: {:?}",
        status.error
    );
    status.telemetry.expect("telemetry")
}

#[test]
fn kill_and_recover_restores_queue_counters_and_results() {
    let root = fresh_root("kill");
    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());

    // Six real jobs on one worker, then the plug is pulled: at most a
    // couple complete, the rest die queued or mid-run.
    let service = SortService::start(cfg.clone()).expect("start");
    for seed in 0..6 {
        service.submit(job(seed, 60_000)).expect("admitted");
    }
    service.kill();
    drop(service);

    // What does the log say survived?
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let pre = replay(&text).expect("replays");
    assert_eq!(pre.jobs.len(), 6, "every accepted job is in the WAL");
    assert_eq!(pre.next_id, 6);
    let terminal_before = pre
        .jobs
        .values()
        .filter(|j| j.outcome.is_terminal())
        .count() as u64;
    let pending_before = 6 - terminal_before;

    // Recover: unfinished jobs re-queue, finished ones come back restored.
    let (service, report) = SortService::recover(cfg.clone()).expect("recover");
    assert_eq!(report.requeued, pending_before, "conservation: requeued");
    assert_eq!(report.restored, terminal_before, "conservation: restored");
    assert_eq!(report.next_id, 6);
    assert!(!report.torn_tail, "kill writes whole lines");

    // The id counter resumes past every id ever issued — no reuse.
    let new_id = service.submit(par_job(6, 20_000)).expect("admitted");
    assert_eq!(new_id, 6);

    // Every job — restored survivors, re-runs, and the new one — serves
    // telemetry byte-identical to a direct run of the same spec: output,
    // stats, and the new job's `parallel` block.
    let mut live = Vec::new();
    for id in 0..=6u64 {
        let request = if id == 6 {
            par_job(6, 20_000)
        } else {
            job(id, 60_000)
        };
        let direct = sort::run(
            &request.spec,
            &request
                .workload
                .generate(request.records, request.data_seed),
        )
        .expect("direct run");
        let telemetry = served(&service, id);
        assert!(
            telemetry == direct.to_json(true),
            "job {id}: served telemetry differs from a direct run"
        );
        if id == 6 {
            assert!(telemetry.contains("\"parallel\""));
        }
        live.push(telemetry);
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 7);
    service.drain();
    drop(service);

    // The log holds no second copy of any output: each `completed` line
    // is lean telemetry plus the output's digest.
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    for line in text.lines() {
        if let Ok(AuditEvent::Completed {
            telemetry,
            output_digest,
            ..
        }) = AuditEvent::from_json(line)
        {
            assert!(output_digest.is_some(), "{line}");
            assert!(!telemetry.contains("\"output\""), "{line}");
        }
    }

    // The final log holds the whole story: 7 jobs, ids 0..=6, all terminal
    // exactly once — nothing audited was lost or duplicated.
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let full = replay(&text).expect("replays");
    assert_eq!(
        full.jobs.keys().copied().collect::<Vec<_>>(),
        (0..=6u64).collect::<Vec<_>>()
    );
    assert!(
        full.pending().next().is_none(),
        "nothing pending after drain"
    );
    assert!(full
        .jobs
        .values()
        .all(|j| matches!(j.outcome, ReplayOutcome::Completed { .. })));

    // Recovery is idempotent: recovering the already-clean log re-queues
    // nothing and restores everything, each job's output rebuilt from its
    // logged request into the telemetry the live service served.
    let (service, report) = SortService::recover(cfg.clone()).expect("re-recover");
    assert_eq!(report.requeued, 0);
    assert_eq!(report.restored, 7);
    assert_eq!(report.next_id, 7);
    for (id, telemetry) in live.iter().enumerate() {
        assert!(
            served(&service, id as u64) == *telemetry,
            "job {id}: recovered telemetry differs from the live one"
        );
    }
    service.kill(); // leave the log exactly as it is
    drop(service);

    // Crash-during-recovery: tear the tail by hand; recover tolerates it,
    // reports it, and truncates so later appends cannot corrupt the log.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(root.join("audit.jsonl"))
        .expect("open");
    write!(f, "{{\"v\": 1, \"event\": \"acc").expect("tear");
    drop(f);
    let (service, report) = SortService::recover(cfg).expect("recover torn");
    assert!(report.torn_tail);
    assert_eq!(report.restored, 7);
    service.drain();
    drop(service);
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let after = replay(&text).expect("truncation kept the log clean");
    assert!(!after.torn_tail);
    assert_eq!(after.jobs.len(), 7);

    let _ = std::fs::remove_dir_all(&root);
}

/// A crash between a WAL line and its newline leaves a whole final line
/// with no terminator. Replay accepts it, so recovery must end it before
/// appending: otherwise the next event glues onto it, and the *following*
/// recovery finds a corrupt interior line.
#[test]
fn an_unterminated_final_line_is_ended_before_the_next_append() {
    let root = fresh_root("unterminated");
    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    let service = SortService::start(cfg.clone()).expect("start");
    let first = service.submit(job(1, 2_000)).expect("admitted");
    assert_eq!(
        service.wait(first).expect("known").state,
        JobState::Completed
    );
    service.drain();
    drop(service);

    let log = root.join("audit.jsonl");
    let text = std::fs::read_to_string(&log).expect("audit");
    std::fs::write(&log, text.strip_suffix('\n').expect("terminated")).expect("strip");

    let (service, report) = SortService::recover(cfg.clone()).expect("first recovery");
    assert!(!report.torn_tail, "a whole line is not torn");
    assert_eq!(report.restored, 1);
    let second = service.submit(job(2, 2_000)).expect("admitted");
    assert_eq!(
        service.wait(second).expect("known").state,
        JobState::Completed
    );
    service.drain();
    drop(service);

    let (service, report) = SortService::recover(cfg).expect("second recovery");
    assert_eq!((report.restored, report.requeued), (2, 0));
    assert!(!report.torn_tail);
    service.kill();
    drop(service);
    let text = std::fs::read_to_string(&log).expect("audit");
    assert!(text.ends_with('\n'), "every appended line is terminated");
    let _ = std::fs::remove_dir_all(&root);
}

/// A log written before schema v2 embeds each output in its `completed`
/// line. It still recovers, serving that telemetry byte for byte, and v2
/// lines appended after it recover alongside.
#[test]
fn a_v1_completed_line_with_its_output_still_recovers_verbatim() {
    let root = fresh_root("v1");
    std::fs::create_dir_all(&root).expect("mkdir");
    let request = job(4, 5_000);
    let input = request
        .workload
        .generate(request.records, request.data_seed);
    let telemetry = sort::run(&request.spec, &input)
        .expect("direct run")
        .to_json(true);
    let log = format!(
        "{{ \"v\": 1, \"event\": \"accepted\", \"id\": 0, \"predicted_bytes\": {}, \"request\": {} }}\n\
         {{ \"v\": 1, \"event\": \"started\", \"id\": 0, \"attempt\": 1 }}\n\
         {{ \"v\": 1, \"event\": \"completed\", \"id\": 0, \"outcome\": {telemetry} }}\n",
        request.predict().peak_bytes(),
        request.to_json()
    );
    std::fs::write(root.join("audit.jsonl"), &log).expect("write log");

    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    let (service, report) = SortService::recover(cfg.clone()).expect("a v1 log recovers");
    assert_eq!((report.restored, report.requeued), (1, 0));
    assert!(
        served(&service, 0) == telemetry,
        "v1 telemetry not verbatim"
    );
    let id = service.submit(job(5, 2_000)).expect("admitted");
    let live = served(&service, id);
    service.drain();
    drop(service);

    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    assert!(text.starts_with(&log) && text.contains("{ \"v\": 2, "));
    let (service, report) = SortService::recover(cfg).expect("a mixed log recovers");
    assert_eq!((report.restored, report.requeued), (2, 0));
    assert!(
        served(&service, 0) == telemetry,
        "v1 telemetry not verbatim"
    );
    assert!(served(&service, id) == live, "v2 telemetry not rebuilt");
    service.kill();
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

/// A `completed` line whose digest does not match the output rebuilt from
/// the logged input fails recovery with a typed error naming the job; it
/// is never restored with the wrong output.
#[test]
fn a_tampered_output_digest_fails_recovery_naming_the_job() {
    let root = fresh_root("tampered");
    let cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    let service = SortService::start(cfg.clone()).expect("start");
    let first = service.submit(job(1, 2_000)).expect("admitted");
    let input = Workload::Zipf.generate(3_000, 8);
    let inline = service
        .submit(JobRequest::inline(job(0, 0).spec, input))
        .expect("admitted");
    for id in [first, inline] {
        served(&service, id);
    }
    service.drain();
    drop(service);

    let log = root.join("audit.jsonl");
    let text = std::fs::read_to_string(&log).expect("audit");
    let mut digest = None;
    let tampered: String = text
        .lines()
        .map(|line| {
            let line = match AuditEvent::from_json(line).expect("decodes") {
                AuditEvent::Completed {
                    id,
                    telemetry,
                    output_digest: Some(d),
                } if id == inline => {
                    digest = Some(d);
                    AuditEvent::Completed {
                        id,
                        telemetry,
                        output_digest: Some(d ^ 1),
                    }
                    .to_json()
                }
                _ => line.to_owned(),
            };
            line + "\n"
        })
        .collect();
    let digest = digest.expect("the inline job logged a digest");
    std::fs::write(&log, tampered).expect("tamper");

    match SortService::recover(cfg) {
        Err(RecoverError::OutputDigest {
            id,
            logged,
            rebuilt,
        }) => {
            assert_eq!(id, inline);
            assert_eq!((logged, rebuilt), (digest ^ 1, digest));
        }
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a tampered digest recovered"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// One real service session whose audit log exercises every event type:
/// completions, seeded-fault retries, a deterministic panic failure, a
/// queue expiry, and a budget rejection. Generated once, replayed from
/// many prefixes below.
fn session_log() -> &'static str {
    static LOG: OnceLock<String> = OnceLock::new();
    LOG.get_or_init(|| {
        // The panic job panics inside the worker's catch_unwind; silence
        // the hook for worker threads only so the storm doesn't spray
        // backtraces (test-harness panics stay visible).
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("sort-worker"));
            if !worker {
                default_hook(info);
            }
        }));
        let root = fresh_root("session");
        let mut cfg = ServiceConfig::new(1, u64::MAX, root.clone());
        cfg.max_attempts = 12;
        cfg.backoff_base_ms = 1;
        cfg.backoff_cap_ms = 10;
        cfg.budget_bytes = job(0, 60_000).predict().peak_bytes() * 6;
        let service = SortService::start(cfg).expect("start");

        // Busy job pins the single worker. The queue is ETA-priority, not
        // FIFO, so wait until the worker actually picked it up — otherwise
        // the smaller jobs below would jump it.
        let busy = service.submit(job(0, 60_000)).expect("admitted");
        while service.status(busy).expect("known").state == JobState::Queued {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // ...so a 1 ms deadline lapses in the queue: a deterministic
        // `expired` event.
        let mut dated = job(1, 3_000);
        dated.deadline_ms = Some(1);
        service.submit(dated).expect("admitted");
        // Seeded read faults: `retried` events, then success by decay.
        let mut flaky = job(2, 3_000);
        let mut fault = FaultSpec::new(0xDECAF);
        fault.read_permille = 500;
        flaky.spec = SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
            .k(2)
            .fault(Some(fault))
            .build()
            .expect("valid spec");
        service.submit(flaky).expect("admitted");
        // A certain panic: `failed` with kind "panic".
        let mut doomed = job(3, 3_000);
        let mut fault = FaultSpec::new(0xBAD);
        fault.panic_permille = 1_000;
        doomed.spec = SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
            .k(2)
            .fault(Some(fault))
            .build()
            .expect("valid spec");
        service.submit(doomed).expect("admitted");
        // A staged job: `checkpointed` events with embedded manifests, so
        // the prefix sweeps below slice through manifest lines too. Kept
        // tiny (still 9 phases) — the exhaustive byte-prefix sweep is
        // quadratic in the log size, and manifests embed the run layout.
        let staged = job(9, 120).checkpointed(true);
        service.submit(staged).expect("admitted");
        // And one the budget turns away: a `rejected` event. Peak bytes
        // scale with M, not the record count, so ask for a monster M.
        let mut monster = job(4, 1_000);
        monster.spec = SortSpec::builder(Algorithm::Mergesort, 1 << 24, 8, 16)
            .k(2)
            .build()
            .expect("valid spec");
        let err = service.submit(monster).expect_err("over budget");
        assert!(matches!(
            err,
            asym_serve::SubmitError::Rejected(asym_serve::Refusal::Budget { .. })
        ));

        service.drain();
        drop(service);
        let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
        let _ = std::fs::remove_dir_all(&root);

        // The session must actually contain the variety the prefixes are
        // sliced from.
        let full = replay(&text).expect("replays");
        assert_eq!(full.jobs.len(), 5);
        assert!(full.retries >= 1, "the fault storm fired");
        assert_eq!(full.rejected, 1);
        assert!(matches!(full.jobs[&1].outcome, ReplayOutcome::Expired));
        assert!(matches!(
            full.jobs[&2].outcome,
            ReplayOutcome::Completed {
                output_digest: Some(_),
                ..
            }
        ));
        assert!(matches!(
            full.jobs[&3].outcome,
            ReplayOutcome::Failed { kind, .. } if kind == asym_serve::FailureKind::Panic
        ));
        assert!(matches!(
            full.jobs[&4].outcome,
            ReplayOutcome::Completed {
                output_digest: Some(_),
                ..
            }
        ));
        assert!(
            full.jobs[&4].checkpoint_phase() > 0 && full.jobs[&4].manifest.is_some(),
            "the staged job left checkpointed events in the log"
        );
        text
    })
}

#[test]
fn longer_prefixes_only_add_information() {
    let text = session_log();
    let full = replay(text).expect("full replay");
    let mut prev_terminal: Vec<(u64, ReplayOutcome)> = Vec::new();
    let mut prev_next_id = 0u64;
    let mut prev_jobs = 0usize;
    let mut prev_phases: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    // Every byte prefix, exhaustively: replay never errors (the cut can
    // only tear the final line), and state grows monotonically — ids and
    // jobs never regress, terminal outcomes never change or
    // un-terminalize, checkpoint progress never rolls back.
    for cut in 0..=text.len() {
        let rep = replay(&text[..cut]).expect("prefix replays");
        assert!(rep.next_id >= prev_next_id, "id counter regressed at {cut}");
        assert!(rep.jobs.len() >= prev_jobs, "jobs vanished at {cut}");
        assert!(rep.next_id <= full.next_id);
        for (id, outcome) in &prev_terminal {
            assert_eq!(
                &rep.jobs[id].outcome, outcome,
                "terminal outcome changed at {cut}"
            );
        }
        for (&id, j) in &rep.jobs {
            let prev = prev_phases.get(&id).copied().unwrap_or(0);
            assert!(
                j.checkpoint_phase() >= prev,
                "checkpoint progress of job {id} regressed at {cut}"
            );
            prev_phases.insert(id, j.checkpoint_phase());
        }
        prev_terminal = rep
            .jobs
            .iter()
            .filter(|(_, j)| j.outcome.is_terminal())
            .map(|(&id, j)| (id, j.outcome.clone()))
            .collect();
        prev_next_id = rep.next_id;
        prev_jobs = rep.jobs.len();
    }
    // And the final prefix is the full log.
    assert_eq!(replay(text).expect("full"), full);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict prefix of the session log recovers to a state consistent
    /// with the full log: same requests, attempts within the final count,
    /// terminal outcomes (when present) identical, and every non-terminal
    /// job exactly the set a recovery would re-queue.
    #[test]
    fn any_prefix_recovers_consistently(cut_permille in 0u32..1000) {
        let text = session_log();
        let full = replay(text).expect("full replay");
        let cut = (text.len() * cut_permille as usize) / 1000;
        let rep = replay(&text[..cut]).expect("prefix replays");

        prop_assert!(rep.next_id <= full.next_id);
        prop_assert!(rep.jobs.len() <= full.jobs.len());
        prop_assert!(rep.retries <= full.retries);
        for (id, j) in &rep.jobs {
            let f = &full.jobs[id];
            prop_assert_eq!(&j.request, &f.request, "request {} mutated", id);
            prop_assert!(j.attempts <= f.attempts);
            prop_assert!(
                j.checkpoint_phase() <= f.checkpoint_phase(),
                "checkpoint progress of {} ahead of the full log",
                id
            );
            if j.outcome.is_terminal() {
                prop_assert_eq!(&j.outcome, &f.outcome, "terminal outcome {} drifted", id);
            }
        }
        // The re-queue set is exactly the accepted-minus-terminal jobs.
        let pending: Vec<u64> = rep.pending().collect();
        let expect: Vec<u64> = rep
            .jobs
            .iter()
            .filter(|(_, j)| !j.outcome.is_terminal())
            .map(|(&id, _)| id)
            .collect();
        prop_assert_eq!(pending, expect);
    }
}
