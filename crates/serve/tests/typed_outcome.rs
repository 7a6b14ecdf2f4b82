//! A completed job's outcome, as the service holds it: typed, with its
//! records when the job asked for its output and only their count when
//! not, and served rendered. Both serve the bytes a direct run renders,
//! live and after `recover`, `wait_outcome` hands the same outcome over
//! typed, and every line of the log re-renders byte for byte.

use asym_core::sort::{self, Algorithm, SortOutcome, SortSpec};
use asym_model::workload::Workload;
use asym_serve::{AuditEvent, JobRequest, JobState, ServiceConfig, SortService};
use std::path::PathBuf;

fn fresh_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asym-typed-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three jobs: an inline compaction-shaped one and a parallel generator
/// one (a `parallel` block in its telemetry) that ask for their output,
/// and a lean generator job.
fn jobs() -> Vec<JobRequest> {
    let merge = SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
        .k(2)
        .build()
        .expect("valid spec");
    let par = SortSpec::builder(Algorithm::ParSamplesort, 64, 8, 16)
        .lanes(4)
        .steal_charge(true)
        .build()
        .expect("valid spec");
    let generated = |spec: SortSpec, include_output| JobRequest {
        spec,
        workload: Workload::Zipf,
        records: 3_000,
        data_seed: 7,
        input: None,
        include_output,
        deadline_ms: None,
        checkpoint: false,
    };
    vec![
        JobRequest::inline(merge.clone(), Workload::FewDistinct.generate(1_350, 3)),
        generated(par, true),
        generated(merge, false),
    ]
}

/// What a direct run of `request` renders.
fn direct(request: &JobRequest) -> (SortOutcome, String) {
    let input = match &request.input {
        Some(records) => records.clone(),
        None => request
            .workload
            .generate(request.records, request.data_seed),
    };
    let outcome = sort::run(&request.spec, &input).expect("direct run");
    let telemetry = outcome.to_json(request.include_output);
    (outcome, telemetry)
}

/// Job `id` serves `request`'s direct telemetry byte for byte, through
/// `status` and `wait`, and `wait_outcome` hands over the same outcome.
fn assert_serves_direct_run(service: &SortService, id: u64, request: &JobRequest) {
    let (outcome, telemetry) = direct(request);
    let waited = service.wait(id).expect("known job");
    assert_eq!(
        waited.state,
        JobState::Completed,
        "{id}: {:?}",
        waited.error
    );
    assert!(
        waited.telemetry.as_deref() == Some(&telemetry),
        "job {id}: wait"
    );
    let status = service.status(id).expect("known job");
    assert!(
        status.telemetry.as_deref() == Some(&telemetry),
        "job {id}: status"
    );
    let typed = service
        .wait_outcome(id)
        .expect("known job")
        .expect("completed");
    if request.include_output {
        assert!(
            *typed == outcome,
            "job {id}: the typed outcome is the direct run"
        );
    } else {
        // A lean job's telemetry carries `output_len`, not the records.
        let n = request.record_count();
        assert!(
            telemetry.contains(&format!("\"output_len\": {n}")),
            "{telemetry}"
        );
        assert!(!telemetry.contains("\"output\":"), "{telemetry}");
        assert_eq!(typed.stats, outcome.stats, "job {id}: lean stats");
        assert!(
            typed.output.is_empty(),
            "job {id}: a lean outcome has no records"
        );
        assert_eq!(typed.output_len, n, "job {id}: but keeps their count");
    }
}

#[test]
fn completed_jobs_serve_a_direct_runs_telemetry_live_and_after_recover() {
    let root = fresh_root("serve");
    let cfg = ServiceConfig::new(2, u64::MAX, root.clone());
    let jobs = jobs();

    let service = SortService::start(cfg.clone()).expect("start");
    for (id, request) in jobs.iter().enumerate() {
        assert_eq!(service.submit(request.clone()), Ok(id as u64));
    }
    for (id, request) in jobs.iter().enumerate() {
        assert_serves_direct_run(&service, id as u64, request);
    }
    service.drain();
    drop(service);

    let (service, report) = SortService::recover(cfg).expect("recover");
    assert_eq!(report.restored, jobs.len() as u64);
    for (id, request) in jobs.iter().enumerate() {
        assert_serves_direct_run(&service, id as u64, request);
    }
    service.drain();
    drop(service);
    // Every line, the three completions included, decodes to typed values
    // that re-render it byte for byte.
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let completions = text.lines().filter(|l| l.contains("\"completed\"")).count();
    assert_eq!(completions, jobs.len());
    for line in text.lines() {
        let event = AuditEvent::from_json(line).expect("decodes");
        assert!(
            event.to_json() == line,
            "re-rendered differently: {line:.200}"
        );
    }
    std::fs::remove_dir_all(&root).expect("remove the service root");
}

#[test]
fn wait_outcome_hands_back_the_status_of_a_job_that_did_not_complete() {
    let root = fresh_root("expired");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    // Held, the job never runs: its deadline lapses in the queue.
    service.hold();
    let request = JobRequest {
        deadline_ms: Some(1),
        ..jobs().remove(0)
    };
    let id = service.submit(request).expect("admitted");
    std::thread::sleep(std::time::Duration::from_millis(5));
    let status = service
        .wait_outcome(id)
        .expect("known job")
        .expect_err("expired, not completed");
    assert_eq!(status.state, JobState::Expired);
    assert_eq!(status.id, id);
    assert!(service.wait_outcome(id + 1).is_none(), "unknown id");
    service.drain();
    drop(service);
    std::fs::remove_dir_all(&root).expect("remove the service root");
}
