//! The headline admission-control scenario from the service's contract:
//! a pool of 4 workers, a budget sized for exactly two standard jobs, six
//! concurrent submissions. Accepted jobs must produce byte-identical output
//! to a direct `sort::run`, the summed predicted peak bytes in flight must
//! never exceed the budget, over-budget submissions must come back as
//! typed rejections, and a graceful drain must flush every lifecycle event
//! to the audit log.

use asym_core::sort::{self, Algorithm, SortOutcome, SortSpec};
use asym_model::json::Json;
use asym_model::workload::Workload;
use asym_serve::{JobRequest, JobState, Refusal, ServiceConfig, SortService, SubmitError};
use std::path::PathBuf;

fn fresh_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asym-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn standard_spec() -> SortSpec {
    SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
        .k(2)
        .build()
        .expect("valid spec")
}

fn standard_job(data_seed: u64) -> JobRequest {
    JobRequest {
        spec: standard_spec(),
        // Big enough that a sort takes real time: all six submissions land
        // while the first two jobs are still running, so exactly two fit
        // the two-job budget.
        workload: Workload::UniformRandom,
        records: 60_000,
        data_seed,
        input: None,
        include_output: true,
        deadline_ms: None,
        checkpoint: false,
    }
}

#[test]
fn six_concurrent_jobs_against_a_two_job_budget() {
    let per_job = standard_job(0).predict().peak_bytes();
    let budget = 2 * per_job;
    let root = fresh_root("six-jobs");
    let service = std::sync::Arc::new(
        SortService::start(ServiceConfig::new(4, budget, root.clone())).expect("start"),
    );

    let results: Vec<(u64, Result<u64, SubmitError>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6u64)
            .map(|seed| {
                let service = std::sync::Arc::clone(&service);
                s.spawn(move || (seed, service.submit(standard_job(seed))))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    let accepted: Vec<(u64, u64)> = results
        .iter()
        .filter_map(|(seed, r)| r.as_ref().ok().map(|id| (*seed, *id)))
        .collect();
    let rejected: Vec<&SubmitError> = results
        .iter()
        .filter_map(|(_, r)| r.as_ref().err())
        .collect();
    assert_eq!(accepted.len(), 2, "budget fits exactly two: {results:?}");
    assert_eq!(rejected.len(), 4);
    for err in rejected {
        match err {
            SubmitError::Rejected(Refusal::Budget {
                predicted,
                available,
            }) => {
                assert_eq!(*predicted, per_job);
                assert!(*available < per_job, "rejection implies shortfall");
                let payload = Json::parse(&err.to_json()).expect("payload parses");
                assert_eq!(
                    payload.get("error").and_then(Json::as_str),
                    Some("rejected")
                );
                assert_eq!(
                    payload.get("predicted").and_then(Json::as_u64),
                    Some(per_job)
                );
                assert!(payload.get("available").and_then(Json::as_u64).is_some());
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    // Accepted jobs: byte-identical to running the same job directly.
    for (seed, id) in &accepted {
        let status = service.wait(*id).expect("known job");
        assert_eq!(status.state, JobState::Completed, "{:?}", status.error);
        let outcome =
            SortOutcome::from_json(status.telemetry.as_ref().expect("telemetry")).expect("decode");
        let request = standard_job(*seed);
        let direct = sort::run(
            &request.spec,
            &request
                .workload
                .generate(request.records, request.data_seed),
        )
        .expect("direct run");
        assert_eq!(outcome.output, direct.output, "seed {seed}");
        assert_eq!(outcome.stats, direct.stats, "seed {seed}");
    }

    // The admission invariant, by high-water mark.
    let stats = service.stats();
    assert!(
        stats.peak_in_flight_bytes <= budget,
        "in-flight {} exceeded budget {budget}",
        stats.peak_in_flight_bytes,
    );
    assert_eq!(
        stats.peak_in_flight_bytes, budget,
        "both admitted jobs counted"
    );
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.rejected, 4);

    service.drain();
    let stats = service.stats();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.in_flight_bytes, 0, "drain releases everything");

    // Audit log: every event, one JSON object per line, flushed.
    let audit = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit exists");
    let lines: Vec<&str> = audit.lines().collect();
    let mut events = std::collections::HashMap::new();
    for line in &lines {
        let v = Json::parse(line).expect("audit line parses");
        let e = v
            .get("event")
            .and_then(Json::as_str)
            .expect("event field")
            .to_owned();
        *events.entry(e).or_insert(0u32) += 1;
    }
    assert_eq!(events.get("accepted"), Some(&2));
    assert_eq!(events.get("rejected"), Some(&4));
    assert_eq!(events.get("completed"), Some(&2));
    assert_eq!(events.get("drained"), Some(&1));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_jobs_are_rejected_deterministically() {
    let root = fresh_root("oversized");
    let service = SortService::start(ServiceConfig::new(2, 1024, root.clone())).expect("start");
    let job = standard_job(1);
    let predicted = job.predict().peak_bytes();
    assert!(predicted > 1024);
    let err = service.submit(job).expect_err("cannot fit");
    assert_eq!(
        err,
        SubmitError::Rejected(Refusal::Budget {
            predicted,
            available: 1024,
        })
    );
    service.drain();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn draining_service_refuses_new_work_and_finishes_old() {
    let root = fresh_root("drain");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    let ids: Vec<u64> = (0..3)
        .map(|s| service.submit(standard_job(s)).expect("admitted"))
        .collect();
    service.drain();
    for id in ids {
        let status = service.status(id).expect("known");
        assert_eq!(status.state, JobState::Completed, "drain ran the queue dry");
    }
    assert_eq!(service.submit(standard_job(9)), Err(SubmitError::Draining));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn file_backend_jobs_get_isolated_directories() {
    let root = fresh_root("file-iso");
    let service = SortService::start(ServiceConfig::new(2, u64::MAX, root.clone())).expect("start");
    let mut job = standard_job(5);
    job.records = 2_000;
    job.spec = SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
        .k(2)
        .backend(em_sim::Backend::File)
        // A client-supplied directory the server must NOT honor.
        .file_dir("/definitely/not/writable")
        .build()
        .expect("valid spec");
    let id = service.submit(job.clone()).expect("admitted");
    let status = service.wait(id).expect("known");
    assert_eq!(status.state, JobState::Completed, "{:?}", status.error);
    assert!(
        root.join(format!("job-{id}")).is_dir(),
        "per-job dir created"
    );
    // Isolation does not change the modeled costs or the output.
    let outcome = SortOutcome::from_json(&status.telemetry.unwrap()).expect("decode");
    let mem = sort::run(
        &standard_spec(),
        &job.workload.generate(job.records, job.data_seed),
    )
    .expect("mem run");
    assert_eq!(outcome.output, mem.output);
    assert_eq!(outcome.stats, mem.stats);
    service.drain();
    let _ = std::fs::remove_dir_all(&root);
}

/// The `accepted` line is the WAL write that makes a job the service's
/// responsibility. When the log refuses it, the submission is refused
/// too: no id is issued, nothing queues or runs, and no budget is held.
#[cfg(target_os = "linux")]
#[test]
fn a_refused_accepted_append_refuses_the_submission() {
    let root = fresh_root("wal-full");
    std::fs::create_dir_all(&root).expect("mkdir");
    std::os::unix::fs::symlink("/dev/full", root.join("audit.jsonl")).expect("symlink");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");

    let err = service
        .submit(standard_job(3))
        .expect_err("the log is full");
    assert!(
        matches!(err, SubmitError::Unlogged { ref error } if !error.is_empty()),
        "{err:?}"
    );
    assert_eq!(SubmitError::from_json(&err.to_json()), Ok(err));
    assert!(service.status(0).is_none(), "no job was recorded");
    let stats = service.stats();
    assert_eq!(
        (stats.submitted, stats.queued, stats.active, stats.completed),
        (0, 0, 0, 0)
    );
    assert_eq!((stats.in_flight_bytes, stats.in_flight_io), (0, 0));
    service.drain();
    assert!(service.status(0).is_none(), "nothing ran");
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}
