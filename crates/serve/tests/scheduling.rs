//! The ETA-priority scheduler and the I/O-cost admission axis, pinned:
//! a small job submitted *after* a bulk job runs first (shortest modeled
//! ETA wins), the aging credit flips that order back when a job has
//! waited long enough (no starvation), the admin hold/release pair makes
//! the schedule observable deterministically, and the second admission
//! budget refuses on predicted `reads + ω·writes` with its own typed
//! error.

use asym_core::sort::{Algorithm, SortSpec};
use asym_model::workload::Workload;
use asym_serve::{
    AuditEvent, JobRequest, JobState, Refusal, ServiceConfig, SortService, SubmitError,
};
use std::path::PathBuf;
use std::time::Duration;

fn fresh_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asym-sched-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job(records: usize) -> JobRequest {
    JobRequest {
        spec: SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
            .k(2)
            .build()
            .expect("valid spec"),
        workload: Workload::UniformRandom,
        records,
        data_seed: 7,
        input: None,
        include_output: false,
        deadline_ms: None,
        checkpoint: false,
    }
}

/// The order the single worker actually started jobs in, from the WAL.
fn started_order(root: &std::path::Path) -> Vec<u64> {
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| match AuditEvent::from_json(l) {
            Ok(AuditEvent::Started { id, attempt: 1 }) => Some(id),
            _ => None,
        })
        .collect()
}

#[test]
fn small_jobs_jump_earlier_bulk_jobs() {
    let root = fresh_root("eta");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    // Hold the queue so submission order and pickup order are decoupled
    // deterministically: nothing runs until all three are queued.
    service.hold();
    let bulk = service.submit(job(60_000)).expect("admitted");
    let mid = service.submit(job(8_000)).expect("admitted");
    let small = service.submit(job(1_000)).expect("admitted");
    service.release();
    for id in [bulk, mid, small] {
        let done = service.wait(id).expect("known job");
        assert_eq!(done.state, JobState::Completed, "{id}: {:?}", done.error);
    }
    service.drain();
    drop(service);
    assert_eq!(
        started_order(&root),
        vec![small, mid, bulk],
        "shortest modeled ETA first, regardless of submission order"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn aging_prevents_bulk_starvation() {
    let root = fresh_root("aging");
    let mut cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    // An enormous aging rate: one millisecond of waiting outweighs any
    // ETA difference, so the queue degrades to FIFO — the bulk job's head
    // start beats the small job's smaller cost.
    cfg.aging_io_per_ms = u64::MAX / 1_000_000;
    let service = SortService::start(cfg).expect("start");
    service.hold();
    let bulk = service.submit(job(60_000)).expect("admitted");
    std::thread::sleep(Duration::from_millis(20));
    let small = service.submit(job(1_000)).expect("admitted");
    service.release();
    for id in [bulk, small] {
        assert_eq!(
            service.wait(id).expect("known job").state,
            JobState::Completed
        );
    }
    service.drain();
    drop(service);
    assert_eq!(
        started_order(&root),
        vec![bulk, small],
        "a waited-long-enough bulk job runs before a fresh small one"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn io_budget_is_a_second_typed_admission_axis() {
    let root = fresh_root("iobudget");
    let one = job(20_000).predict();
    let mut cfg = ServiceConfig::new(1, u64::MAX, root.clone());
    // Room for exactly one such job in flight.
    cfg.io_budget = one.io_cost() + one.io_cost() / 2;
    let service = SortService::start(cfg).expect("start");
    service.hold();
    let first = service.submit(job(20_000)).expect("fits the I/O budget");
    let err = service
        .submit(job(20_000))
        .expect_err("over the I/O budget");
    match err {
        SubmitError::Rejected(Refusal::Io {
            predicted,
            available,
        }) => {
            assert_eq!(predicted, one.io_cost());
            assert_eq!(available, cfg_available(&one));
            // The wire payload names the axis, distinct from the memory
            // rejection's "rejected".
            assert!(err.to_json().contains("\"rejected_io\""));
        }
        other => panic!("wrong rejection type: {other:?}"),
    }
    // The budget is held, not leaked: once the first job finishes, the
    // same submission is admitted.
    service.release();
    assert_eq!(
        service.wait(first).expect("known").state,
        JobState::Completed
    );
    let second = service.submit(job(20_000)).expect("budget released");
    assert_eq!(
        service.wait(second).expect("known").state,
        JobState::Completed
    );
    let stats = service.stats();
    assert_eq!(stats.rejected, 1);
    assert!(stats.peak_in_flight_io >= one.io_cost());
    service.drain();
    let _ = std::fs::remove_dir_all(&root);
}

fn cfg_available(one: &asym_core::sort::CostEstimate) -> u64 {
    (one.io_cost() + one.io_cost() / 2) - one.io_cost()
}

#[test]
fn drain_clears_an_admin_hold() {
    let root = fresh_root("hold-drain");
    let service = SortService::start(ServiceConfig::new(1, u64::MAX, root.clone())).expect("start");
    service.hold();
    let id = service.submit(job(2_000)).expect("admitted");
    // Drain must not deadlock behind the hold: it lifts it and finishes
    // the admitted job.
    service.drain();
    assert_eq!(
        service.status(id).expect("known").state,
        JobState::Completed
    );
    let _ = std::fs::remove_dir_all(&root);
}
