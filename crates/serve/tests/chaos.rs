//! The seeded chaos harness: a full HTTP sort service under a fault storm
//! — double-digit read *and* write fault rates, torn transfers, simulated
//! crashes — interleaved with two kill/recover cycles. One pinned seed
//! drives everything, so a failure replays exactly.
//!
//! What must hold when the dust settles:
//!
//! * every accepted job lands terminally in exactly one of
//!   completed / failed / expired — nothing wedges, nothing is lost;
//! * jobs whose only weather is retryable I/O complete within the attempt
//!   budget (fault rates halve per retry, so success is by construction);
//! * jobs that crash deterministically fail with kind `panic`;
//! * modeled costs of every successful job are bit-identical to a
//!   fault-free run of the same spec — injection perturbs availability,
//!   never the model;
//! * the final audit log replays to exactly the service's own view.
//!
//! Set `CHAOS_AUDIT_DIR` to keep the audit log as a CI artifact.

use asym_core::sort::{self, Algorithm, SortOutcome, SortSpec};
use asym_model::workload::Workload;
use asym_serve::client::{self, roundtrip};
use asym_serve::{replay, serve, FailureKind, JobRequest, JobState, ServiceConfig, SortService};
use em_sim::FaultSpec;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The one seed. Change it and the whole storm — which jobs fault, where,
/// how often — changes reproducibly.
const CHAOS_SEED: u64 = 0xC0FFEE;

/// Hard guard against the one failure a status check can't see: a wedged
/// pool. If the session doesn't reach terminal states in this long,
/// something deadlocked.
const GUARD: Duration = Duration::from_secs(180);

/// What we expect of a job once the storm passes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fate {
    /// Retryable I/O weather only: must complete within the budget.
    Completes,
    /// A certain simulated crash on every attempt: must fail as `panic`.
    Crashes,
    /// A 1 ms deadline: completed if a worker got there first, expired if
    /// it lapsed in the queue — either way terminal.
    Races,
}

fn base_spec(alg: Algorithm, fault: Option<FaultSpec>) -> SortSpec {
    SortSpec::builder(alg, 64, 8, 16)
        .k(2)
        .fault(fault)
        .build()
        .expect("valid spec")
}

/// The fault-free twin of a submitted spec — what the model says the job
/// costs when the device behaves.
fn fault_free(spec: &SortSpec) -> SortSpec {
    SortSpec::builder(spec.algorithm(), spec.m(), spec.b(), spec.omega())
        .k(spec.k())
        .build()
        .expect("valid spec")
}

fn job(spec: SortSpec, records: usize, data_seed: u64) -> JobRequest {
    JobRequest {
        spec,
        workload: Workload::UniformRandom,
        records,
        data_seed,
        input: None,
        include_output: false,
        deadline_ms: None,
        checkpoint: false,
    }
}

/// The storm roster for one round. Only *serial* sorts carry I/O faults:
/// their store paths either propagate `Result`s or unwind the typed
/// `StoreIoPanic`, both of which the service classifies as retryable.
fn roster(round: u64) -> Vec<(JobRequest, Fate)> {
    let mut jobs = Vec::new();
    // Eight I/O-storm jobs: read and write faults both well above 10%,
    // with a healthy share of torn transfers.
    for i in 0..8u64 {
        let alg = if i % 2 == 0 {
            Algorithm::Mergesort
        } else {
            Algorithm::Samplesort
        };
        let fault = FaultSpec {
            seed: CHAOS_SEED ^ (round << 32) ^ i,
            read_permille: 150,
            write_permille: 120,
            short_permille: 300,
            panic_permille: 0,
        };
        jobs.push((
            job(base_spec(alg, Some(fault)), 2_000 + 250 * i as usize, i),
            Fate::Completes,
        ));
    }
    // Three certain crashers: every attempt dies in a simulated device
    // crash, so the service must fail them without wedging a worker.
    for i in 0..3u64 {
        let fault = FaultSpec {
            seed: CHAOS_SEED ^ (round << 32) ^ (0x100 + i),
            panic_permille: 1_000,
            ..FaultSpec::new(0)
        };
        jobs.push((
            job(base_spec(Algorithm::Mergesort, Some(fault)), 2_000, 100 + i),
            Fate::Crashes,
        ));
    }
    // Two clean jobs riding through the same weather.
    for i in 0..2u64 {
        jobs.push((
            job(base_spec(Algorithm::Samplesort, None), 3_000, 200 + i),
            Fate::Completes,
        ));
    }
    // And one racing a 1 ms deadline through a backlogged queue.
    let mut dated = job(base_spec(Algorithm::Mergesort, None), 2_000, 300);
    dated.deadline_ms = Some(1);
    jobs.push((dated, Fate::Races));
    jobs
}

#[test]
fn chaos_storm_with_kill_and_recover_settles_every_job() {
    // The crashers panic inside the workers' catch_unwind; silence the
    // hook for worker threads only (test-harness panics stay visible).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("sort-worker"));
        if !worker {
            default_hook(info);
        }
    }));

    let root = std::env::temp_dir().join(format!("asym-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = ServiceConfig::new(3, u64::MAX, root.clone());
    cfg.max_attempts = 12; // rates decay to zero well inside this
    cfg.backoff_base_ms = 1;
    cfg.backoff_cap_ms = 20;

    let mut jobs: Vec<(u64, JobRequest, Fate)> = Vec::new();

    // --- Round A: fresh service, full roster over HTTP, then a power cut
    // mid-flight.
    let service = SortService::start(cfg.clone()).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    for (req, fate) in roster(0) {
        let id = client::submit(addr, &req).expect("submit");
        jobs.push((id, req, fate));
    }
    std::thread::sleep(Duration::from_millis(100));
    server.service().kill();
    server.shutdown();
    drop(server);

    // --- Round B: recover (conservation against the log), storm some
    // more from concurrent clients, and cut the power again.
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let rep = replay(&text).expect("replays");
    let pending = rep.pending().count() as u64;
    assert_eq!(rep.jobs.len() as u64, jobs.len() as u64, "no job unaudited");
    let (service, report) = SortService::recover(cfg.clone()).expect("recover");
    assert_eq!(report.requeued, pending, "conservation: requeued");
    assert_eq!(
        report.restored,
        rep.jobs.len() as u64 - pending,
        "conservation: restored"
    );
    assert_eq!(report.next_id, rep.next_id);

    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let handles: Vec<_> = roster(1)
        .into_iter()
        .take(4)
        .map(|(req, fate)| {
            std::thread::spawn(move || {
                let id = client::submit(addr, &req).expect("submit");
                (id, req, fate)
            })
        })
        .collect();
    for h in handles {
        jobs.push(h.join().expect("submitter thread"));
    }
    std::thread::sleep(Duration::from_millis(80));
    server.service().kill();
    server.shutdown();
    drop(server);

    // --- Round C: recover once more and let everything settle.
    let (service, _) = SortService::recover(cfg).expect("recover again");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let deadline = Instant::now() + GUARD;
    for (id, req, fate) in &jobs {
        // Long-poll to a terminal state; the guard deadline is the
        // no-deadlock assertion.
        let status = loop {
            let status = client::wait(addr, *id).expect("wait");
            if status.state.is_terminal() {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "job {id} did not settle — pool wedged?"
            );
        };
        let state = status.state;
        match fate {
            Fate::Completes => {
                assert_eq!(state, JobState::Completed, "job {id}: {status:?}");
                // The availability storm never touches the model: modeled
                // costs equal a fault-free run of the same spec, bit for
                // bit.
                let telemetry = status.telemetry.as_deref().expect("telemetry");
                let outcome = SortOutcome::from_json(telemetry).expect("decodes");
                let clean = fault_free(&req.spec);
                let direct = sort::run(&clean, &req.workload.generate(req.records, req.data_seed))
                    .expect("fault-free run");
                assert_eq!(
                    outcome.stats, direct.stats,
                    "job {id} modeled costs drifted"
                );
            }
            Fate::Crashes => {
                assert_eq!(state, JobState::Failed, "job {id}: {status:?}");
                assert_eq!(status.failure, Some(FailureKind::Panic), "{status:?}");
            }
            Fate::Races => {
                assert!(
                    state == JobState::Completed || state == JobState::Expired,
                    "job {id}: {status:?}"
                );
            }
        }
    }

    let (code, body) = roundtrip(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(code, 200, "{body}");
    server.shutdown();
    drop(server);

    // --- The audit log tells the same story the service did.
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let full = replay(&text).expect("replays");
    assert_eq!(full.jobs.len(), jobs.len(), "every job in the log");
    assert!(
        full.pending().next().is_none(),
        "every accepted job is terminal"
    );
    assert!(full.retries >= 1, "the I/O storm forced real retries");
    for (id, _, fate) in &jobs {
        let j = &full.jobs[id];
        use asym_serve::ReplayOutcome;
        match fate {
            Fate::Completes => assert!(
                matches!(j.outcome, ReplayOutcome::Completed { .. }),
                "job {id}: {:?}",
                j.outcome
            ),
            Fate::Crashes => assert!(
                matches!(
                    j.outcome,
                    ReplayOutcome::Failed { kind, .. } if kind == FailureKind::Panic
                ),
                "job {id}: {:?}",
                j.outcome
            ),
            Fate::Races => assert!(j.outcome.is_terminal()),
        }
    }

    // Keep the evidence when CI asks for it.
    if let Ok(dir) = std::env::var("CHAOS_AUDIT_DIR") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("audit artifact dir");
        std::fs::copy(root.join("audit.jsonl"), dir.join("audit.jsonl"))
            .expect("copy audit artifact");
    }
    let _ = std::fs::remove_dir_all(&root);
}
