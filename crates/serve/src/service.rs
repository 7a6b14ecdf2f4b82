//! The job server proper: a fixed worker pool behind cost-model admission
//! control, hardened for crashes.
//!
//! Admission is decided **before** a job runs, from
//! [`JobRequest::predict`] alone: the service tracks the summed
//! [`CostEstimate::peak_bytes`] of every admitted-but-unfinished job and
//! rejects any submission that would push the total over
//! [`ServiceConfig::budget_bytes`] — with a typed
//! [`Refusal::Budget`] carrying both the job's predicted bytes and
//! the bytes currently available, so clients can resize or retry. Because
//! the peak-memory prediction is a hard bound (each lane's leases are
//! capped at `M + slack`; see `tests/predict_bounds.rs`), the invariant is
//! real: total *actual* peak memory of in-flight jobs never exceeds the
//! budget either. When the service has a configured I/O rate
//! ([`ServiceConfig::io_per_ms`]), the same prediction also prices *time*:
//! a request whose modeled ETA already exceeds its `deadline_ms` is
//! refused up front ([`Refusal::Deadline`]).
//!
//! The audit log in the service root ([`crate::audit`]) is a
//! **write-ahead log**, not a diary: the `accepted` event (carrying the
//! whole request) is written *before* the job becomes runnable, and a
//! submission whose `accepted` line the log refuses is refused too
//! ([`SubmitError::Unlogged`]). Every later transition appends its own
//! versioned [`AuditEvent`]. That ordering is what makes
//! [`SortService::recover`] sound against a killed process — any job the
//! service ever owned is in the log, so replaying the log re-queues
//! exactly the accepted-but-unfinished jobs, restores terminal results,
//! and resumes the id counter. Replay tolerates a torn final line (the
//! crash tore it mid-write) and is idempotent over prefixes. Appends are
//! written, not synced (no `sync_data`), so a power cut can still lose
//! the page cache's tail; the power-loss item in `ROADMAP.md` tracks it.
//!
//! The live state is the log, replayed: it holds the [`Replay`] that
//! [`crate::replay`] folds the log into, and applies each event it logs
//! through that same fold right after the append. Beside the fold it keeps
//! only what the log never holds: the queue, the retry parking lot, and
//! each job's prediction, deadline clock and running flag. So `recover` is
//! replay, rebuild the outputs, and schedule what is pending.
//!
//! A `completed` line carries the job's outcome rendered lean, never the
//! sorted records: for a job that asked for its output it logs their
//! digest ([`AuditEvent::completed`]). The fold keeps the typed
//! [`SortOutcome`] the line was rendered from, records included. JSON is
//! rendered only where a status leaves the service, after the state lock
//! is released; [`SortService::wait_outcome`] hands the outcome to a
//! caller in this process (the `asym-kv` compactor) typed. `recover`
//! rebuilds the records by sorting the job's logged input and checking
//! them against the digest ([`RecoverError::OutputDigest`] if they miss).
//!
//! A file-backed attempt keeps its block files in `<root>/job-<id>`,
//! which is removed when the attempt ends, however it ends, so a served
//! root holds only `audit.jsonl` between attempts. A killed process cannot
//! clean up: it leaves the directory (and block file) of every attempt it
//! was running. Recovery re-queues those jobs, and each one's next attempt
//! reuses and removes its directory; a job that never runs again (it
//! expires in the queue, or the root is never recovered) leaves its
//! directory behind.
//!
//! Failures are classified ([`FailureKind`]): `ModelError::Io` is
//! transient weather and earns bounded-exponential-backoff retries up to
//! [`ServiceConfig::max_attempts`]; panics (caught per-attempt with
//! `catch_unwind`, so a crashing sorter cannot wedge the pool) and
//! validation errors are fatal. Jobs whose deadline lapses while queued
//! expire ([`JobState::Expired`]) without running. [`SortService::drain`]
//! is the graceful shutdown; [`SortService::kill`] is the simulated crash
//! the recovery tests lean on — it drops queued and running work on the
//! floor exactly like a killed process.

use crate::audit::{AuditError, AuditEvent, AuditLog, Replay, ReplayOutcome};
use crate::job::{FailureKind, JobId, JobRequest, JobState, JobStatus};
use asym_core::sort::wire::{records_digest, req_u64};
use asym_core::sort::{
    self, CheckpointManifest, Checkpointer, CostEstimate, SortOutcome, WireError,
};
use asym_model::json::{self, Json, JsonObj};
use asym_model::{ModelError, Record};
use em_sim::Backend;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How to size a [`SortService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Fixed worker-pool size (threads running sorts).
    pub workers: usize,
    /// Admission budget: max summed predicted peak bytes in flight.
    pub budget_bytes: u64,
    /// Service root: the audit log, and a `job-<id>` directory for each
    /// running file-backed attempt (removed when the attempt ends), live
    /// here. Created if absent.
    pub root_dir: PathBuf,
    /// Attempt budget per job: a retryable failure re-queues the job until
    /// this many attempts are spent, then it fails terminally. Minimum 1.
    pub max_attempts: u32,
    /// First retry backoff; attempt `n` waits `base << (n-1)`, capped.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff wait.
    pub backoff_cap_ms: u64,
    /// Modeled I/O units the service retires per millisecond — the
    /// exchange rate that turns [`CostEstimate::io_cost`] into an ETA for
    /// deadline admission. `0` (the default) disables the ETA check;
    /// queue expiry still applies.
    pub io_per_ms: u64,
    /// Second admission axis: max summed predicted I/O cost
    /// (`reads + ω·writes`, [`CostEstimate::io_cost`]) in flight. A
    /// submission over this line is a typed [`Refusal::Io`],
    /// distinct from the memory rejection. `0` (the default): unlimited.
    pub io_budget: u64,
    /// Aging rate of the ETA-priority queue: every millisecond a job
    /// waits discounts its effective cost by this many modeled I/O units,
    /// so bulk jobs cannot starve behind a stream of small ones. `0`
    /// disables aging (pure shortest-ETA-first).
    pub aging_io_per_ms: u64,
}

impl ServiceConfig {
    /// A config with the other knobs at their defaults: 3 attempts,
    /// 10 ms base / 1 s cap backoff, no ETA check (`io_per_ms: 0`), no I/O
    /// budget (`io_budget: 0`) and aging at `aging_io_per_ms: 16`.
    pub fn new(workers: usize, budget_bytes: u64, root_dir: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            workers,
            budget_bytes,
            root_dir: root_dir.into(),
            max_attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            io_per_ms: 0,
            io_budget: 0,
            aging_io_per_ms: 16,
        }
    }
}

/// Why admission turned a submission away. [`SubmitError::Rejected`]
/// carries it to the client and [`AuditEvent::Rejected`] to the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// Admitting this job would exceed the memory budget. Both sides of
    /// the comparison are returned so the client can resize or wait.
    Budget {
        /// The job's predicted peak bytes ([`CostEstimate::peak_bytes`]).
        predicted: u64,
        /// Budget minus bytes currently in flight.
        available: u64,
    },
    /// Admitting this job would exceed the I/O-cost budget
    /// (`reads + ω·writes`), the second admission axis beside peak bytes.
    Io {
        /// The job's predicted I/O cost ([`CostEstimate::io_cost`]).
        predicted: u64,
        /// I/O budget minus cost currently in flight.
        available: u64,
    },
    /// The modeled ETA on an otherwise idle service already exceeds the
    /// request's deadline; running it would only waste the queue's time.
    Deadline {
        /// Modeled milliseconds to run the job ([`CostEstimate::io_cost`]
        /// over [`ServiceConfig::io_per_ms`]).
        eta_ms: u64,
        /// What the request asked for.
        deadline_ms: u64,
    },
}

impl Refusal {
    /// Append the refusal's two numbers, as both the audit log and the
    /// submit-error payload name them.
    pub(crate) fn write_fields(&self, o: &mut JsonObj) {
        match *self {
            Refusal::Budget {
                predicted,
                available,
            }
            | Refusal::Io {
                predicted,
                available,
            } => {
                o.u64("predicted", predicted).u64("available", available);
            }
            Refusal::Deadline {
                eta_ms,
                deadline_ms,
            } => {
                o.u64("eta_ms", eta_ms).u64("deadline_ms", deadline_ms);
            }
        }
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control refused the job; nothing was queued or held.
    Rejected(Refusal),
    /// The service is draining and takes no new work.
    Draining,
    /// The audit log refused the job's `accepted` line, so the service did
    /// not take the job: it is neither queued nor holding any budget.
    Unlogged {
        /// The failed write's message.
        error: String,
    },
}

impl SubmitError {
    /// Structured error payload (`error` is `"rejected"`, `"rejected_io"`,
    /// `"deadline_unmeetable"`, `"draining"`, or `"unlogged"`).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        match self {
            SubmitError::Rejected(refusal) => {
                let (error, message) = match refusal {
                    Refusal::Budget { .. } => (
                        "rejected",
                        "predicted peak memory exceeds the available budget",
                    ),
                    Refusal::Io { .. } => (
                        "rejected_io",
                        "predicted I/O cost exceeds the available I/O budget",
                    ),
                    Refusal::Deadline { .. } => (
                        "deadline_unmeetable",
                        "modeled ETA exceeds the requested deadline",
                    ),
                };
                o.str("error", error);
                refusal.write_fields(&mut o);
                o.str("message", message);
            }
            SubmitError::Draining => {
                o.str("error", "draining")
                    .str("message", "service is draining; resubmit elsewhere");
            }
            SubmitError::Unlogged { error } => {
                o.str("error", "unlogged").str("write_error", error).str(
                    "message",
                    "the audit log refused the job; nothing was admitted",
                );
            }
        }
        o.finish()
    }

    /// Decode what [`to_json`](Self::to_json) renders (the `message` is
    /// prose and is not read back).
    pub fn from_json(text: &str) -> Result<SubmitError, WireError> {
        let v = Json::parse(text).map_err(WireError::Malformed)?;
        let obj = v
            .as_obj()
            .ok_or_else(|| WireError::Malformed("submit error must be a JSON object".into()))?;
        let num = |key| req_u64(obj, key);
        match json::get_str(obj, "error").as_deref() {
            Some("rejected") => Ok(SubmitError::Rejected(Refusal::Budget {
                predicted: num("predicted")?,
                available: num("available")?,
            })),
            Some("rejected_io") => Ok(SubmitError::Rejected(Refusal::Io {
                predicted: num("predicted")?,
                available: num("available")?,
            })),
            Some("deadline_unmeetable") => Ok(SubmitError::Rejected(Refusal::Deadline {
                eta_ms: num("eta_ms")?,
                deadline_ms: num("deadline_ms")?,
            })),
            Some("draining") => Ok(SubmitError::Draining),
            Some("unlogged") => Ok(SubmitError::Unlogged {
                error: json::get_str(obj, "write_error").ok_or_else(|| {
                    WireError::Malformed("missing string field \"write_error\"".into())
                })?,
            }),
            other => Err(WireError::Malformed(format!(
                "unknown submit error {other:?}"
            ))),
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected(Refusal::Budget {
                predicted,
                available,
            }) => write!(
                f,
                "rejected: predicted peak {predicted} B exceeds available {available} B"
            ),
            SubmitError::Rejected(Refusal::Io {
                predicted,
                available,
            }) => write!(
                f,
                "rejected: predicted I/O cost {predicted} exceeds available {available}"
            ),
            SubmitError::Rejected(Refusal::Deadline {
                eta_ms,
                deadline_ms,
            }) => write!(
                f,
                "deadline unmeetable: modeled ETA {eta_ms} ms exceeds deadline {deadline_ms} ms"
            ),
            SubmitError::Draining => write!(f, "service is draining"),
            SubmitError::Unlogged { error } => {
                write!(f, "not admitted: the audit log refused the job: {error}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why [`SortService::recover`] could not bring the service up.
#[derive(Debug)]
pub enum RecoverError {
    /// The audit log (or service root) could not be read or opened.
    Io(std::io::Error),
    /// The audit log is corrupt or from an unknown schema version.
    Audit(AuditError),
    /// A completed job's output, rebuilt from its logged input, does not
    /// match the digest its `completed` line logged.
    OutputDigest {
        /// The job.
        id: JobId,
        /// The digest the log holds.
        logged: u64,
        /// The digest of the rebuilt output.
        rebuilt: u64,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery I/O: {e}"),
            RecoverError::Audit(e) => write!(f, "recovery replay: {e}"),
            RecoverError::OutputDigest {
                id,
                logged,
                rebuilt,
            } => write!(
                f,
                "job {id}: rebuilt output digest {rebuilt:#x} does not match the logged {logged:#x}"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> RecoverError {
        RecoverError::Io(e)
    }
}

/// What [`SortService::recover`] found in the log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Jobs that were accepted but not terminal: re-queued to run again.
    pub requeued: u64,
    /// Terminal jobs restored with their recorded outcomes.
    pub restored: u64,
    /// Where the id counter resumed.
    pub next_id: JobId,
    /// The log's final line was torn by the crash (tolerated).
    pub torn_tail: bool,
}

/// Point-in-time service counters (see [`SortService::stats`]). The
/// first six count over the log's lifetime, so a recovery keeps them; the
/// peaks and `checkpoints` count this process only, from 0 at each boot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted over the log's lifetime.
    pub submitted: u64,
    /// Submissions turned away by admission control (memory budget, I/O
    /// budget or deadline) over the log's lifetime.
    pub rejected: u64,
    /// Jobs finished successfully over the log's lifetime.
    pub completed: u64,
    /// Jobs that failed terminally over the log's lifetime.
    pub failed: u64,
    /// Jobs whose deadline lapsed while queued, over the log's lifetime.
    pub expired: u64,
    /// Retryable failures that re-queued a job, over the log's lifetime.
    pub retried: u64,
    /// Jobs waiting in the queue for a worker, now.
    pub queued: u64,
    /// Jobs parked in retry backoff, now.
    pub delayed: u64,
    /// Jobs this process is running, now.
    pub active: u64,
    /// Summed predicted peak bytes of the pending jobs, now.
    pub in_flight_bytes: u64,
    /// High-water mark of `in_flight_bytes` in this process — the number
    /// the budget invariant is checked against.
    pub peak_in_flight_bytes: u64,
    /// The configured admission budget.
    pub budget_bytes: u64,
    /// Summed predicted I/O cost of the pending jobs, now.
    pub in_flight_io: u64,
    /// High-water mark of `in_flight_io` in this process.
    pub peak_in_flight_io: u64,
    /// The configured I/O-cost budget (0: unlimited).
    pub io_budget: u64,
    /// Checkpoint manifests this process recorded (0 after a recovery).
    pub checkpoints: u64,
}

impl ServiceStats {
    /// Render as JSON.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("submitted", self.submitted)
            .u64("rejected", self.rejected)
            .u64("completed", self.completed)
            .u64("failed", self.failed)
            .u64("expired", self.expired)
            .u64("retried", self.retried)
            .u64("queued", self.queued)
            .u64("delayed", self.delayed)
            .u64("active", self.active)
            .u64("in_flight_bytes", self.in_flight_bytes)
            .u64("peak_in_flight_bytes", self.peak_in_flight_bytes)
            .u64("budget_bytes", self.budget_bytes)
            .u64("in_flight_io", self.in_flight_io)
            .u64("peak_in_flight_io", self.peak_in_flight_io)
            .u64("io_budget", self.io_budget)
            .u64("checkpoints", self.checkpoints);
        o.finish()
    }
}

/// What the live service keeps of a job beside its record in the fold:
/// what the log never holds.
struct Sched {
    /// The admission-time prediction (a recovery recomputes it).
    predicted: CostEstimate,
    /// A worker holds the job (meaningful only while it is pending).
    running: bool,
    /// Queue-expiry deadline, armed from `deadline_ms` when the job enters
    /// the queue.
    expires_at: Option<Instant>,
    /// When the job entered the queue — the aging clock of the
    /// ETA-priority scheduler.
    enqueued_at: Instant,
    /// The last retryable failure's message, shown until the job ends.
    retry_error: Option<String>,
}

/// A status read under the state lock, and the outcome of a completed job
/// with whether its telemetry includes the records: still to be rendered.
type Snapshot = (JobStatus, Option<(Arc<SortOutcome>, bool)>);

/// The status a client sees: a completed job's outcome rendered as the
/// telemetry it asked for. Called after the state lock is released.
fn rendered((mut status, outcome): Snapshot) -> JobStatus {
    if let Some((outcome, include_output)) = outcome {
        status.telemetry = Some(outcome.to_json(include_output));
    }
    status
}

/// The live service: the fold of its log, and the scheduling the log never
/// holds. [`State::apply`] is the one writer of the fold.
#[derive(Default)]
struct State {
    /// Every job, the id counter and the lifetime counters: the log's fold,
    /// as [`replay`](crate::replay) of the log would rebuild it.
    fold: Replay,
    /// The scheduling entry of every job in the fold.
    sched: HashMap<JobId, Sched>,
    queue: VecDeque<JobId>,
    /// Retry parking lot: jobs waiting out their backoff, with due times.
    delayed: Vec<(Instant, JobId)>,
    /// Summed predicted peak bytes of the pending jobs.
    in_flight_bytes: u64,
    /// Summed predicted I/O cost of the pending jobs.
    in_flight_io: u64,
    /// High-water marks of the two sums since this process booted.
    peak_in_flight_bytes: u64,
    peak_in_flight_io: u64,
    /// Checkpoint manifests recorded since this process booted.
    checkpoints: u64,
    /// Admin hold: workers leave the queue untouched until released —
    /// tests use this to line up a deterministic schedule.
    held: bool,
    active: u64,
    draining: bool,
    drained: bool,
    /// Simulated crash: workers bail, drain no-ops, audit is dead.
    killed: bool,
}

impl State {
    /// Apply one event the service just logged: the scheduling the event
    /// implies, then the fold. The two touch disjoint state. A started
    /// attempt holds a worker until a `retried`, `completed` or `failed`
    /// line ends it; a `retried` job parks for its backoff; a terminal job
    /// gives back what admission held for it, and an expired one leaves
    /// the queue.
    fn apply(&mut self, ev: AuditEvent) {
        match &ev {
            AuditEvent::Started { id, .. } => {
                self.active += 1;
                self.sched.get_mut(id).expect("a started job").running = true;
            }
            AuditEvent::Checkpointed { .. } => self.checkpoints += 1,
            AuditEvent::Retried {
                id,
                backoff_ms,
                error,
                ..
            } => {
                self.end_attempt(*id).retry_error = Some(error.clone());
                let due = Instant::now() + Duration::from_millis(*backoff_ms);
                self.delayed.push((due, *id));
            }
            AuditEvent::Completed { id, .. } | AuditEvent::Failed { id, .. } => {
                self.end_attempt(*id);
                self.release(*id);
            }
            AuditEvent::Expired { id } => {
                self.queue.retain(|queued| queued != id);
                self.delayed.retain(|(_, parked)| parked != id);
                self.release(*id);
            }
            _ => {}
        }
        self.fold.apply(ev);
    }

    /// The running attempt of job `id` ended.
    fn end_attempt(&mut self, id: JobId) -> &mut Sched {
        self.active -= 1;
        let sched = self.sched.get_mut(&id).expect("a running job");
        sched.running = false;
        sched
    }

    /// Job `id` ended: give back the budgets admission held for it.
    fn release(&mut self, id: JobId) {
        let predicted = self.sched[&id].predicted;
        self.in_flight_bytes -= predicted.peak_bytes();
        self.in_flight_io -= predicted.io_cost();
    }

    /// Schedule job `id` of the fold at `now`, predicted at `predicted`:
    /// a pending job joins the queue and holds its prediction against the
    /// budgets. A recovered job's deadline clock restarts here: the log has
    /// no wall-clock anchor, and punishing a job for the outage would
    /// expire everything.
    fn schedule(&mut self, id: JobId, predicted: CostEstimate, now: Instant) {
        let job = &self.fold.jobs[&id];
        let expires_at = job
            .request
            .deadline_ms
            .map(|ms| now + Duration::from_millis(ms));
        if !job.outcome.is_terminal() {
            self.queue.push_back(id);
            self.in_flight_bytes += predicted.peak_bytes();
            self.peak_in_flight_bytes = self.peak_in_flight_bytes.max(self.in_flight_bytes);
            self.in_flight_io += predicted.io_cost();
            self.peak_in_flight_io = self.peak_in_flight_io.max(self.in_flight_io);
        }
        let sched = Sched {
            predicted,
            running: false,
            expires_at,
            enqueued_at: now,
            retry_error: None,
        };
        self.sched.insert(id, sched);
    }

    /// Job `id`'s status, read under the state lock (`None`: unknown). A
    /// completed job leaves `telemetry` unset and returns its outcome
    /// beside it, for [`rendered`] to render outside the lock.
    fn snapshot(&self, id: JobId) -> Option<Snapshot> {
        let job = self.fold.jobs.get(&id)?;
        let sched = &self.sched[&id];
        let (state, error, failure, outcome) = match &job.outcome {
            ReplayOutcome::Pending if sched.running => {
                (JobState::Running, sched.retry_error.clone(), None, None)
            }
            ReplayOutcome::Pending => (JobState::Queued, sched.retry_error.clone(), None, None),
            ReplayOutcome::Completed { outcome, .. } => {
                let outcome = (Arc::clone(outcome), job.request.include_output);
                (JobState::Completed, None, None, Some(outcome))
            }
            ReplayOutcome::Failed { kind, error } => {
                (JobState::Failed, Some(error.clone()), Some(*kind), None)
            }
            ReplayOutcome::Expired => {
                let error = Some("deadline expired while queued".into());
                (JobState::Expired, error, None, None)
            }
        };
        let status = JobStatus {
            id,
            state,
            predicted: sched.predicted,
            attempts: job.attempts,
            telemetry: None,
            error,
            failure,
        };
        Some((status, outcome))
    }

    /// The ids of every queued job: the queue, then the retry parking lot.
    fn pending(&self) -> impl Iterator<Item = JobId> + '_ {
        let parked = self.delayed.iter().map(|&(_, id)| id);
        self.queue.iter().copied().chain(parked)
    }

    /// The service holds a job or a rejection: only then do `recovered`
    /// and `drained` lines tell the log anything.
    fn has_history(&self) -> bool {
        !self.fold.jobs.is_empty() || self.fold.rejected > 0
    }

    /// Admission control: the first budget that cannot hold a job predicted
    /// at `predicted` — peak bytes, then I/O cost (when `io_budget` is
    /// set), then the deadline (when `io_per_ms` prices an ETA) — or `None`
    /// to admit.
    fn refusal(
        &self,
        cfg: &ServiceConfig,
        predicted: &CostEstimate,
        deadline_ms: Option<u64>,
    ) -> Option<Refusal> {
        let need = predicted.peak_bytes();
        let available = cfg.budget_bytes.saturating_sub(self.in_flight_bytes);
        if need > available {
            return Some(Refusal::Budget {
                predicted: need,
                available,
            });
        }
        let need_io = predicted.io_cost();
        let available = cfg.io_budget.saturating_sub(self.in_flight_io);
        if cfg.io_budget > 0 && need_io > available {
            return Some(Refusal::Io {
                predicted: need_io,
                available,
            });
        }
        match deadline_ms {
            Some(deadline_ms) if cfg.io_per_ms > 0 => {
                let eta_ms = need_io.div_ceil(cfg.io_per_ms);
                (eta_ms > deadline_ms).then_some(Refusal::Deadline {
                    eta_ms,
                    deadline_ms,
                })
            }
            _ => None,
        }
    }
}

struct Inner {
    cfg: ServiceConfig,
    state: Mutex<State>,
    /// Signals workers: queue non-empty, a delayed job may be due, or
    /// draining.
    work_ready: Condvar,
    /// Signals waiters: some job reached a terminal state.
    job_done: Condvar,
    /// The WAL. Every transition appends its event under the state lock
    /// and then applies it ([`State::apply`]); the checkpointer alone
    /// appends first and then takes the state lock to apply. So the lock
    /// order is always state → audit (or audit alone); never take state
    /// while holding audit.
    audit: AuditLog,
}

impl Inner {
    /// Append one event, best-effort (audit faults must not take down the
    /// data path once the file opened), then apply it to the state.
    fn log(&self, st: &mut State, ev: AuditEvent) {
        let _ = self.audit.append(&ev);
        st.apply(ev);
    }
}

/// The in-process sort server. See the [crate docs](crate) for semantics;
/// [`crate::http`] puts an HTTP/1.1 front door on it.
pub struct SortService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SortService {
    /// Boot on the config's root: [`recover`](SortService::recover)
    /// without the report. Every boot replays the log, so a used root
    /// resumes its id counter and keeps every job an earlier session
    /// accepted; a fresh root is an empty service.
    pub fn start(cfg: ServiceConfig) -> Result<SortService, RecoverError> {
        SortService::recover(cfg).map(|(service, _)| service)
    }

    /// Boot by replaying the audit log in the config's root: terminal
    /// jobs come back with their recorded outcomes, accepted-but-
    /// unfinished jobs re-queue (in id order, with a fresh deadline
    /// window), and the id counter resumes past every id ever issued. A
    /// completed job whose line logged an output digest gets its output
    /// back by re-sorting its logged input; a rebuild that misses the
    /// digest fails the recovery ([`RecoverError::OutputDigest`]).
    /// Replay is idempotent over any log prefix — recovering from a crash
    /// *during recovery* replays the same prefix plus whatever the first
    /// recovery appended, and lands in the same state. A missing log is an
    /// empty service, not an error. A torn final line is cut from the log
    /// before anything is appended ([`RecoveryReport::torn_tail`]).
    /// Like `drained`, the `recovered` line is logged only when the service
    /// holds a job or a rejection, so idle boots leave a log empty.
    pub fn recover(cfg: ServiceConfig) -> Result<(SortService, RecoveryReport), RecoverError> {
        let (audit, mut fold) = AuditLog::recover(&cfg.root_dir)?;
        let mut predicted = Vec::with_capacity(fold.jobs.len());
        for (&id, job) in &mut fold.jobs {
            if let ReplayOutcome::Completed {
                outcome,
                output_digest: Some(logged),
            } = &mut job.outcome
            {
                Arc::make_mut(outcome).output = rebuilt_output(id, &job.request, *logged)?;
            }
            predicted.push((id, job.request.predict()));
        }
        // The repair cut the torn line: the log now folds to this state.
        let torn_tail = std::mem::take(&mut fold.torn_tail);
        let mut st = State {
            fold,
            ..State::default()
        };
        // A re-queued staged job carries the fold of its durable manifests:
        // the next attempt resumes from it instead of restarting, and its
        // retry clock restarts at the manifest's.
        let now = Instant::now();
        for (id, predicted) in predicted {
            st.schedule(id, predicted, now);
        }
        let requeued = st.queue.len() as u64;
        let report = RecoveryReport {
            requeued,
            restored: st.fold.jobs.len() as u64 - requeued,
            next_id: st.fold.next_id,
            torn_tail,
        };
        if st.has_history() {
            let _ = audit.append(&AuditEvent::Recovered {
                requeued: report.requeued,
                restored: report.restored,
                next_id: report.next_id,
            });
        }
        let threads = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(st),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
            audit,
        });
        let handles = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sort-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        let workers = Mutex::new(handles);
        Ok((SortService { inner, workers }, report))
    }

    /// Admit or reject one job. Admission holds the job's predicted peak
    /// bytes against the budget until the job finishes, and — this is the
    /// WAL discipline — writes the `accepted` audit event *before* the
    /// job becomes visible to workers. If that append fails the job is not
    /// admitted ([`SubmitError::Unlogged`]).
    pub fn submit(&self, request: JobRequest) -> Result<JobId, SubmitError> {
        let predicted = request.predict();
        let need = predicted.peak_bytes();
        // Render the request (the whole inline input) before taking the
        // lock that workers and waiters share.
        let request_json = request.to_json();
        let id = {
            let mut st = self.inner.state.lock().expect("service state");
            // A killed service must refuse work: its audit log is dead, so
            // an acceptance here would be a job the log never heard of.
            if st.draining || st.killed {
                return Err(SubmitError::Draining);
            }
            expire_overdue(&self.inner, &mut st);
            if let Some(refusal) = st.refusal(&self.inner.cfg, &predicted, request.deadline_ms) {
                self.inner.log(&mut st, AuditEvent::Rejected(refusal));
                return Err(SubmitError::Rejected(refusal));
            }
            let id = st.fold.next_id;
            // WAL ordering: the accepted record must be on disk before the
            // job can run, or a crash could complete work the log never
            // heard of — so nothing is recorded or held until it is. The
            // audit lock nests inside the state lock here; that is the one
            // sanctioned nesting (state → audit).
            self.inner
                .audit
                .append_accepted(id, need, &request_json)
                .map_err(|e| SubmitError::Unlogged {
                    error: e.to_string(),
                })?;
            st.apply(AuditEvent::Accepted {
                id,
                request,
                predicted_bytes: need,
            });
            st.schedule(id, predicted, Instant::now());
            id
        };
        self.inner.work_ready.notify_one();
        Ok(id)
    }

    /// A snapshot of one job, or `None` for an unknown id. Observing a
    /// job also sweeps queue expiry, so a lapsed deadline is visible on
    /// the very next status call even on an idle service.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let snapshot = {
            let mut st = self.inner.state.lock().expect("service state");
            expire_overdue(&self.inner, &mut st);
            st.snapshot(id)
        };
        snapshot.map(rendered)
    }

    /// Block until job `id` reaches a terminal state; returns its final
    /// status (`None` for an unknown id).
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        self.wait_until(id, None).map(rendered)
    }

    /// Like [`wait`](SortService::wait), but gives up after `timeout`. On
    /// timeout the job's *current* (non-terminal) snapshot is returned —
    /// callers distinguish by [`JobState::is_terminal`].
    pub fn wait_timeout(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        self.wait_until(id, Some(Instant::now() + timeout))
            .map(rendered)
    }

    /// Like [`wait`](SortService::wait), for a caller in this process that
    /// wants the result typed: `Ok` holds a completed job's outcome, and
    /// `Err` the final status of a job that failed or expired (`None` for an
    /// unknown id). The outcome is the one the service holds, with no
    /// telemetry rendered or parsed: sorted records included when the job
    /// asked for its output, and only their count (`output_len`) when not.
    pub fn wait_outcome(&self, id: JobId) -> Option<Result<Arc<SortOutcome>, JobStatus>> {
        Some(match self.wait_until(id, None)? {
            (_, Some((outcome, _))) => Ok(outcome),
            (status, None) => Err(status),
        })
    }

    /// The one wait loop: job `id`'s snapshot once it is terminal or
    /// `deadline` passes, read under the state lock and rendered by the
    /// caller after it is released.
    fn wait_until(&self, id: JobId, deadline: Option<Instant>) -> Option<Snapshot> {
        let mut st = self.inner.state.lock().expect("service state");
        loop {
            expire_overdue(&self.inner, &mut st);
            let now = Instant::now();
            if st.fold.jobs.get(&id)?.outcome.is_terminal() || deadline.is_some_and(|d| d <= now) {
                return st.snapshot(id);
            }
            // Short bounded steps rather than one long wait: expiry has no
            // dedicated timer thread, so waiters double as the sweep.
            let step = deadline
                .map(|d| d.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(50))
                .min(Duration::from_millis(50))
                .max(Duration::from_millis(1));
            let (guard, _) = self
                .inner
                .job_done
                .wait_timeout(st, step)
                .expect("service state");
            st = guard;
        }
    }

    /// Current counters: the fold's, and this process's.
    pub fn stats(&self) -> ServiceStats {
        let mut st = self.inner.state.lock().expect("service state");
        expire_overdue(&self.inner, &mut st);
        let fold = &st.fold;
        ServiceStats {
            submitted: fold.jobs.len() as u64,
            rejected: fold.rejected,
            completed: fold.completed,
            failed: fold.failed,
            expired: fold.expired,
            retried: fold.retries,
            queued: st.queue.len() as u64,
            delayed: st.delayed.len() as u64,
            active: st.active,
            in_flight_bytes: st.in_flight_bytes,
            peak_in_flight_bytes: st.peak_in_flight_bytes,
            budget_bytes: self.inner.cfg.budget_bytes,
            in_flight_io: st.in_flight_io,
            peak_in_flight_io: st.peak_in_flight_io,
            io_budget: self.inner.cfg.io_budget,
            checkpoints: st.checkpoints,
        }
    }

    /// Admin hold: workers stop picking up queued (and parked) jobs until
    /// [`release`](SortService::release). Running jobs finish. Tests use
    /// the pair to line up a queue and observe the scheduler's order
    /// deterministically; [`drain`](SortService::drain) clears a hold so a
    /// held service still shuts down.
    pub fn hold(&self) {
        self.inner.state.lock().expect("service state").held = true;
    }

    /// Lift an admin [`hold`](SortService::hold).
    pub fn release(&self) {
        self.inner.state.lock().expect("service state").held = false;
        self.inner.work_ready.notify_all();
    }

    /// Graceful shutdown: refuse new submissions, let every admitted job
    /// finish (including parked retries), join the workers, and log the
    /// drain if the service holds a job or a rejection. Idempotent; a
    /// no-op after [`kill`](SortService::kill).
    pub fn drain(&self) {
        let logged = {
            let mut st = self.inner.state.lock().expect("service state");
            if st.killed {
                return;
            }
            st.draining = true;
            // A hold must not outlive a drain: the whole point of drain is
            // that admitted work finishes.
            st.held = false;
            self.inner.work_ready.notify_all();
            while !st.queue.is_empty() || !st.delayed.is_empty() || st.active > 0 {
                expire_overdue(&self.inner, &mut st);
                if st.killed {
                    return;
                }
                let (guard, _) = self
                    .inner
                    .job_done
                    .wait_timeout(st, Duration::from_millis(50))
                    .expect("service state");
                st = guard;
            }
            if st.drained {
                return;
            }
            st.drained = true;
            st.has_history()
        };
        self.join_workers();
        if logged {
            let _ = self.inner.audit.append(&AuditEvent::Drained);
        }
    }

    /// Simulated crash, for recovery and chaos tests: make every *later*
    /// audit write vanish (as it would have in a real crash), abandon
    /// queued and running jobs, and join the workers. The on-disk log is
    /// left exactly as a killed process would leave it;
    /// [`recover`](SortService::recover) picks up from there.
    pub fn kill(&self) {
        self.inner.audit.kill();
        {
            let mut st = self.inner.state.lock().expect("service state");
            st.killed = true;
        }
        self.inner.work_ready.notify_all();
        self.inner.job_done.notify_all();
        self.join_workers();
    }

    fn join_workers(&self) {
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker handles")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for SortService {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Expire every queued job whose deadline has lapsed. Called under the
/// state lock from every observer path and from the worker loop, so a
/// dedicated timer thread is unnecessary. Running jobs are never expired
/// — they already consumed a worker; killing them mid-sort buys nothing.
/// Only the pending jobs are walked: a job is queued exactly when it sits
/// in `st.queue` or `st.delayed`.
fn expire_overdue(inner: &Inner, st: &mut State) {
    let now = Instant::now();
    let lapsed = |id: &JobId| st.sched[id].expires_at.is_some_and(|t| t <= now);
    let overdue: Vec<JobId> = st.pending().filter(lapsed).collect();
    if overdue.is_empty() {
        return;
    }
    for id in overdue {
        inner.log(st, AuditEvent::Expired { id });
    }
    inner.job_done.notify_all();
}

/// A classified attempt failure.
struct JobFailure {
    kind: FailureKind,
    message: String,
}

/// The ETA-priority pick: the queued job with the lowest *effective*
/// cost — modeled I/O still owed (scaled by phases left, for checkpointed
/// jobs whose completed phases are already paid for) minus an aging
/// credit of [`ServiceConfig::aging_io_per_ms`] per millisecond waited.
/// Small urgent jobs jump bulk ones; the aging term guarantees every
/// job's effective cost eventually goes lowest, so nothing starves. Ties
/// break to the lower id (submission order). Returns the queue index.
fn pick_next(st: &State, cfg: &ServiceConfig, now: Instant) -> Option<usize> {
    let mut best: Option<(i128, JobId, usize)> = None;
    for (pos, &id) in st.queue.iter().enumerate() {
        let sched = &st.sched[&id];
        let io = sched.predicted.io_cost();
        let remaining = match &st.fold.jobs[&id].manifest {
            Some(m) if m.total_phases > 0 => {
                let left = m.total_phases - m.phases_done.min(m.total_phases);
                (io as u128 * left as u128 / m.total_phases as u128) as u64
            }
            _ => io,
        };
        let age_ms = now.saturating_duration_since(sched.enqueued_at).as_millis() as i128;
        let effective = remaining as i128 - age_ms * cfg.aging_io_per_ms as i128;
        if best.is_none_or(|(be, bid, _)| (effective, id) < (be, bid)) {
            best = Some((effective, id, pos));
        }
    }
    best.map(|(_, _, pos)| pos)
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let (id, request, attempt, failed_since_progress, manifest) = {
            let mut st = inner.state.lock().expect("service state");
            let id = loop {
                if st.killed {
                    return;
                }
                expire_overdue(inner, &mut st);
                let now = Instant::now();
                if !st.held {
                    if let Some(pos) = pick_next(&st, &inner.cfg, now) {
                        break st.queue.remove(pos).expect("picked index in range");
                    }
                    if let Some(i) = st.delayed.iter().position(|&(due, _)| due <= now) {
                        let (_, id) = st.delayed.swap_remove(i);
                        break id;
                    }
                }
                if st.draining && st.queue.is_empty() && st.delayed.is_empty() {
                    return;
                }
                // Sleep until the earliest reason to wake: a due retry, a
                // queued job's expiry, or (bounded) a notification.
                let expiries = st.pending().filter_map(|id| st.sched[&id].expires_at);
                let step = st
                    .delayed
                    .iter()
                    .map(|&(due, _)| due)
                    .chain(expiries)
                    .map(|t| t.saturating_duration_since(now))
                    .fold(Duration::from_millis(500), Duration::min);
                let (guard, _) = inner
                    .work_ready
                    .wait_timeout(st, step.max(Duration::from_millis(1)))
                    .expect("service state");
                st = guard;
            };
            let job = &st.fold.jobs[&id];
            let attempt = job.attempts + 1;
            // The fault-decay clock counts only attempts since the last
            // phase progress: an attempt that checkpointed a phase reset
            // the storm's schedule along with the retry clock.
            let failed_since_progress = (attempt - 1).saturating_sub(job.attempts_at_checkpoint);
            let picked = (
                id,
                Arc::clone(&job.request),
                attempt,
                failed_since_progress,
                job.manifest.clone(),
            );
            inner.log(&mut st, AuditEvent::Started { id, attempt });
            picked
        };

        // The sort runs outside the lock, fenced by catch_unwind: a
        // panicking sorter becomes a typed failure, not a dead worker.
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_job(inner, id, &request, failed_since_progress, manifest)
        }))
        .unwrap_or_else(|payload| {
            // Store paths with no `Result` channel (block appends,
            // cursor reads) unwind injected device faults as a typed
            // payload — those are transient I/O, not bugs, and retry.
            if let Some(io) = payload.downcast_ref::<em_sim::StoreIoPanic>() {
                return Err(JobFailure {
                    kind: FailureKind::Io,
                    message: format!("store I/O: {io}"),
                });
            }
            Err(JobFailure {
                kind: FailureKind::Panic,
                message: panic_message(payload.as_ref()),
            })
        });

        {
            let mut st = inner.state.lock().expect("service state");
            let max_attempts = inner.cfg.max_attempts.max(1);
            // The retry budget is per progress epoch: attempts that
            // completed a phase (this one included — the checkpointer may
            // have advanced the epoch while we ran) moved the epoch
            // forward and are not billed against `max_attempts`.
            let effective_attempts =
                attempt.saturating_sub(st.fold.jobs[&id].attempts_at_checkpoint);
            let ended = match result {
                Ok(completed) => completed,
                Err(f) if f.kind.retryable() && effective_attempts < max_attempts && !st.killed => {
                    // The budgets stay held: the job is still the
                    // service's responsibility, just parked.
                    let shift = effective_attempts.saturating_sub(1).min(20);
                    AuditEvent::Retried {
                        id,
                        attempt,
                        backoff_ms: inner
                            .cfg
                            .backoff_base_ms
                            .saturating_mul(1u64 << shift)
                            .min(inner.cfg.backoff_cap_ms),
                        error: f.message,
                    }
                }
                Err(f) => AuditEvent::Failed {
                    id,
                    kind: f.kind,
                    error: f.message,
                },
            };
            inner.log(&mut st, ended);
        }
        inner.job_done.notify_all();
        inner.work_ready.notify_all();
    }
}

/// The [`Checkpointer`] the worker hands a staged job: each delta
/// manifest is appended to the audit WAL *first* (durability), then
/// applied to the state ([`State::apply`]), which folds it into the job as
/// replay does. A failed append fails the save — and so the phase — and
/// records nothing: a manifest the WAL refused is not durable. The two
/// locks are taken strictly in sequence (audit, then state), never nested,
/// per the service's lock order.
struct ServiceCheckpointer {
    inner: Arc<Inner>,
    id: JobId,
}

impl Checkpointer for ServiceCheckpointer {
    fn save(&mut self, manifest: &CheckpointManifest) -> asym_model::Result<()> {
        let event = AuditEvent::Checkpointed {
            id: self.id,
            manifest: manifest.clone(),
        };
        self.inner
            .audit
            .append(&event)
            .map_err(|e| ModelError::Io(format!("checkpoint append: {e}")))?;
        self.inner.state.lock().expect("service state").apply(event);
        Ok(())
    }
}

/// A file-backed attempt's private directory under the service root,
/// removed when the attempt ends: completed, failed, or unwinding to the
/// worker's `catch_unwind`. The attempt's `FileStore`s live and die inside
/// the sort call, so their files are gone by then.
struct JobDir(PathBuf);

impl Drop for JobDir {
    fn drop(&mut self) {
        // Best effort, like `FileStore`'s own cleanup: a failed removal
        // must not turn an unwind into an abort.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one attempt: materialize the input (inline payload, or regenerated
/// from the named workload), point file-backed storage and
/// the fault schedule at this attempt, sort, and return the `completed`
/// event the WAL logs ([`AuditEvent::completed`]). Staged
/// (checkpointed) jobs resume from the fold of their durable manifests
/// when it still validates, and fall back to a fresh staged run otherwise.
/// A job that did not ask for its output runs [`sort::run_lean`], so its
/// sorted records are never gathered. Failures come back classified.
fn run_job(
    inner: &Arc<Inner>,
    id: JobId,
    request: &JobRequest,
    failed_since_progress: u32,
    manifest: Option<CheckpointManifest>,
) -> Result<AuditEvent, JobFailure> {
    let dir = if request.spec.backend() == Backend::File {
        let dir = inner.cfg.root_dir.join(format!("job-{id}"));
        // A transient filesystem hiccup here is as retryable as one
        // inside the sort.
        std::fs::create_dir_all(&dir).map_err(|e| JobFailure {
            kind: FailureKind::Io,
            message: format!("job dir: {e}"),
        })?;
        Some(JobDir(dir))
    } else {
        None
    };
    // Each retry decays the injected-fault schedule (`for_attempt`): the
    // storm abates while the backoff waits it out, so chaos runs
    // terminate by construction. The clock is attempts *since the last
    // checkpoint progress*, not absolute attempts — a staged job that
    // keeps finishing phases keeps its storm (and its backoff) fresh
    // rather than being billed for attempts that worked.
    let fault = request
        .spec
        .fault()
        .map(|f| f.for_attempt(failed_since_progress));
    // Wire specs may name any `file_dir`; on the server every file-backed
    // job gets a private directory under the service root.
    let spec = if dir.is_some() || fault != request.spec.fault() {
        let mut b = request.spec.to_builder().fault(fault);
        if let Some(JobDir(d)) = &dir {
            b = b.file_dir(d.clone());
        }
        b.build().map_err(|e| JobFailure {
            kind: FailureKind::Fatal,
            message: format!("respec: {e}"),
        })?
    } else {
        request.spec.clone()
    };
    // Inline payloads sort verbatim, borrowed from the shared request;
    // generator jobs regenerate server-side.
    let input = request.input_records();
    let outcome = if request.checkpoint {
        // Staged path: resume from the folded durable manifests when they
        // still match this job (the digest ignores backend/file_dir/
        // fault, so the per-attempt respec cannot orphan a manifest);
        // otherwise start a fresh staged run. Either way every completed
        // phase lands in the WAL via the service checkpointer.
        let mut sink = ServiceCheckpointer {
            inner: Arc::clone(inner),
            id,
        };
        let resume = manifest.filter(|m| m.validate(&spec, &input).is_ok());
        match resume {
            Some(m) => sort::resume_from(&spec, &input, &m, &mut sink),
            None => sort::run_staged(&spec, &input, &mut sink),
        }
    } else if request.include_output {
        sort::run(&spec, &input)
    } else {
        sort::run_lean(&spec, &input)
    }
    .map_err(|e| JobFailure {
        kind: match e {
            ModelError::Io(_) => FailureKind::Io,
            _ => FailureKind::Fatal,
        },
        message: e.to_string(),
    })?;
    Ok(AuditEvent::completed(id, outcome, request.include_output))
}

/// The output a completed job held live, rebuilt from the log: its input
/// (inline, or regenerated) sorted in RAM and checked against the digest
/// its `completed` line logged. `Record` orders by the whole
/// `(key, payload)` pair, so every correct sort of an input has this one
/// output.
fn rebuilt_output(
    id: JobId,
    request: &JobRequest,
    logged: u64,
) -> Result<Vec<Record>, RecoverError> {
    let mut output = request.input_records().into_owned();
    output.sort_unstable();
    let rebuilt = records_digest(&output);
    if rebuilt != logged {
        return Err(RecoverError::OutputDigest {
            id,
            logged,
            rebuilt,
        });
    }
    Ok(output)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: (non-string payload)".into()
    }
}

#[cfg(test)]
mod tests {
    //! The fold checker: seeded, randomized single-worker sessions that
    //! assert, after every call, that the live state is its log replayed.

    use super::*;
    use crate::audit::replay;
    use asym_core::sort::{Algorithm, SortSpec};
    use asym_model::workload::Workload;
    use em_sim::FaultSpec;
    use std::path::Path;
    use std::sync::MutexGuard;

    /// A xorshift stream: the session script, reproducible from its seed.
    struct Script(u64);

    impl Script {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    fn config(root: &Path) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(1, 1 << 22, root);
        cfg.max_attempts = 12;
        cfg.backoff_base_ms = 1;
        cfg.backoff_cap_ms = 4;
        cfg.io_per_ms = 1_000_000;
        cfg
    }

    /// One of the session's job kinds, drawn from `script`: lean, full,
    /// parallel, checkpointed, a fault storm (checkpointed or not), a
    /// certain crash, a deadline that lapses in the queue, and the two
    /// admission refusals.
    fn request(script: &mut Script) -> JobRequest {
        let kind = script.below(10);
        let storm = FaultSpec {
            seed: script.below(1 << 20),
            read_permille: 150,
            write_permille: 120,
            short_permille: 300,
            panic_permille: 0,
        };
        let (algorithm, m) = match kind {
            1 => (Algorithm::Samplesort, 64),
            2 => (Algorithm::ParSamplesort, 64),
            8 => (Algorithm::Mergesort, 1 << 22),
            _ => (Algorithm::Mergesort, 64),
        };
        let spec = SortSpec::builder(algorithm, m, 8, 16).k(2);
        let spec = match kind {
            2 => spec.lanes(2),
            4 | 5 => spec.fault(Some(storm)),
            6 => spec.fault(Some(FaultSpec {
                panic_permille: 1_000,
                ..FaultSpec::new(storm.seed)
            })),
            _ => spec,
        };
        let records = 200 + script.below(600) as usize;
        let input = Workload::Zipf.generate(records, script.below(1 << 20));
        let mut request = JobRequest::inline(spec.build().expect("valid spec"), input);
        request.include_output = kind == 1;
        request.checkpoint = kind == 3 || kind == 5;
        request.deadline_ms = match kind {
            7 => Some(1),
            9 => {
                request.records = 20_000_000;
                request.input = None;
                Some(1)
            }
            _ => None,
        };
        request
    }

    /// Wait until no attempt runs. Under a hold, nothing starts, so the
    /// returned lock sees a log every transition has reached.
    fn quiet(service: &SortService) -> MutexGuard<'_, State> {
        loop {
            let st = service.inner.state.lock().expect("service state");
            if st.active == 0 {
                return st;
            }
            drop(st);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The live state is its log, replayed: the fold equals the log's, once
    /// each completed outcome's records are checked against the digest
    /// its line logged and stripped (a replayed outcome holds only the
    /// digest); and the scheduling holds exactly the fold's pending jobs,
    /// with their predictions in flight.
    fn assert_is_its_log(service: &SortService, root: &Path, step: &str) {
        let st = quiet(service);
        let text = std::fs::read_to_string(root.join("audit.jsonl")).unwrap_or_default();
        let logged = replay(&text).expect("the log replays");
        let mut live = st.fold.clone();
        for (id, job) in &mut live.jobs {
            if let ReplayOutcome::Completed {
                outcome,
                output_digest,
            } = &mut job.outcome
            {
                if let Some(digest) = output_digest {
                    let held = records_digest(&outcome.output);
                    assert_eq!(held, *digest, "{step}: job {id}'s records");
                }
                Arc::make_mut(outcome).output = Vec::new();
            }
        }
        assert_eq!(live, logged, "{step}: the live fold is not the log's");

        let mut scheduled: Vec<JobId> = st.pending().collect();
        scheduled.sort_unstable();
        let pending: Vec<JobId> = st.fold.pending().collect();
        assert_eq!(
            scheduled, pending,
            "{step}: the queue is not the pending jobs"
        );
        let held = pending.iter().fold((0, 0), |(bytes, io), id| {
            let p = st.sched[id].predicted;
            (bytes + p.peak_bytes(), io + p.io_cost())
        });
        assert_eq!(
            (st.in_flight_bytes, st.in_flight_io),
            held,
            "{step}: the budgets do not hold the pending jobs"
        );
    }

    fn session(seed: u64) {
        let root =
            std::env::temp_dir().join(format!("asym-fold-check-{}-{seed:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut script = Script(seed);
        let mut service = SortService::start(config(&root)).expect("start");
        service.hold();
        for call in 0..40 {
            let step = format!("seed {seed:#x}, call {call}");
            match script.below(8) {
                0..=3 => {
                    let _ = service.submit(request(&mut script));
                }
                4 => {
                    let id = script.below(service.stats().submitted + 1);
                    let _ = service.status(id);
                }
                5 | 6 => {
                    // Let the worker run for a while, then hold it again.
                    service.release();
                    std::thread::sleep(Duration::from_millis(script.below(6)));
                    service.hold();
                }
                _ => {
                    // A crash, held or mid-attempt; the log's fold boots.
                    if script.below(2) == 0 {
                        service.release();
                        std::thread::sleep(Duration::from_millis(script.below(4)));
                    }
                    service.kill();
                    service = SortService::start(config(&root)).expect("recover");
                    service.hold();
                }
            }
            assert_is_its_log(&service, &root, &step);
        }
        service.drain();
        assert_is_its_log(&service, &root, &format!("seed {seed:#x}, drained"));
        let stats = service.stats();
        assert_eq!((stats.queued, stats.delayed, stats.active), (0, 0, 0));
        drop(service);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn the_live_state_is_its_log_replayed() {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("sort-worker"));
            if !worker {
                default_hook(info);
            }
        }));
        for seed in [0x5EED_0001, 0xF01D_2002, 0xC0DE_3003, 0xBEEF_4004] {
            session(seed);
        }
    }
}
