//! Sort-as-a-service: the paper's cost model as an admission controller.
//!
//! The SPAA 2015 cost model prices a sort before it runs — reads, ω-weighted
//! writes, and a *hard* peak-memory bound, all computable from the job
//! description alone ([`SortSpec::predict`]). This crate turns that into a
//! multi-tenant job server: [`SortService`] runs submitted
//! [`JobRequest`]s on a fixed worker pool and admits them against a
//! predicted-peak-memory budget, so an over-committed machine is refused at
//! submission time ([`Refusal::Budget`]) instead of discovered by
//! thrashing at run time. [`http::serve`] puts a dependency-free HTTP/1.1
//! front door on it, speaking the [`asym_core::sort::wire`] JSON formats,
//! and [`client`] is the one client every caller uses to reach it.
//!
//! The service is built to survive its process: the audit log is a
//! versioned write-ahead log ([`AuditEvent`], [`replay`]), and every boot
//! ([`SortService::start`], or [`SortService::recover`] for the report)
//! replays it, re-queueing unfinished jobs, restoring finished ones and
//! resuming the id counter, so a used root never reissues an id. A
//! session that changed nothing writes nothing to the log. A completed
//! job's outcome stays typed inside the service: JSON is rendered only
//! when a status crosses the wire, and a caller in the same process takes
//! the typed outcome ([`SortService::wait_outcome`]). Transient I/O
//! failures retry with bounded exponential backoff, panicking sorters are
//! caught per-attempt, and deadlines are enforced both at admission
//! (modeled ETA) and by queue expiry. The
//! `em_sim::FaultStore` fault injector plugs into job specs so all of it
//! is testable under a seeded storm (`tests/chaos.rs`).
//!
//! Long jobs can opt into *checkpointed* execution
//! ([`JobRequest::checkpoint`]): the sort runs as a staged sequence of
//! phases, every completed phase but the last lands in the WAL as a
//! `checkpointed` delta manifest (the runs that phase produced; the last
//! phase's would copy the output), and a crashed, killed, or retried
//! attempt resumes from the fold of its deltas instead of restarting —
//! recovery re-queues unfinished jobs *with* their folded
//! manifests, and the retry/backoff/fault-decay clocks
//! key off attempts-since-last-progress so work that checkpointed is
//! never re-billed. The queue itself is ETA-priority ordered (smallest
//! predicted remaining I/O first, with an aging credit so bulk jobs
//! cannot starve), and admission budgets both predicted peak bytes and
//! predicted I/O cost ([`Refusal::Io`]).
//!
//! ```
//! use asym_core::sort::{Algorithm, SortSpec};
//! use asym_model::workload::Workload;
//! use asym_serve::{JobRequest, ServiceConfig, SortService};
//!
//! let dir = std::env::temp_dir().join(format!("asym-serve-doc-{}", std::process::id()));
//! let service = SortService::start(ServiceConfig::new(2, 1 << 20, dir.clone())).expect("start");
//! let id = service
//!     .submit(JobRequest {
//!         spec: SortSpec::builder(Algorithm::Mergesort, 64, 8, 16).build().unwrap(),
//!         workload: Workload::UniformRandom,
//!         records: 10_000,
//!         data_seed: 42,
//!         input: None,
//!         include_output: false,
//!         deadline_ms: None,
//!         checkpoint: false,
//!     })
//!     .expect("within budget");
//! let done = service.wait(id).expect("known job");
//! assert_eq!(done.state, asym_serve::JobState::Completed);
//! service.drain();
//! std::fs::remove_dir_all(&dir).expect("remove the service root");
//! ```
//!
//! [`SortSpec::predict`]: asym_core::sort::SortSpec::predict
//! [`SortSpec`]: asym_core::sort::SortSpec

mod audit;
pub mod client;
pub mod http;
mod job;
mod service;

pub use audit::{replay, AuditError, AuditEvent, Replay, ReplayJob, ReplayOutcome, SCHEMA_VERSION};
pub use http::{serve, ServerHandle};
pub use job::{FailureKind, JobId, JobRequest, JobState, JobStatus};
pub use service::{
    RecoverError, RecoveryReport, Refusal, ServiceConfig, ServiceStats, SortService, SubmitError,
};
