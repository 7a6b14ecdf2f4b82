//! How a compaction becomes a sort job: the engine hands a
//! [`JobRequest`] to `asym-serve`, waits for the job to end, and gets its
//! [`SortOutcome`] back typed.
//!
//! Two transports share one contract:
//!
//! - [`CompactionService::Local`] — an embedded [`SortService`] (the
//!   default: `AsymKv::new` starts one on a temp root it removes again
//!   when the engine drops; no sockets, deterministic, still
//!   admission-controlled). [`SortService::wait_outcome`] hands over the
//!   outcome the service holds: no JSON is rendered or parsed for it.
//! - [`CompactionService::http`] — `POST /jobs` + long-poll
//!   `GET /jobs/<id>/wait` through [`asym_serve::client`], for an engine
//!   pointed at a remote sort server (see `asym_serve::serve`). The
//!   outcome is decoded once, from the parsed reply
//!   ([`client::wait_outcome`]).
//!
//! Either way every compaction is priced by `JobRequest::predict()` at
//! admission, and a refusal surfaces as [`KvError::Rejected`] carrying the
//! service's own typed [`SubmitError`](asym_serve::SubmitError) — decoded
//! from the response body over HTTP — so both transports report the same
//! budget axis and both sides of the comparison.

use crate::KvError;
use asym_core::sort::SortOutcome;
use asym_serve::client::{self, ClientError};
use asym_serve::{JobId, JobRequest, JobStatus, ServiceConfig, SortService};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where compaction jobs run.
pub enum CompactionService {
    /// An embedded [`SortService`] owned by the engine.
    Local(SortService),
    /// A remote HTTP front door ([`asym_serve::serve`]).
    Http(SocketAddr),
}

/// One finished compaction job: its id and outcome.
pub struct JobResult {
    /// The service-assigned job id.
    pub id: JobId,
    /// The sorted output plus the job's measured `EmStats`, shared with
    /// the embedded service that ran it.
    pub outcome: Arc<SortOutcome>,
}

static SERVICE_DIRS: AtomicU64 = AtomicU64::new(0);

impl CompactionService {
    /// Start an embedded single-worker service with the given admission
    /// budget, on a fresh temp root that the returned [`ServiceRoot`]
    /// removes. One worker keeps compactions strictly ordered, so modeled
    /// totals are reproducible run to run.
    pub(crate) fn in_process(
        budget_bytes: u64,
    ) -> Result<(CompactionService, ServiceRoot), KvError> {
        let root = ServiceRoot::create()?;
        let service = SortService::start(ServiceConfig::new(1, budget_bytes, &root.0))
            .map_err(|e| KvError::Service(format!("start service: {e}")))?;
        Ok((CompactionService::Local(service), root))
    }

    /// Point compactions at a running sort server.
    pub fn http(addr: SocketAddr) -> CompactionService {
        CompactionService::Http(addr)
    }

    /// Stable transport name (for tables and logs).
    pub fn name(&self) -> &'static str {
        match self {
            CompactionService::Local(_) => "in-process",
            CompactionService::Http(_) => "http",
        }
    }

    /// Submit one job and block until it is terminal. `Completed` yields
    /// the outcome; every other terminal state is an error.
    pub fn submit_and_wait(&self, request: JobRequest) -> Result<JobResult, KvError> {
        match self {
            CompactionService::Local(service) => {
                let id = service.submit(request).map_err(KvError::Rejected)?;
                let outcome = service
                    .wait_outcome(id)
                    .ok_or_else(|| KvError::Service(format!("job {id} vanished")))?
                    .map_err(|status| not_completed(&status))?;
                Ok(JobResult { id, outcome })
            }
            CompactionService::Http(addr) => {
                let id = client::submit(*addr, &request).map_err(client_error)?;
                loop {
                    match client::wait_outcome(*addr, id).map_err(client_error)? {
                        Ok(outcome) => {
                            let outcome = Arc::new(outcome);
                            return Ok(JobResult { id, outcome });
                        }
                        Err(status) if status.state.is_terminal() => {
                            return Err(not_completed(&status))
                        }
                        Err(_) => {}
                    }
                }
            }
        }
    }
}

impl Drop for CompactionService {
    fn drop(&mut self) {
        if let CompactionService::Local(service) = self {
            service.drain();
        }
    }
}

/// The root directory of an embedded service this crate started itself,
/// removed on drop. Its owner must drop it after the service, so the
/// service has drained and joined its workers first. A service handed in
/// by a caller keeps its root: the caller may still read its audit log.
pub(crate) struct ServiceRoot(PathBuf);

impl ServiceRoot {
    /// A fresh, collision-free temp directory for an embedded service's
    /// audit log and per-job file storage.
    fn create() -> Result<ServiceRoot, KvError> {
        let dir = std::env::temp_dir().join(format!(
            "asym-kv-svc-{}-{}",
            std::process::id(),
            SERVICE_DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| KvError::Service(format!("service dir: {e}")))?;
        Ok(ServiceRoot(dir))
    }
}

impl Drop for ServiceRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn client_error(e: ClientError) -> KvError {
    match e {
        ClientError::Refused(e) => KvError::Rejected(e),
        other => KvError::Service(other.to_string()),
    }
}

/// The error for a job that ended without completing.
fn not_completed(status: &JobStatus) -> KvError {
    KvError::Service(format!(
        "compaction job {} ended {}: {}",
        status.id,
        status.state.name(),
        status.error.as_deref().unwrap_or("no error recorded")
    ))
}
