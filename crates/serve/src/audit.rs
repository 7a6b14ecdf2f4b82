//! The audit log as a write-ahead log: versioned lifecycle events and the
//! pure replay that [`SortService::recover`](crate::SortService::recover)
//! rebuilds its state from.
//!
//! Every line of `audit.jsonl` is one [`AuditEvent`], rendered with a
//! schema version (`"v"`) first. The event set is chosen so the log is
//! *sufficient* to restart the service: `accepted` embeds the full
//! [`JobRequest`] (the service can re-run the job), `completed` carries
//! the job's [`SortOutcome`], rendered lean (counts, ω, `output_len`, any
//! `parallel` block) plus, for a job that asked for its output, a digest
//! of the sorted records in place of the records, and every terminal
//! event names its job. A sort's output is a function of its input alone
//! (`Record` orders by the whole `(key, payload)` pair), so recovery
//! rebuilds the output from the `accepted` request, checks it against the
//! digest and puts it into the decoded outcome; the log never holds the
//! records a second time in `completed`. The events are typed both ways:
//! a line decodes to the values it was rendered from, and re-renders byte
//! for byte. [`replay`] folds any prefix of a log into a [`Replay`]:
//!
//! * terminal outcomes win and never un-terminalize, so replaying a longer
//!   prefix only ever *adds* information — the monotonicity property
//!   `tests/recovery.rs` pins;
//! * a torn final line (the crash happened mid-`write`) is tolerated and
//!   flagged, torn interior lines are typed errors — an interior
//!   `checkpointed` line whose manifest does not decode, or `completed`
//!   line whose outcome does not, included;
//! * an unknown schema version anywhere is a typed
//!   [`AuditError::UnknownVersion`] — forward-compat for consumers that
//!   must not misread a future log as an empty one. Schema v2 is the first
//!   whose `completed` lines may omit the output, so a v1 build refuses a
//!   v2 log instead of restoring empty outputs; this build replays both.
//!
//! [`Replay`] is also the durable half of the live service's state: every
//! event the service logs, it then applies through the same
//! `Replay::apply` that [`replay`] folds a log with. So the live jobs, the
//! id counter and the lifetime counters are the log's fold by
//! construction, and the advance-only checkpoint rule and the
//! first-terminal-wins rule each live in one place.
//!
//! The crate-private `AuditLog` owns the file: it opens, appends to,
//! repairs (cutting a torn tail in place) and kills `audit.jsonl`. Appends
//! are written, not synced: they survive a killed process, not a power cut.

use crate::job::{FailureKind, JobId, JobRequest};
use crate::service::{RecoverError, Refusal};
use asym_core::sort::wire::records_digest;
use asym_core::sort::{CheckpointManifest, SortOutcome};
use asym_model::json::{self, Json, JsonObj};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The audit schema this build writes. It replays every version from 1 up
/// to this one.
pub const SCHEMA_VERSION: u64 = 2;

/// Why an audit line (or log) failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// The line declares a schema version this build does not speak.
    UnknownVersion(u64),
    /// The line is not JSON, or not a well-formed event.
    Malformed(String),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::UnknownVersion(v) => {
                write!(
                    f,
                    "audit schema v{v} is not supported (this build speaks v1 to v{SCHEMA_VERSION})"
                )
            }
            AuditError::Malformed(m) => write!(f, "malformed audit line: {m}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// One line of the audit log.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditEvent {
    /// Admission: the job is now the service's responsibility. Carries the
    /// whole request so recovery can re-run it.
    Accepted {
        /// The assigned id.
        id: JobId,
        /// The full request, embedded verbatim.
        request: JobRequest,
        /// The admission-time [`peak_bytes`](asym_core::sort::CostEstimate::peak_bytes).
        predicted_bytes: u64,
    },
    /// Turned away by admission control. Not a job; replay only counts it.
    Rejected(Refusal),
    /// A worker began attempt `attempt` (1-based).
    Started {
        /// The job.
        id: JobId,
        /// Which attempt this is.
        attempt: u32,
    },
    /// A staged job completed a phase; the manifest is durable the moment
    /// this line is. The manifest is a delta (the runs that phase
    /// produced); recovery folds a job's deltas and hands the fold back to
    /// the re-queued job so a restarted worker resumes instead of
    /// restarting.
    ///
    /// The line also writes the manifest's `phases_done` as `"phase"`; the
    /// decoder refuses a line where the two disagree.
    Checkpointed {
        /// The job.
        id: JobId,
        /// The manifest, embedded as [`CheckpointManifest::to_json`].
        manifest: CheckpointManifest,
    },
    /// A retryable failure; the job re-queued with backoff.
    Retried {
        /// The job.
        id: JobId,
        /// The attempt that failed.
        attempt: u32,
        /// How long the job waits before the next attempt.
        backoff_ms: u64,
        /// The failure message.
        error: String,
    },
    /// Terminal success. Carries the outcome so a recovered service still
    /// serves the result; see [`AuditEvent::completed`] for what the
    /// service logs.
    Completed {
        /// The job.
        id: JobId,
        /// The job's outcome, embedded as [`SortOutcome::to_json`]: lean,
        /// unless it holds records and the line has no digest (a v1 line
        /// embedded the output of a job that asked for it).
        outcome: Arc<SortOutcome>,
        /// [`records_digest`] of the sorted output of a job that asked for
        /// it, logged in place of the records. `None`: a lean job, or a v1
        /// line that embedded the output.
        output_digest: Option<u64>,
    },
    /// Terminal failure (fatal kind, or the attempt budget is spent).
    Failed {
        /// The job.
        id: JobId,
        /// The classification.
        kind: FailureKind,
        /// The failure message.
        error: String,
    },
    /// Terminal expiry: the deadline lapsed while the job was queued.
    Expired {
        /// The job.
        id: JobId,
    },
    /// A graceful drain completed.
    Drained,
    /// A recovery replayed this log (informational; replay ignores it).
    Recovered {
        /// Jobs re-queued (accepted but not terminal in the log).
        requeued: u64,
        /// Terminal jobs restored with their results.
        restored: u64,
        /// Where the id counter resumed.
        next_id: JobId,
    },
}

impl AuditEvent {
    /// The `completed` event the service logs for `outcome`: the outcome,
    /// plus the output's [`records_digest`] when the job asked for its
    /// output. A job that did not ask keeps no records: the output a staged
    /// run gathers is dropped here. Either way the line renders the outcome
    /// lean; recovery re-sorts the job's logged input and checks it against
    /// the digest.
    pub fn completed(id: JobId, mut outcome: SortOutcome, include_output: bool) -> AuditEvent {
        if !include_output {
            outcome.output = Vec::new();
        }
        AuditEvent::Completed {
            id,
            output_digest: include_output.then(|| records_digest(&outcome.output)),
            outcome: Arc::new(outcome),
        }
    }

    /// The `accepted` line around a request rendered by
    /// [`JobRequest::to_json`]: the text before the request and the text
    /// after it, so that the line is `before + request + after`, exactly
    /// what [`AuditEvent::to_json`] renders for [`AuditEvent::Accepted`].
    /// The service renders the (possibly large) request before it takes its
    /// state lock, and only this short frame is built under it.
    fn accepted_frame(id: JobId, predicted_bytes: u64) -> (String, &'static str) {
        const CLOSE: &str = " }";
        let mut o = JsonObj::new();
        o.u64("v", SCHEMA_VERSION)
            .str("event", "accepted")
            .u64("id", id)
            .u64("predicted_bytes", predicted_bytes)
            .raw("request", "");
        let mut before = o.finish();
        debug_assert!(before.ends_with(CLOSE), "an object closes with {CLOSE:?}");
        before.truncate(before.len() - CLOSE.len());
        (before, CLOSE)
    }

    /// Stable wire name of the event.
    pub fn name(&self) -> &'static str {
        match self {
            AuditEvent::Accepted { .. } => "accepted",
            AuditEvent::Rejected(_) => "rejected",
            AuditEvent::Started { .. } => "started",
            AuditEvent::Checkpointed { .. } => "checkpointed",
            AuditEvent::Retried { .. } => "retried",
            AuditEvent::Completed { .. } => "completed",
            AuditEvent::Failed { .. } => "failed",
            AuditEvent::Expired { .. } => "expired",
            AuditEvent::Drained => "drained",
            AuditEvent::Recovered { .. } => "recovered",
        }
    }

    /// Render as one JSON line (no trailing newline), version first.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("v", SCHEMA_VERSION).str("event", self.name());
        match self {
            AuditEvent::Accepted {
                id,
                request,
                predicted_bytes,
            } => {
                let (before, after) = AuditEvent::accepted_frame(*id, *predicted_bytes);
                return before + &request.to_json() + after;
            }
            AuditEvent::Rejected(refusal) => {
                o.str(
                    "reason",
                    match refusal {
                        Refusal::Budget { .. } => "budget",
                        Refusal::Io { .. } => "io_budget",
                        Refusal::Deadline { .. } => "deadline",
                    },
                );
                refusal.write_fields(&mut o);
            }
            AuditEvent::Started { id, attempt } => {
                o.u64("id", *id).u64("attempt", *attempt as u64);
            }
            AuditEvent::Checkpointed { id, manifest } => {
                o.u64("id", *id)
                    .u64("phase", manifest.phases_done)
                    .raw("manifest", &manifest.to_json());
            }
            AuditEvent::Retried {
                id,
                attempt,
                backoff_ms,
                error,
            } => {
                o.u64("id", *id)
                    .u64("attempt", *attempt as u64)
                    .u64("backoff_ms", *backoff_ms)
                    .str("error", error);
            }
            AuditEvent::Completed {
                id,
                outcome,
                output_digest,
            } => {
                o.u64("id", *id);
                if let Some(d) = output_digest {
                    o.u64("output_digest", *d);
                }
                let embedded = output_digest.is_none() && !outcome.output.is_empty();
                o.raw("outcome", &outcome.to_json(embedded));
            }
            AuditEvent::Failed { id, kind, error } => {
                o.u64("id", *id)
                    .str("kind", kind.name())
                    .str("error", error);
            }
            AuditEvent::Expired { id } => {
                o.u64("id", *id);
            }
            AuditEvent::Drained => {}
            AuditEvent::Recovered {
                requeued,
                restored,
                next_id,
            } => {
                o.u64("requeued", *requeued)
                    .u64("restored", *restored)
                    .u64("next_id", *next_id);
            }
        }
        o.finish()
    }

    /// Decode one line of any schema version from 1 to [`SCHEMA_VERSION`].
    /// Other versions are [`AuditError::UnknownVersion`]; everything else
    /// unexpected is [`AuditError::Malformed`].
    pub fn from_json(line: &str) -> Result<AuditEvent, AuditError> {
        let bad = |m: String| AuditError::Malformed(m);
        let v = Json::parse(line).map_err(bad)?;
        let obj = v
            .as_obj()
            .ok_or_else(|| bad("event must be a JSON object".into()))?;
        let version = json::get_u64(obj, "v")
            .ok_or_else(|| bad("missing schema version field \"v\"".into()))?;
        if !(1..=SCHEMA_VERSION).contains(&version) {
            return Err(AuditError::UnknownVersion(version));
        }
        let event = json::get_str(obj, "event")
            .ok_or_else(|| bad("missing string field \"event\"".into()))?;
        let id =
            || json::get_u64(obj, "id").ok_or_else(|| bad(format!("{event} event missing \"id\"")));
        let attempt = || {
            json::get_u64(obj, "attempt")
                .map(|a| a as u32)
                .ok_or_else(|| bad(format!("{event} event missing \"attempt\"")))
        };
        match event.as_str() {
            "accepted" => {
                let rv = json::find(obj, "request")
                    .ok_or_else(|| bad("accepted event missing \"request\"".into()))?;
                let request = JobRequest::from_json_value(rv)
                    .map_err(|e| bad(format!("embedded request: {e}")))?;
                Ok(AuditEvent::Accepted {
                    id: id()?,
                    request,
                    predicted_bytes: json::get_u64(obj, "predicted_bytes").unwrap_or(0),
                })
            }
            "rejected" => {
                let reason = json::get_str(obj, "reason").unwrap_or_else(|| "budget".into());
                let num = |key| json::get_u64(obj, key).unwrap_or(0);
                let refusal = match reason.as_str() {
                    "budget" => Refusal::Budget {
                        predicted: num("predicted"),
                        available: num("available"),
                    },
                    "io_budget" => Refusal::Io {
                        predicted: num("predicted"),
                        available: num("available"),
                    },
                    "deadline" => Refusal::Deadline {
                        eta_ms: num("eta_ms"),
                        deadline_ms: num("deadline_ms"),
                    },
                    other => return Err(bad(format!("unknown rejection reason {other:?}"))),
                };
                Ok(AuditEvent::Rejected(refusal))
            }
            "started" => Ok(AuditEvent::Started {
                id: id()?,
                attempt: attempt()?,
            }),
            "checkpointed" => {
                let mv = json::find(obj, "manifest")
                    .ok_or_else(|| bad("checkpointed event missing \"manifest\"".into()))?;
                let manifest = CheckpointManifest::from_json_value(mv)
                    .map_err(|e| bad(format!("embedded manifest: {e}")))?;
                let phase = json::get_u64(obj, "phase")
                    .ok_or_else(|| bad("checkpointed event missing \"phase\"".into()))?;
                if phase != manifest.phases_done {
                    return Err(bad(format!(
                        "checkpointed phase {phase} disagrees with the manifest's phases_done {}",
                        manifest.phases_done
                    )));
                }
                Ok(AuditEvent::Checkpointed {
                    id: id()?,
                    manifest,
                })
            }
            "retried" => Ok(AuditEvent::Retried {
                id: id()?,
                attempt: attempt()?,
                backoff_ms: json::get_u64(obj, "backoff_ms").unwrap_or(0),
                error: json::get_str(obj, "error").unwrap_or_default(),
            }),
            "completed" => {
                let ov = json::find(obj, "outcome")
                    .ok_or_else(|| bad("completed event missing \"outcome\"".into()))?;
                let outcome = SortOutcome::from_json_value(ov)
                    .map_err(|e| bad(format!("embedded outcome: {e}")))?;
                Ok(AuditEvent::Completed {
                    id: id()?,
                    outcome: Arc::new(outcome),
                    output_digest: json::get_u64(obj, "output_digest"),
                })
            }
            "failed" => {
                let name = json::get_str(obj, "kind")
                    .ok_or_else(|| bad("failed event missing \"kind\"".into()))?;
                let kind = FailureKind::parse(&name)
                    .ok_or_else(|| bad(format!("unknown failure kind {name:?}")))?;
                Ok(AuditEvent::Failed {
                    id: id()?,
                    kind,
                    error: json::get_str(obj, "error").unwrap_or_default(),
                })
            }
            "expired" => Ok(AuditEvent::Expired { id: id()? }),
            "drained" => Ok(AuditEvent::Drained),
            "recovered" => Ok(AuditEvent::Recovered {
                requeued: json::get_u64(obj, "requeued").unwrap_or(0),
                restored: json::get_u64(obj, "restored").unwrap_or(0),
                next_id: json::get_u64(obj, "next_id").unwrap_or(0),
            }),
            other => Err(bad(format!("unknown event {other:?}"))),
        }
    }
}

/// A job's fate as read off a log prefix.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayOutcome {
    /// Accepted, no terminal event yet: recovery must re-queue it.
    Pending,
    /// Done; the outcome is the result.
    Completed {
        /// The outcome the `completed` line carried. Its `output_len` is
        /// the accepted request's record count when the line held no
        /// records.
        outcome: Arc<SortOutcome>,
        /// Set when the line logged this digest in place of the output:
        /// [`SortService::recover`](crate::SortService::recover) rebuilds
        /// the output, checks it against the digest, and puts it into
        /// `outcome`, so a recovered job holds what the live one did.
        output_digest: Option<u64>,
    },
    /// Terminally failed.
    Failed {
        /// The classification.
        kind: FailureKind,
        /// The failure message.
        error: String,
    },
    /// Expired before running.
    Expired,
}

impl ReplayOutcome {
    /// Whether this fate is final.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, ReplayOutcome::Pending)
    }
}

/// One job reconstructed from the log. The live service holds its jobs as
/// these records too, in its own [`Replay`], and only the fold that
/// [`replay`] runs changes one.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayJob {
    /// The embedded request, ready to re-run. Shared, so that a worker
    /// takes it from the service's state without copying its inline input.
    pub request: Arc<JobRequest>,
    /// Attempts already consumed (max attempt number seen).
    pub attempts: u32,
    /// The job's fate so far.
    pub outcome: ReplayOutcome,
    /// The fold of the job's delta manifests
    /// ([`CheckpointManifest::fold`]), if the job made phase progress
    /// before the log ended: a full snapshot of its latest good phase. A
    /// re-queued job resumes from it instead of restarting. A terminal job
    /// never resumes, so its manifest keeps only the phase count and stats:
    /// its `runs` are dropped.
    pub manifest: Option<CheckpointManifest>,
    /// The attempt count at the moment of the last phase progress — the
    /// retry clock's epoch: backoff and fault decay key off
    /// `attempts − attempts_at_checkpoint`, so attempts that *made*
    /// progress are never re-billed.
    pub attempts_at_checkpoint: u32,
}

impl ReplayJob {
    /// Completed phases: the manifest's `phases_done` (0: no manifest).
    pub fn checkpoint_phase(&self) -> u64 {
        self.manifest.as_ref().map_or(0, |m| m.phases_done)
    }
}

/// The fold of a log prefix: everything a restarted service needs, and the
/// durable half of a running service's state, which folds in every event
/// it logs exactly as [`replay`] does. The counters count as events are
/// folded, so none of them walks the jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Every accepted job, by id (BTreeMap: re-queue in id order).
    pub jobs: BTreeMap<JobId, ReplayJob>,
    /// Where the id counter must resume (max accepted id + 1).
    pub next_id: JobId,
    /// Rejections seen (every reason).
    pub rejected: u64,
    /// Retry events seen.
    pub retries: u64,
    /// Jobs completed: the first terminal event of each is counted.
    pub completed: u64,
    /// Jobs failed terminally.
    pub failed: u64,
    /// Jobs expired in the queue.
    pub expired: u64,
    /// The final line was unparsable — a crash tore it mid-write. The
    /// prefix before it replayed fine.
    pub torn_tail: bool,
}

impl Replay {
    /// Ids that must be re-queued, in submission order.
    pub fn pending(&self) -> impl Iterator<Item = JobId> + '_ {
        self.jobs
            .iter()
            .filter(|(_, j)| !j.outcome.is_terminal())
            .map(|(&id, _)| id)
    }

    /// Fold one event into the jobs and the counters.
    pub(crate) fn apply(&mut self, ev: AuditEvent) {
        match ev {
            AuditEvent::Accepted { id, request, .. } => {
                self.next_id = self.next_id.max(id + 1);
                // First acceptance wins: replaying a duplicated line (or a
                // prefix twice) cannot double a job.
                self.jobs.entry(id).or_insert_with(|| ReplayJob {
                    request: Arc::new(request),
                    attempts: 0,
                    outcome: ReplayOutcome::Pending,
                    manifest: None,
                    attempts_at_checkpoint: 0,
                });
            }
            AuditEvent::Rejected(_) => {
                self.rejected += 1;
            }
            // The attempt count only grows, so a replayed or duplicated
            // line cannot lower it.
            AuditEvent::Started { id, attempt } | AuditEvent::Retried { id, attempt, .. } => {
                self.retries += u64::from(matches!(ev, AuditEvent::Retried { .. }));
                if let Some(j) = self.jobs.get_mut(&id) {
                    j.attempts = j.attempts.max(attempt);
                }
            }
            // Progress only moves forward (the fold ignores a stale,
            // duplicate or gapped delta), and a manifest arriving after the
            // job's terminal outcome is stale noise (a torn race the WAL
            // ordering makes possible only across replays). Advancing moves
            // the retry clock's epoch to the current attempt.
            AuditEvent::Checkpointed { id, manifest } => {
                if let Some(j) = self.jobs.get_mut(&id) {
                    if !j.outcome.is_terminal()
                        && CheckpointManifest::fold(&mut j.manifest, manifest)
                    {
                        j.attempts_at_checkpoint = j.attempts;
                    }
                }
            }
            AuditEvent::Completed {
                id,
                outcome,
                output_digest,
            } => {
                let completed = ReplayOutcome::Completed {
                    outcome,
                    output_digest,
                };
                self.completed += u64::from(self.terminalize(id, completed));
            }
            AuditEvent::Failed { id, kind, error } => {
                let failed = ReplayOutcome::Failed { kind, error };
                self.failed += u64::from(self.terminalize(id, failed));
            }
            AuditEvent::Expired { id } => {
                self.expired += u64::from(self.terminalize(id, ReplayOutcome::Expired));
            }
            AuditEvent::Drained | AuditEvent::Recovered { .. } => {}
        }
    }

    /// Terminal outcomes stick: the first one recorded for a job wins, so
    /// replay is idempotent and monotonic over prefixes. The manifest's
    /// records go with it (up to all `n` of them, held for as long as the
    /// job is retained); its phase count stays, so progress never reads
    /// lower. Returns whether `outcome` was recorded, to be counted.
    fn terminalize(&mut self, id: JobId, mut outcome: ReplayOutcome) -> bool {
        let Some(j) = self.jobs.get_mut(&id).filter(|j| !j.outcome.is_terminal()) else {
            return false;
        };
        // A sort keeps every record. A lean line logged before `output_len`
        // was decodes a count of 0.
        if let ReplayOutcome::Completed { outcome, .. } = &mut outcome {
            if outcome.output.is_empty() {
                Arc::make_mut(outcome).output_len = j.request.record_count();
            }
        }
        j.outcome = outcome;
        if let Some(m) = &mut j.manifest {
            m.runs = Vec::new();
        }
        true
    }
}

/// Fold a log (or any prefix of one, including byte prefixes that tear the
/// final line) into a [`Replay`].
pub fn replay(text: &str) -> Result<Replay, AuditError> {
    let mut r = Replay::default();
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match AuditEvent::from_json(line) {
            Ok(ev) => r.apply(ev),
            Err(AuditError::Malformed(_)) if i + 1 == lines.len() => {
                r.torn_tail = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(r)
}

/// `audit.jsonl` in a service root, as the service writes it. Each append
/// is one line and its newline, written whole under the log's lock, so
/// lines never interleave and a crash cannot leave a whole line without
/// its terminator. After [`AuditLog::kill`] appends vanish and succeed, as
/// they would have after the real process died.
pub(crate) struct AuditLog(Mutex<Option<File>>);

impl AuditLog {
    /// Open (or create) the log in `root`, and `root` itself, to append;
    /// [`replay`] it, and repair its tail in place so the next append
    /// starts a line of its own: a torn final line is cut at its first
    /// byte, and a whole final line missing its newline gets one. Nothing
    /// before the tail is rewritten, so a crash mid-repair leaves the log
    /// as it was or repaired. The log need not be a regular file (a device
    /// may read forever, and a held read end keeps a pipe writable), so it
    /// is read through a short-lived read-only handle, and only for the
    /// bytes its length reports.
    pub(crate) fn recover(root: &Path) -> Result<(AuditLog, Replay), RecoverError> {
        std::fs::create_dir_all(root)?;
        let path = root.join("audit.jsonl");
        let mut file = OpenOptions::new().append(true).create(true).open(&path)?;
        let len = file.metadata()?.len();
        let mut text = String::new();
        if len > 0 {
            File::open(&path)?.take(len).read_to_string(&mut text)?;
        }
        let rep = replay(&text).map_err(RecoverError::Audit)?;
        if rep.torn_tail {
            let body = text.strip_suffix('\n').unwrap_or(&text);
            file.set_len(body.rfind('\n').map_or(0, |i| i + 1) as u64)?;
        } else if !text.is_empty() && !text.ends_with('\n') {
            file.write_all(b"\n")?;
        }
        Ok((AuditLog(Mutex::new(Some(file))), rep))
    }

    /// Append one event.
    pub(crate) fn append(&self, ev: &AuditEvent) -> io::Result<()> {
        let line = ev.to_json();
        self.write_parts(&mut [IoSlice::new(line.as_bytes()), IoSlice::new(b"\n")])
    }

    /// Append the `accepted` event of a request rendered by
    /// [`JobRequest::to_json`]. The request text is written from where it
    /// lies, between its frame's two halves, never copied into the line.
    pub(crate) fn append_accepted(&self, id: JobId, bytes: u64, request: &str) -> io::Result<()> {
        let (before, after) = AuditEvent::accepted_frame(id, bytes);
        self.write_parts(&mut [
            IoSlice::new(before.as_bytes()),
            IoSlice::new(request.as_bytes()),
            IoSlice::new(after.as_bytes()),
            IoSlice::new(b"\n"),
        ])
    }

    /// The simulated crash: every later append vanishes.
    pub(crate) fn kill(&self) {
        *self.0.lock().expect("audit log") = None;
    }

    /// Write `parts` back to back, whole, under the log's lock: vectored
    /// writes until every byte is out.
    fn write_parts(&self, mut parts: &mut [IoSlice<'_>]) -> io::Result<()> {
        let mut guard = self.0.lock().expect("audit log");
        let Some(f) = &mut *guard else {
            return Ok(());
        };
        while !parts.is_empty() {
            match f.write_vectored(parts) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_core::sort::{self, Algorithm, MemCheckpointer, SortSpec};
    use asym_model::workload::Workload;

    fn request() -> JobRequest {
        JobRequest {
            spec: SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
                .k(2)
                .build()
                .unwrap(),
            workload: Workload::Zipf,
            records: 300,
            data_seed: 5,
            input: None,
            include_output: false,
            deadline_ms: Some(9_000),
            checkpoint: false,
        }
    }

    /// The delta manifest stream a real staged run of [`request`] saves.
    fn manifests() -> Vec<CheckpointManifest> {
        let r = request();
        let input = r.workload.generate(r.records, r.data_seed);
        let mut sink = MemCheckpointer::default();
        sort::run_staged(&r.spec, &input, &mut sink).expect("staged run");
        assert!(sink.manifests.len() >= 4, "a multi-phase plan");
        sink.manifests
    }

    /// The lean outcome a real run of [`request`] logs when it completes.
    fn lean() -> Arc<SortOutcome> {
        let r = request();
        let input = r.workload.generate(r.records, r.data_seed);
        Arc::new(sort::run_lean(&r.spec, &input).expect("sort"))
    }

    /// The fold of `deltas`, each of which must advance it.
    fn folded(deltas: &[CheckpointManifest]) -> CheckpointManifest {
        let mut held = None;
        for d in deltas {
            assert!(CheckpointManifest::fold(&mut held, d.clone()));
        }
        held.expect("at least one delta")
    }

    fn checkpointed(id: JobId, manifest: &CheckpointManifest) -> AuditEvent {
        AuditEvent::Checkpointed {
            id,
            manifest: manifest.clone(),
        }
    }

    fn log_of(events: &[AuditEvent]) -> String {
        events.iter().map(|ev| ev.to_json() + "\n").collect()
    }

    #[test]
    fn events_round_trip() {
        let events = [
            AuditEvent::Accepted {
                id: 3,
                request: request(),
                predicted_bytes: 4096,
            },
            AuditEvent::Rejected(Refusal::Budget {
                predicted: 10,
                available: 4,
            }),
            AuditEvent::Rejected(Refusal::Deadline {
                eta_ms: 100,
                deadline_ms: 10,
            }),
            AuditEvent::Started { id: 3, attempt: 1 },
            AuditEvent::Retried {
                id: 3,
                attempt: 1,
                backoff_ms: 10,
                error: "interrupted".into(),
            },
            AuditEvent::Completed {
                id: 3,
                outcome: lean(),
                output_digest: None,
            },
            AuditEvent::Completed {
                id: 4,
                outcome: lean(),
                output_digest: Some(u64::MAX - 7),
            },
            AuditEvent::Failed {
                id: 4,
                kind: FailureKind::Panic,
                error: "boom".into(),
            },
            AuditEvent::Expired { id: 5 },
            AuditEvent::Drained,
            AuditEvent::Recovered {
                requeued: 1,
                restored: 2,
                next_id: 6,
            },
        ];
        for ev in events {
            // A `completed` line decodes to the typed outcome it was
            // rendered from.
            let line = ev.to_json();
            assert_eq!(AuditEvent::from_json(&line), Ok(ev), "{line}");
        }
    }

    /// `submit` renders the request before it takes the state lock, and
    /// under it the log writes the line's frame around that text; the bytes
    /// must be the event's own line, in the same `JsonObj` layout as every
    /// other event.
    #[test]
    fn the_prerendered_accepted_line_is_the_event_line() {
        let r = JobRequest::inline(request().spec, Workload::Zipf.generate(50, 2));
        let mut o = JsonObj::new();
        o.u64("v", SCHEMA_VERSION)
            .str("event", "accepted")
            .u64("id", 7)
            .u64("predicted_bytes", 4096)
            .raw("request", &r.to_json());
        let line = o.finish();
        let event = AuditEvent::Accepted {
            id: 7,
            request: r.clone(),
            predicted_bytes: 4096,
        };
        assert_eq!(line, event.to_json());
        assert_eq!(AuditEvent::from_json(&line), Ok(event));

        let root = std::env::temp_dir().join(format!("asym-audit-accepted-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (audit, _) = AuditLog::recover(&root).expect("opens");
        audit
            .append_accepted(7, 4096, &r.to_json())
            .expect("append");
        audit.append(&AuditEvent::Drained).expect("append");
        let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("read");
        assert_eq!(text, line + "\n" + &AuditEvent::Drained.to_json() + "\n");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A job that asked for its output logs its lean outcome plus the
    /// output's digest; one that did not logs the lean outcome and keeps no
    /// records.
    #[test]
    fn completed_logs_a_digest_in_place_of_the_output() {
        let r = request();
        let input = r.workload.generate(r.records, r.data_seed);
        let outcome = sort::run(&r.spec, &input).expect("sort");
        let lean = SortOutcome {
            output: Vec::new(),
            ..outcome.clone()
        };
        let with = AuditEvent::completed(1, outcome.clone(), true);
        assert_eq!(
            with,
            AuditEvent::Completed {
                id: 1,
                outcome: Arc::new(outcome.clone()),
                output_digest: Some(records_digest(&outcome.output)),
            }
        );
        let line = with.to_json();
        assert!(line.len() < 300, "no records in the line: {line}");
        assert!(line.contains("\"output_len\": 300"), "{line}");
        assert_eq!(
            AuditEvent::completed(1, outcome, false),
            AuditEvent::Completed {
                id: 1,
                outcome: Arc::new(lean),
                output_digest: None,
            }
        );
    }

    #[test]
    fn rejected_lines_are_pinned_byte_for_byte() {
        let cases = [
            (
                Refusal::Budget {
                    predicted: 10,
                    available: 4,
                },
                r#"{ "v": 2, "event": "rejected", "reason": "budget", "predicted": 10, "available": 4 }"#,
            ),
            (
                Refusal::Io {
                    predicted: 5_000,
                    available: 300,
                },
                r#"{ "v": 2, "event": "rejected", "reason": "io_budget", "predicted": 5000, "available": 300 }"#,
            ),
            (
                Refusal::Deadline {
                    eta_ms: 100,
                    deadline_ms: 10,
                },
                r#"{ "v": 2, "event": "rejected", "reason": "deadline", "eta_ms": 100, "deadline_ms": 10 }"#,
            ),
        ];
        for (refusal, line) in cases {
            let ev = AuditEvent::Rejected(refusal);
            assert_eq!(ev.to_json(), line);
            assert_eq!(AuditEvent::from_json(line), Ok(ev));
        }
        // A line with no reason predates the other axes: a budget refusal.
        assert_eq!(
            AuditEvent::from_json(
                r#"{"v": 1, "event": "rejected", "predicted": 9, "available": 1}"#
            ),
            Ok(AuditEvent::Rejected(Refusal::Budget {
                predicted: 9,
                available: 1,
            }))
        );
    }

    #[test]
    fn checkpoint_and_io_rejection_events_round_trip() {
        let io = AuditEvent::Rejected(Refusal::Io {
            predicted: 5_000,
            available: 300,
        });
        let line = io.to_json();
        assert!(line.contains("\"io_budget\""), "{line}");
        assert_eq!(AuditEvent::from_json(&line), Ok(io));

        let ev = AuditEvent::Checkpointed {
            id: 9,
            manifest: manifests()[2].clone(),
        };
        let line = ev.to_json();
        assert!(line.contains("\"phase\": 3, "), "{line}");
        assert_eq!(AuditEvent::from_json(&line), Ok(ev));
        // Required fields are enforced, not defaulted.
        assert!(AuditEvent::from_json(r#"{"v": 1, "event": "checkpointed", "id": 9}"#).is_err());
    }

    #[test]
    fn replay_tracks_checkpoint_progress_monotonically() {
        let r = request();
        let m = manifests();
        let checkpointed = |i: usize| checkpointed(0, &m[i]);
        let log = log_of(&[
            AuditEvent::Accepted {
                id: 0,
                request: r.clone(),
                predicted_bytes: 100,
            },
            AuditEvent::Started { id: 0, attempt: 1 },
            checkpointed(0),
            checkpointed(1),
            // A duplicated / late-arriving older manifest must not roll
            // progress back.
            checkpointed(0),
        ]);
        let rep = replay(&log).expect("replays");
        let j = &rep.jobs[&0];
        assert_eq!(j.checkpoint_phase(), 2);
        assert_eq!(j.manifest.as_ref(), Some(&folded(&m[..2])));
        assert_eq!(j.attempts_at_checkpoint, 1, "progress made on attempt 1");
        assert_eq!(j.outcome, ReplayOutcome::Pending);

        // After a terminal outcome, a stale manifest line is ignored.
        let terminal = log.clone()
            + &log_of(&[
                AuditEvent::Completed {
                    id: 0,
                    outcome: lean(),
                    output_digest: None,
                },
                checkpointed(2),
            ]);
        let rep2 = replay(&terminal).expect("replays");
        assert!(rep2.jobs[&0].outcome.is_terminal());
        assert_eq!(
            rep2.jobs[&0].checkpoint_phase(),
            2,
            "stale manifest after terminal outcome is ignored"
        );
        // And replay is idempotent over the extended log too.
        assert_eq!(replay(&terminal).unwrap(), rep2);
    }

    #[test]
    fn a_terminal_job_drops_its_checkpointed_records_but_not_its_phase() {
        let m = manifests();
        let held = folded(&m[..2]);
        assert!(held.runs.iter().any(|run| !run.is_empty()));
        for end in [
            AuditEvent::Completed {
                id: 0,
                outcome: lean(),
                output_digest: None,
            },
            AuditEvent::Failed {
                id: 0,
                kind: FailureKind::Fatal,
                error: "boom".into(),
            },
            AuditEvent::Expired { id: 0 },
        ] {
            let log = log_of(&[
                AuditEvent::Accepted {
                    id: 0,
                    request: request(),
                    predicted_bytes: 100,
                },
                AuditEvent::Started { id: 0, attempt: 1 },
                checkpointed(0, &m[0]),
                checkpointed(0, &m[1]),
                end,
            ]);
            let j = &replay(&log).expect("replays").jobs[&0];
            assert!(j.outcome.is_terminal());
            assert_eq!(j.checkpoint_phase(), 2);
            let m = j.manifest.as_ref().expect("the phase count stays");
            assert!(m.runs.is_empty(), "the records go");
            assert_eq!((m.phases_done, m.stats), (held.phases_done, held.stats));
        }
    }

    #[test]
    fn replay_ignores_duplicate_gapped_and_late_deltas() {
        let m = manifests();
        let accepted = AuditEvent::Accepted {
            id: 0,
            request: request(),
            predicted_bytes: 100,
        };
        let two = folded(&m[..2]);
        for (stale, why) in [
            (checkpointed(0, &m[1]), "a duplicate delta"),
            (checkpointed(0, &m[3]), "a gap"),
        ] {
            let log = log_of(&[
                accepted.clone(),
                checkpointed(0, &m[0]),
                checkpointed(0, &m[1]),
                stale,
            ]);
            let rep = replay(&log).expect("replays");
            assert_eq!(rep.jobs[&0].manifest.as_ref(), Some(&two), "{why}");
        }
        // After a terminal outcome even the next delta is ignored.
        let log = log_of(&[
            accepted,
            checkpointed(0, &m[0]),
            checkpointed(0, &m[1]),
            AuditEvent::Expired { id: 0 },
            checkpointed(0, &m[2]),
        ]);
        let rep = replay(&log).expect("replays");
        let expired = CheckpointManifest {
            runs: Vec::new(),
            ..two
        };
        assert_eq!(rep.jobs[&0].manifest.as_ref(), Some(&expired));
        assert_eq!(rep.jobs[&0].outcome, ReplayOutcome::Expired);
    }

    /// A log written before manifests were deltas carries a full v1
    /// manifest per phase. It still replays to the same snapshot, and the
    /// job resumes from it exactly.
    #[test]
    fn a_v1_full_manifest_line_still_replays_and_resumes() {
        let r = request();
        let m = manifests();
        let v1_line = |full: &CheckpointManifest| {
            let manifest = full
                .to_json()
                .replacen("\"version\": 2", "\"version\": 1", 1)
                .replacen("\"base\": 0, ", "", 1);
            format!(
                r#"{{ "v": 1, "event": "checkpointed", "id": 0, "phase": {}, "manifest": {manifest} }}"#,
                full.phases_done
            ) + "\n"
        };
        let three = folded(&m[..3]);
        let log = log_of(&[AuditEvent::Accepted {
            id: 0,
            request: r.clone(),
            predicted_bytes: 100,
        }]) + &v1_line(&folded(&m[..2]))
            + &v1_line(&three);
        assert!(!log.contains("\"base\""), "{log}");
        let rep = replay(&log).expect("a v1 log replays");
        let held = rep.jobs[&0].manifest.clone().expect("progress");
        assert_eq!(held, three);

        let input = r.workload.generate(r.records, r.data_seed);
        let mut tail = MemCheckpointer::default();
        let resumed = sort::resume_from(&r.spec, &input, &held, &mut tail).expect("resumes");
        let uninterrupted =
            sort::run_staged(&r.spec, &input, &mut MemCheckpointer::default()).expect("staged");
        assert_eq!(resumed.output, uninterrupted.output);
        assert_eq!(resumed.stats, uninterrupted.stats);
        assert_eq!(tail.manifests, m[3..], "the resume writes v2 deltas");

        // Those deltas fold onto the v1 snapshot in a mixed log.
        let mixed = log + &log_of(&[checkpointed(0, &m[3])]);
        let rep = replay(&mixed).expect("a mixed log replays");
        assert_eq!(rep.jobs[&0].manifest, Some(folded(&m[..4])));
    }

    #[test]
    fn checkpointed_lines_that_do_not_decode_are_malformed_unless_torn() {
        let m = manifests();
        let head = log_of(&[AuditEvent::Accepted {
            id: 0,
            request: request(),
            predicted_bytes: 100,
        }]);
        let good = AuditEvent::Checkpointed {
            id: 0,
            manifest: m[1].clone(),
        }
        .to_json();
        let tail = AuditEvent::Started { id: 0, attempt: 2 }.to_json();
        let disagreeing = good.replacen("\"phase\": 2,", "\"phase\": 3,", 1);
        assert_ne!(disagreeing, good);
        let undecodable = r#"{"v": 1, "event": "checkpointed", "id": 0, "phase": 1, "manifest": {"phases_done": 1}}"#;
        for bad in [disagreeing.as_str(), undecodable] {
            assert!(matches!(
                AuditEvent::from_json(bad),
                Err(AuditError::Malformed(_))
            ));
            let log = format!("{head}{bad}\n{tail}\n");
            assert!(
                matches!(replay(&log), Err(AuditError::Malformed(_))),
                "an interior line is corrupt, not torn: {bad}"
            );
        }
        // Torn mid-write as the final line, the same event is tolerated.
        let torn = format!("{head}{}", &good[..good.len() / 2]);
        let rep = replay(&torn).expect("a torn tail replays");
        assert!(rep.torn_tail);
        assert_eq!(rep.jobs[&0].checkpoint_phase(), 0);
    }

    /// A `completed` line whose outcome does not decode is corrupt, so
    /// recovery refuses the log rather than serve telemetry no client can
    /// read; as the final line it is torn, and the job runs again.
    #[test]
    fn completed_lines_whose_outcome_does_not_decode_are_malformed_unless_torn() {
        use crate::{ServiceConfig, SortService};
        let head = log_of(&[
            AuditEvent::Accepted {
                id: 0,
                request: request(),
                predicted_bytes: 100,
            },
            AuditEvent::Started { id: 0, attempt: 1 },
        ]);
        let bad = r#"{"v": 2, "event": "completed", "id": 0, "outcome": {"reads": 7}}"#;
        assert!(matches!(
            AuditEvent::from_json(bad),
            Err(AuditError::Malformed(ref m)) if m.contains("\"writes\"")
        ));
        let root = std::env::temp_dir().join(format!("asym-audit-outcome-{}", std::process::id()));
        std::fs::create_dir_all(&root).expect("root");
        let cfg = ServiceConfig::new(1, u64::MAX, root.clone());

        let interior = format!("{head}{bad}\n{}\n", AuditEvent::Drained.to_json());
        assert!(matches!(replay(&interior), Err(AuditError::Malformed(_))));
        std::fs::write(root.join("audit.jsonl"), &interior).expect("write log");
        assert!(matches!(
            SortService::recover(cfg.clone()),
            Err(RecoverError::Audit(AuditError::Malformed(_)))
        ));

        let last = format!("{head}{bad}\n");
        let rep = replay(&last).expect("a torn tail replays");
        assert!(rep.torn_tail);
        assert_eq!(rep.jobs[&0].outcome, ReplayOutcome::Pending);
        std::fs::write(root.join("audit.jsonl"), &last).expect("write log");
        let (service, report) = SortService::recover(cfg).expect("recovers");
        assert!(report.torn_tail);
        assert_eq!((report.restored, report.requeued), (0, 1));
        let done = service.wait(0).expect("known job");
        assert_eq!(done.state, crate::JobState::Completed, "{:?}", done.error);
        service.drain();
        drop(service);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_versions_are_typed_errors() {
        let future = r#"{"v": 3, "event": "accepted", "id": 1}"#;
        assert_eq!(
            AuditEvent::from_json(future),
            Err(AuditError::UnknownVersion(3))
        );
        let before_v1 = r#"{"v": 0, "event": "drained"}"#;
        assert_eq!(
            AuditEvent::from_json(before_v1),
            Err(AuditError::UnknownVersion(0))
        );
        let versionless = r#"{"event": "drained"}"#;
        assert!(matches!(
            AuditEvent::from_json(versionless),
            Err(AuditError::Malformed(ref m)) if m.contains("\"v\"")
        ));
        // A future version mid-log poisons the whole replay — better to
        // refuse than to recover a half-understood state.
        let log = format!("{}\n{future}\n", AuditEvent::Drained.to_json());
        assert_eq!(replay(&log), Err(AuditError::UnknownVersion(3)));
    }

    /// Recovery repairs a log cut at any byte to the cut's longest prefix
    /// of whole lines, each ending in a newline, without rewriting it; and
    /// the next append lands on a line of its own.
    #[test]
    fn recover_cuts_every_torn_tail_in_place() {
        let log = log_of(&[
            AuditEvent::Accepted {
                id: 0,
                request: request(),
                predicted_bytes: 100,
            },
            AuditEvent::Started { id: 0, attempt: 1 },
            checkpointed(0, &manifests()[0]),
            AuditEvent::Drained,
        ]);
        // Where each whole line of the log ends, its newline included.
        let ends: Vec<usize> = std::iter::once(0)
            .chain(log.match_indices('\n').map(|(i, _)| i + 1))
            .collect();
        let next = AuditEvent::Started { id: 0, attempt: 2 };
        let root = std::env::temp_dir().join(format!("asym-audit-repair-{}", std::process::id()));
        let path = root.join("audit.jsonl");
        std::fs::create_dir_all(&root).expect("root");
        for cut in 0..=log.len() {
            std::fs::write(&path, &log[..cut]).expect("write the cut log");
            // The last line the cut holds whole, with or without its newline.
            let end = *ends
                .iter()
                .rev()
                .find(|&&e| e == 0 || e - 1 <= cut)
                .expect("0 is an end");
            let torn = cut != end && cut + 1 != end;

            let (audit, rep) = AuditLog::recover(&root).expect("recovers");
            assert_eq!(rep.torn_tail, torn, "cut at {cut}");
            let repaired = std::fs::read_to_string(&path).expect("read");
            assert_eq!(repaired, log[..end], "cut at {cut}");

            audit.append(&next).expect("append");
            let text = std::fs::read_to_string(&path).expect("read");
            assert_eq!(text, log[..end].to_string() + &next.to_json() + "\n");
            let after = replay(&text).expect("replays");
            assert!(!after.torn_tail, "cut at {cut}");
            assert_eq!(after.jobs.len(), usize::from(end > 0), "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn replay_folds_and_tolerates_a_torn_tail() {
        let r = request();
        let mut log = log_of(&[
            AuditEvent::Accepted {
                id: 0,
                request: r.clone(),
                predicted_bytes: 100,
            },
            AuditEvent::Accepted {
                id: 1,
                request: r.clone(),
                predicted_bytes: 100,
            },
            AuditEvent::Started { id: 0, attempt: 1 },
            AuditEvent::Retried {
                id: 0,
                attempt: 1,
                backoff_ms: 10,
                error: "interrupted".into(),
            },
            AuditEvent::Started { id: 0, attempt: 2 },
            AuditEvent::Completed {
                id: 0,
                outcome: lean(),
                output_digest: None,
            },
            AuditEvent::Rejected(Refusal::Budget {
                predicted: 9,
                available: 1,
            }),
        ]);
        log.push_str(r#"{"v": 1, "event": "acc"#); // the crash tore this line

        let rep = replay(&log).expect("replays");
        assert!(rep.torn_tail);
        assert_eq!(rep.next_id, 2);
        assert_eq!(rep.rejected, 1);
        assert_eq!(rep.retries, 1);
        assert_eq!(rep.jobs.len(), 2);
        assert_eq!(rep.jobs[&0].attempts, 2);
        assert!(rep.jobs[&0].outcome.is_terminal());
        assert_eq!(rep.jobs[&1].outcome, ReplayOutcome::Pending);
        assert_eq!(rep.pending().collect::<Vec<_>>(), vec![1]);
        // Idempotence: replaying the same text again gives the same fold.
        assert_eq!(replay(&log).unwrap(), rep);
    }
}
