//! The audit log as a write-ahead log: versioned lifecycle events and the
//! pure replay that [`SortService::recover`](crate::SortService::recover)
//! rebuilds its state from.
//!
//! Every line of `audit.jsonl` is one [`AuditEvent`], rendered with a
//! schema version (`"v"`) first. The event set is chosen so the log is
//! *sufficient* to restart the service: `accepted` embeds the full
//! [`JobRequest`] (the service can re-run the job), `completed` embeds the
//! full outcome telemetry (a restarted service still serves old results),
//! and every terminal event names its job. [`replay`] folds any prefix of
//! a log into a [`Replay`]:
//!
//! * terminal outcomes win and never un-terminalize, so replaying a longer
//!   prefix only ever *adds* information — the monotonicity property
//!   `tests/recovery.rs` pins;
//! * a torn final line (the crash happened mid-`write`) is tolerated and
//!   flagged, torn interior lines are typed errors;
//! * an unknown schema version anywhere is a typed
//!   [`AuditError::UnknownVersion`] — forward-compat for consumers that
//!   must not misread a future log as an empty one.

use crate::job::{FailureKind, JobId, JobRequest};
use asym_model::json::{self, Json, JsonObj};
use std::collections::BTreeMap;

/// The audit schema this build writes and the only one it replays.
pub const SCHEMA_VERSION: u64 = 1;

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
                    "audit schema v{v} is not supported (this build speaks v{SCHEMA_VERSION})"
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
    /// Turned away by the memory budget. Not a job; replay only counts it.
    RejectedBudget {
        /// The submission's predicted peak bytes.
        predicted: u64,
        /// What the budget had left.
        available: u64,
    },
    /// Turned away because the modeled ETA cannot meet the deadline.
    RejectedDeadline {
        /// Modeled time to run the job on an idle service.
        eta_ms: u64,
        /// What the client asked for.
        deadline_ms: u64,
    },
    /// Turned away by the I/O-cost budget (`reads + ω·writes`), the
    /// second admission axis beside peak bytes.
    RejectedIo {
        /// The submission's predicted I/O cost.
        predicted: u64,
        /// What the I/O budget had left.
        available: u64,
    },
    /// A worker began attempt `attempt` (1-based).
    Started {
        /// The job.
        id: JobId,
        /// Which attempt this is.
        attempt: u32,
    },
    /// A staged job completed a phase; the manifest is durable the moment
    /// this line is. Recovery hands the *latest* manifest back to the
    /// re-queued job so a restarted worker resumes instead of restarting.
    Checkpointed {
        /// The job.
        id: JobId,
        /// Completed phases (the manifest's `phases_done`).
        phase: u64,
        /// [`CheckpointManifest::to_json`], embedded verbatim.
        ///
        /// [`CheckpointManifest::to_json`]: asym_core::sort::CheckpointManifest::to_json
        manifest: String,
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
    /// Terminal success. Carries the full telemetry so a recovered service
    /// still serves the result.
    Completed {
        /// The job.
        id: JobId,
        /// [`SortOutcome::to_json`](asym_core::sort::SortOutcome::to_json),
        /// embedded verbatim.
        telemetry: String,
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
    /// Stable wire name of the event.
    pub fn name(&self) -> &'static str {
        match self {
            AuditEvent::Accepted { .. } => "accepted",
            AuditEvent::RejectedBudget { .. }
            | AuditEvent::RejectedDeadline { .. }
            | AuditEvent::RejectedIo { .. } => "rejected",
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
                o.u64("id", *id)
                    .u64("predicted_bytes", *predicted_bytes)
                    .raw("request", &request.to_json());
            }
            AuditEvent::RejectedBudget {
                predicted,
                available,
            } => {
                o.str("reason", "budget")
                    .u64("predicted", *predicted)
                    .u64("available", *available);
            }
            AuditEvent::RejectedDeadline {
                eta_ms,
                deadline_ms,
            } => {
                o.str("reason", "deadline")
                    .u64("eta_ms", *eta_ms)
                    .u64("deadline_ms", *deadline_ms);
            }
            AuditEvent::RejectedIo {
                predicted,
                available,
            } => {
                o.str("reason", "io_budget")
                    .u64("predicted", *predicted)
                    .u64("available", *available);
            }
            AuditEvent::Started { id, attempt } => {
                o.u64("id", *id).u64("attempt", *attempt as u64);
            }
            AuditEvent::Checkpointed {
                id,
                phase,
                manifest,
            } => {
                o.u64("id", *id)
                    .u64("phase", *phase)
                    .raw("manifest", manifest);
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
            AuditEvent::Completed { id, telemetry } => {
                o.u64("id", *id).raw("outcome", telemetry);
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

    /// Decode one line. Unknown schema versions are
    /// [`AuditError::UnknownVersion`]; everything else unexpected is
    /// [`AuditError::Malformed`].
    pub fn from_json(line: &str) -> Result<AuditEvent, AuditError> {
        let bad = |m: String| AuditError::Malformed(m);
        let v = Json::parse(line).map_err(bad)?;
        let obj = v
            .as_obj()
            .ok_or_else(|| bad("event must be a JSON object".into()))?;
        let version = json::get_u64(obj, "v")
            .ok_or_else(|| bad("missing schema version field \"v\"".into()))?;
        if version != SCHEMA_VERSION {
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
                match reason.as_str() {
                    "budget" => Ok(AuditEvent::RejectedBudget {
                        predicted: json::get_u64(obj, "predicted").unwrap_or(0),
                        available: json::get_u64(obj, "available").unwrap_or(0),
                    }),
                    "deadline" => Ok(AuditEvent::RejectedDeadline {
                        eta_ms: json::get_u64(obj, "eta_ms").unwrap_or(0),
                        deadline_ms: json::get_u64(obj, "deadline_ms").unwrap_or(0),
                    }),
                    "io_budget" => Ok(AuditEvent::RejectedIo {
                        predicted: json::get_u64(obj, "predicted").unwrap_or(0),
                        available: json::get_u64(obj, "available").unwrap_or(0),
                    }),
                    other => Err(bad(format!("unknown rejection reason {other:?}"))),
                }
            }
            "started" => Ok(AuditEvent::Started {
                id: id()?,
                attempt: attempt()?,
            }),
            "checkpointed" => {
                let manifest = json::find(obj, "manifest")
                    .ok_or_else(|| bad("checkpointed event missing \"manifest\"".into()))?
                    .render();
                Ok(AuditEvent::Checkpointed {
                    id: id()?,
                    phase: json::get_u64(obj, "phase")
                        .ok_or_else(|| bad("checkpointed event missing \"phase\"".into()))?,
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
                let telemetry = json::find(obj, "outcome")
                    .ok_or_else(|| bad("completed event missing \"outcome\"".into()))?
                    .render();
                Ok(AuditEvent::Completed {
                    id: id()?,
                    telemetry,
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
    /// Done; the embedded telemetry is the result.
    Completed {
        /// The embedded outcome JSON.
        telemetry: String,
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

/// One job reconstructed from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayJob {
    /// The embedded request, ready to re-run.
    pub request: JobRequest,
    /// Attempts already consumed (max attempt number seen).
    pub attempts: u32,
    /// The job's fate so far.
    pub outcome: ReplayOutcome,
    /// The latest checkpoint manifest (embedded JSON), if the job made
    /// phase progress before the log ended. A re-queued job resumes from
    /// it instead of restarting.
    pub manifest: Option<String>,
    /// `phases_done` of that manifest (0: none). Only advances — a stale
    /// or replayed `checkpointed` line can never roll progress back.
    pub checkpoint_phase: u64,
    /// The attempt count at the moment of the last phase progress — the
    /// retry clock's epoch: backoff and fault decay key off
    /// `attempts − attempts_at_checkpoint`, so attempts that *made*
    /// progress are never re-billed.
    pub attempts_at_checkpoint: u32,
}

/// The fold of a log prefix: everything a restarted service needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Every accepted job, by id (BTreeMap: re-queue in id order).
    pub jobs: BTreeMap<JobId, ReplayJob>,
    /// Where the id counter must resume (max accepted id + 1).
    pub next_id: JobId,
    /// Rejections seen (both reasons).
    pub rejected: u64,
    /// Retry events seen.
    pub retries: u64,
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

    fn apply(&mut self, ev: AuditEvent) {
        match ev {
            AuditEvent::Accepted { id, request, .. } => {
                self.next_id = self.next_id.max(id + 1);
                // First acceptance wins: replaying a duplicated line (or a
                // prefix twice) cannot double a job.
                self.jobs.entry(id).or_insert(ReplayJob {
                    request,
                    attempts: 0,
                    outcome: ReplayOutcome::Pending,
                    manifest: None,
                    checkpoint_phase: 0,
                    attempts_at_checkpoint: 0,
                });
            }
            AuditEvent::RejectedBudget { .. }
            | AuditEvent::RejectedDeadline { .. }
            | AuditEvent::RejectedIo { .. } => {
                self.rejected += 1;
            }
            AuditEvent::Started { id, attempt } => {
                if let Some(j) = self.jobs.get_mut(&id) {
                    j.attempts = j.attempts.max(attempt);
                }
            }
            AuditEvent::Checkpointed {
                id,
                phase,
                manifest,
            } => {
                // Progress only moves forward, and a manifest arriving
                // after the job's terminal outcome is stale noise (a torn
                // race the WAL ordering makes possible only across
                // replays) — ignore both.
                if let Some(j) = self.jobs.get_mut(&id) {
                    if !j.outcome.is_terminal() && phase > j.checkpoint_phase {
                        j.checkpoint_phase = phase;
                        j.manifest = Some(manifest);
                        j.attempts_at_checkpoint = j.attempts;
                    }
                }
            }
            AuditEvent::Retried { id, attempt, .. } => {
                self.retries += 1;
                if let Some(j) = self.jobs.get_mut(&id) {
                    j.attempts = j.attempts.max(attempt);
                }
            }
            AuditEvent::Completed { id, telemetry } => {
                self.terminalize(id, ReplayOutcome::Completed { telemetry });
            }
            AuditEvent::Failed { id, kind, error } => {
                self.terminalize(id, ReplayOutcome::Failed { kind, error });
            }
            AuditEvent::Expired { id } => {
                self.terminalize(id, ReplayOutcome::Expired);
            }
            AuditEvent::Drained | AuditEvent::Recovered { .. } => {}
        }
    }

    /// Terminal outcomes stick: the first one recorded for a job wins, so
    /// replay is idempotent and monotonic over prefixes.
    fn terminalize(&mut self, id: JobId, outcome: ReplayOutcome) {
        if let Some(j) = self.jobs.get_mut(&id) {
            if !j.outcome.is_terminal() {
                j.outcome = outcome;
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use asym_core::sort::{Algorithm, SortSpec};
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

    #[test]
    fn events_round_trip() {
        let events = [
            AuditEvent::Accepted {
                id: 3,
                request: request(),
                predicted_bytes: 4096,
            },
            AuditEvent::RejectedBudget {
                predicted: 10,
                available: 4,
            },
            AuditEvent::RejectedDeadline {
                eta_ms: 100,
                deadline_ms: 10,
            },
            AuditEvent::Started { id: 3, attempt: 1 },
            AuditEvent::Retried {
                id: 3,
                attempt: 1,
                backoff_ms: 10,
                error: "interrupted".into(),
            },
            AuditEvent::Completed {
                id: 3,
                telemetry: r#"{"reads": 1, "writes": 2}"#.into(),
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
            let line = ev.to_json();
            let back = AuditEvent::from_json(&line).expect(&line);
            // The embedded telemetry re-renders through the parser, so
            // compare semantically where whitespace may differ.
            match (&ev, &back) {
                (
                    AuditEvent::Completed {
                        id: a,
                        telemetry: t,
                    },
                    AuditEvent::Completed {
                        id: b,
                        telemetry: u,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(
                        Json::parse(t).unwrap().render(),
                        Json::parse(u).unwrap().render()
                    );
                }
                _ => assert_eq!(ev, back, "{line}"),
            }
        }
    }

    #[test]
    fn checkpoint_and_io_rejection_events_round_trip() {
        let io = AuditEvent::RejectedIo {
            predicted: 5_000,
            available: 300,
        };
        let line = io.to_json();
        assert!(line.contains("\"io_budget\""), "{line}");
        assert_eq!(AuditEvent::from_json(&line), Ok(io));

        let manifest = Json::parse(r#"{"version": 1, "phases_done": 3}"#)
            .unwrap()
            .render();
        let ev = AuditEvent::Checkpointed {
            id: 9,
            phase: 3,
            manifest: manifest.clone(),
        };
        let back = AuditEvent::from_json(&ev.to_json()).expect("decode");
        match back {
            AuditEvent::Checkpointed {
                id,
                phase,
                manifest: m,
            } => {
                assert_eq!((id, phase), (9, 3));
                assert_eq!(Json::parse(&m).unwrap().render(), manifest);
            }
            other => panic!("decoded as {other:?}"),
        }
        // Required fields are enforced, not defaulted.
        assert!(AuditEvent::from_json(r#"{"v": 1, "event": "checkpointed", "id": 9}"#).is_err());
    }

    #[test]
    fn replay_tracks_checkpoint_progress_monotonically() {
        let r = request();
        let mut log = String::new();
        for ev in [
            AuditEvent::Accepted {
                id: 0,
                request: r.clone(),
                predicted_bytes: 100,
            },
            AuditEvent::Started { id: 0, attempt: 1 },
            AuditEvent::Checkpointed {
                id: 0,
                phase: 1,
                manifest: r#"{"phases_done": 1}"#.into(),
            },
            AuditEvent::Checkpointed {
                id: 0,
                phase: 2,
                manifest: r#"{"phases_done": 2}"#.into(),
            },
            // A duplicated / late-arriving older manifest must not roll
            // progress back.
            AuditEvent::Checkpointed {
                id: 0,
                phase: 1,
                manifest: r#"{"phases_done": 1}"#.into(),
            },
        ] {
            log.push_str(&ev.to_json());
            log.push('\n');
        }
        let rep = replay(&log).expect("replays");
        let j = &rep.jobs[&0];
        assert_eq!(j.checkpoint_phase, 2);
        assert!(j.manifest.as_deref().unwrap().contains("2"));
        assert_eq!(j.attempts_at_checkpoint, 1, "progress made on attempt 1");
        assert_eq!(j.outcome, ReplayOutcome::Pending);

        // After a terminal outcome, a stale manifest line is ignored.
        let mut terminal = log.clone();
        for ev in [
            AuditEvent::Completed {
                id: 0,
                telemetry: r#"{"reads": 7}"#.into(),
            },
            AuditEvent::Checkpointed {
                id: 0,
                phase: 3,
                manifest: r#"{"phases_done": 3}"#.into(),
            },
        ] {
            terminal.push_str(&ev.to_json());
            terminal.push('\n');
        }
        let rep2 = replay(&terminal).expect("replays");
        assert!(rep2.jobs[&0].outcome.is_terminal());
        assert_eq!(
            rep2.jobs[&0].checkpoint_phase, 2,
            "stale manifest after terminal outcome is ignored"
        );
        // And replay is idempotent over the extended log too.
        assert_eq!(replay(&terminal).unwrap(), rep2);
    }

    #[test]
    fn unknown_versions_are_typed_errors() {
        let future = r#"{"v": 2, "event": "accepted", "id": 1}"#;
        assert_eq!(
            AuditEvent::from_json(future),
            Err(AuditError::UnknownVersion(2))
        );
        let versionless = r#"{"event": "drained"}"#;
        assert!(matches!(
            AuditEvent::from_json(versionless),
            Err(AuditError::Malformed(ref m)) if m.contains("\"v\"")
        ));
        // A future version mid-log poisons the whole replay — better to
        // refuse than to recover a half-understood state.
        let log = format!("{}\n{future}\n", AuditEvent::Drained.to_json());
        assert_eq!(replay(&log), Err(AuditError::UnknownVersion(2)));
    }

    #[test]
    fn replay_folds_and_tolerates_a_torn_tail() {
        let r = request();
        let mut log = String::new();
        for ev in [
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
                telemetry: r#"{"reads": 7}"#.into(),
            },
            AuditEvent::RejectedBudget {
                predicted: 9,
                available: 1,
            },
        ] {
            log.push_str(&ev.to_json());
            log.push('\n');
        }
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
