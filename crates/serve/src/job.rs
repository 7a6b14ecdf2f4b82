//! Job descriptions and job lifecycle: what a client submits and what it
//! can observe afterwards.
//!
//! A [`JobRequest`] is a [`SortSpec`] plus the data to sort, described one
//! of two ways. The original form names the data — a [`Workload`]
//! generator, a record count, and a seed — so the request stays a few
//! hundred bytes no matter how large the job is, and the service
//! regenerates identical input on its side (the same convention the bench
//! harness uses). Library consumers whose data is not a named generator
//! (the `asym-kv` compactor merging real sorted runs) instead ship the
//! records *inline* via [`JobRequest::inline`]: when `input` is present it
//! is sorted verbatim, `workload`/`data_seed` are ignored, and `records`
//! mirrors `input.len()` so `predict()` prices the actual payload.
//! `include_output` chooses between lean telemetry and full sorted output
//! in the completion payload.
//!
//! An inline input that is already sorted runs laid end to end (a
//! compaction's) can say so: its spec names the run lengths
//! ([`SortSpecBuilder::runs`]), and the job then merges them in one
//! Lemma 4.1 merge instead of sorting from scratch, priced in closed form
//! by `predict()`. The decoder refuses runs that cannot be merged as one
//! inline job: runs without an inline input, runs on a checkpointed job,
//! and runs that do not sum to the input's length ([`WireError::Malformed`]);
//! the spec itself refuses empty runs, more than `kM/B` runs, and runs on
//! any algorithm but the mergesort ([`WireError::Spec`]).
//!
//! [`SortSpecBuilder::runs`]: asym_core::sort::SortSpecBuilder::runs

use asym_core::sort::wire::req_u64;
use asym_core::sort::{checkpoint, CostEstimate, SortSpec, WireError};
use asym_model::json::{self, Json, JsonObj, RecordsError};
use asym_model::workload::Workload;
use asym_model::Record;
use std::borrow::Cow;

/// Identifies one submitted job for the rest of its life (assigned by the
/// service, monotonically increasing).
pub type JobId = u64;

/// One sort job as submitted over the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRequest {
    /// The validated job description (algorithm, geometry, backend, ...).
    pub spec: SortSpec,
    /// Named input generator; the service regenerates the data server-side.
    /// Ignored when [`input`](Self::input) is present.
    pub workload: Workload,
    /// How many records to generate and sort. When [`input`](Self::input)
    /// is present this mirrors `input.len()` (the decoder enforces it).
    pub records: usize,
    /// Seed for the workload generator. Ignored when
    /// [`input`](Self::input) is present.
    pub data_seed: u64,
    /// Inline records to sort verbatim, for consumers whose data is not a
    /// named generator (compactions merging real sorted runs). Takes
    /// precedence over `workload`/`data_seed`. Over HTTP the encoded
    /// request must still fit the body cap
    /// ([`MAX_BODY`](crate::http::MAX_BODY)), which bounds inline jobs to
    /// tens of thousands of records — by design: bulk data belongs in
    /// named generators or future object-store references.
    pub input: Option<Vec<Record>>,
    /// Include the sorted records in the completion telemetry (off for
    /// stats-only submissions).
    pub include_output: bool,
    /// Time budget in milliseconds. Checked against the modeled ETA at
    /// admission (when the service has a configured rate) and enforced by
    /// queue expiry: a job still queued when the budget lapses becomes
    /// [`JobState::Expired`] without running. `None`: no deadline.
    pub deadline_ms: Option<u64>,
    /// Run the job as a staged, checkpointable sequence of phases
    /// ([`checkpoint::run_staged`]): every completed phase but the last is
    /// persisted to the audit WAL as a `checkpointed` event, and a crashed
    /// or killed attempt resumes from the fold of its manifests instead of
    /// restarting (one killed after its last phase redoes only that phase).
    /// Output is identical to the single-shot path; modeled costs follow
    /// the staged envelope ([`checkpoint::predict_staged`]), which is what
    /// `predict()` prices when this is set.
    ///
    /// [`checkpoint::run_staged`]: asym_core::sort::checkpoint::run_staged
    /// [`checkpoint::predict_staged`]: asym_core::sort::checkpoint::predict_staged
    pub checkpoint: bool,
}

impl JobRequest {
    /// A job over inline data: sort exactly `input`, return the sorted
    /// records in the telemetry. The `asym-kv` compactor submits its run
    /// merges through this.
    pub fn inline(spec: SortSpec, input: Vec<Record>) -> JobRequest {
        JobRequest {
            spec,
            workload: Workload::UniformRandom, // ignored: input is inline
            records: input.len(),
            data_seed: 0,
            input: Some(input),
            include_output: true,
            deadline_ms: None,
            checkpoint: false,
        }
    }

    /// Toggle staged, checkpointable execution (see
    /// [`checkpoint`](Self::checkpoint)).
    pub fn checkpointed(mut self, on: bool) -> JobRequest {
        self.checkpoint = on;
        self
    }

    /// How many records this job sorts — the inline payload length when
    /// present, the generator count otherwise.
    pub fn record_count(&self) -> usize {
        self.input.as_ref().map_or(self.records, Vec::len)
    }

    /// The records this job sorts: the inline payload, borrowed, or the
    /// named workload regenerated from its seed.
    pub(crate) fn input_records(&self) -> Cow<'_, [Record]> {
        match &self.input {
            Some(records) => Cow::Borrowed(records),
            None => Cow::Owned(self.workload.generate(self.records, self.data_seed)),
        }
    }

    /// The pre-run cost bounds the service admits on: the single-shot
    /// envelope normally, the closed-form merge cost when the spec names
    /// its runs, the staged envelope for checkpointed jobs (the execution
    /// they actually get: a staged run sorts from scratch).
    pub fn predict(&self) -> CostEstimate {
        if self.checkpoint {
            checkpoint::predict_staged(&self.spec, self.record_count())
        } else {
            self.spec.predict(self.record_count())
        }
    }

    /// Render as a single-line JSON object (`spec` nested verbatim,
    /// inline input as `[key, payload]` pairs when present).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.raw("spec", &self.spec.to_json())
            .str("workload", self.workload.name())
            .u64("records", self.record_count() as u64)
            .u64("data_seed", self.data_seed)
            .bool("include_output", self.include_output);
        if let Some(input) = &self.input {
            o.records("input", input);
        }
        if let Some(d) = self.deadline_ms {
            o.u64("deadline_ms", d);
        }
        if self.checkpoint {
            o.bool("checkpoint", true);
        }
        o.finish()
    }

    /// Decode a request; the nested spec goes through the normal
    /// [`SortSpec`] wire decoding and builder validation. `data_seed`
    /// defaults to 0 and `include_output` to false.
    pub fn from_json(text: &str) -> Result<JobRequest, WireError> {
        let mut v = Json::parse(text).map_err(WireError::Malformed)?;
        let input = v.take("input");
        Self::decode(&v, input.map(Cow::Owned))
    }

    /// Decode from an already-parsed [`Json`] value (e.g. the request an
    /// `accepted` audit line embeds).
    pub fn from_json_value(v: &Json) -> Result<JobRequest, WireError> {
        Self::decode(v, v.get("input").map(Cow::Borrowed))
    }

    /// Decode `v`, whose `input` field is `input`: borrowed from `v`, or
    /// taken out of a tree the caller owns, so its records move rather
    /// than copy.
    fn decode(v: &Json, input: Option<Cow<'_, Json>>) -> Result<JobRequest, WireError> {
        let obj = v
            .as_obj()
            .ok_or_else(|| WireError::Malformed("job request must be a JSON object".into()))?;
        let spec = SortSpec::from_json_value(
            json::find(obj, "spec")
                .ok_or_else(|| WireError::Malformed("missing \"spec\" object".into()))?,
        )?;
        let name = json::get_str(obj, "workload")
            .ok_or_else(|| WireError::Malformed("missing string field \"workload\"".into()))?;
        let workload = Workload::parse(&name)
            .ok_or_else(|| WireError::Malformed(format!("unknown workload {name:?}")))?;
        let input = match input {
            None => None,
            Some(arr) => Some(json::records_of(arr).map_err(|e| {
                WireError::Malformed(match e {
                    RecordsError::NotArray => "\"input\" must be an array".into(),
                    RecordsError::NotPair => "input records are [key, payload] pairs".into(),
                    e => e.to_string(),
                })
            })?),
        };
        // Inline input is authoritative for the record count; `records` is
        // only required for generator jobs.
        let records = match &input {
            Some(v) => v.len(),
            None => req_u64(obj, "records")? as usize,
        };
        let checkpoint = json::get_bool(obj, "checkpoint").unwrap_or(false);
        if let Some(runs) = spec.runs() {
            if input.is_none() {
                return Err(WireError::Malformed(
                    "\"runs\" name the runs of an inline \"input\"; there is none".into(),
                ));
            }
            if checkpoint {
                return Err(WireError::Malformed(
                    "a merge of given \"runs\" cannot be checkpointed".into(),
                ));
            }
            let total = runs
                .iter()
                .try_fold(0usize, |sum, &len| sum.checked_add(len));
            if total != Some(records) {
                return Err(WireError::Malformed(format!(
                    "\"runs\" {runs:?} do not sum to the input's {records} records"
                )));
            }
        }
        Ok(JobRequest {
            spec,
            workload,
            records,
            data_seed: json::get_u64(obj, "data_seed").unwrap_or(0),
            input,
            include_output: json::get_bool(obj, "include_output").unwrap_or(false),
            deadline_ms: json::get_u64(obj, "deadline_ms"),
            checkpoint,
        })
    }
}

/// Where a job is in its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Finished; telemetry is available.
    Completed,
    /// The sort itself failed (e.g. file backend I/O error), terminally —
    /// retryable failures re-queue until the attempt budget is spent.
    Failed,
    /// The deadline lapsed while the job was still queued; it never ran.
    Expired,
}

impl JobState {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Expired => "expired",
        }
    }

    /// Parse a stable name back.
    pub fn parse(name: &str) -> Option<JobState> {
        [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Expired,
        ]
        .into_iter()
        .find(|s| s.name() == name)
    }

    /// Whether the state is final: exactly one of completed / failed /
    /// expired, never left once entered.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Expired
        )
    }
}

/// Why a job failed terminally — the classification retry logic and
/// clients dispatch on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A transient I/O fault ([`ModelError::Io`](asym_model::ModelError)):
    /// the retryable class.
    Io,
    /// The sorter panicked; the worker caught it (`catch_unwind`). Fatal —
    /// a panic is a bug or an injected crash, not weather.
    Panic,
    /// Any other model or validation error. Fatal.
    Fatal,
}

impl FailureKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Io => "io",
            FailureKind::Panic => "panic",
            FailureKind::Fatal => "fatal",
        }
    }

    /// Parse a stable name back (audit replay uses this).
    pub fn parse(name: &str) -> Option<FailureKind> {
        [FailureKind::Io, FailureKind::Panic, FailureKind::Fatal]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// Whether a failure of this kind earns another attempt.
    pub fn retryable(self) -> bool {
        matches!(self, FailureKind::Io)
    }
}

/// A point-in-time view of one job, as returned by
/// [`SortService::status`](crate::SortService::status).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobStatus {
    /// The job.
    pub id: JobId,
    /// Lifecycle state at the time of the query.
    pub state: JobState,
    /// The admission-time prediction.
    pub predicted: CostEstimate,
    /// How many run attempts the job has consumed so far.
    pub attempts: u32,
    /// Completion telemetry ([`SortOutcome::to_json`]) once `Completed`.
    ///
    /// [`SortOutcome::to_json`]: asym_core::sort::SortOutcome::to_json
    pub telemetry: Option<String>,
    /// The most recent failure message (`Failed`, or a retried attempt).
    pub error: Option<String>,
    /// The failure classification once `Failed`.
    pub failure: Option<FailureKind>,
}

impl JobStatus {
    /// Render as JSON: id, state, the predicted bounds, and — depending on
    /// state — the nested outcome telemetry or the error message.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("id", self.id)
            .str("state", self.state.name())
            .u64("attempts", self.attempts as u64);
        let mut p = JsonObj::new();
        p.u64("reads", self.predicted.reads)
            .u64("writes", self.predicted.writes)
            .u64("peak_memory", self.predicted.peak_memory as u64)
            .u64("omega", self.predicted.omega)
            .u64("peak_bytes", self.predicted.peak_bytes())
            .u64("io_cost", self.predicted.io_cost());
        o.raw("predicted", &p.finish());
        if let Some(t) = &self.telemetry {
            o.raw("outcome", t);
        }
        if let Some(e) = &self.error {
            o.str("error", e);
        }
        if let Some(k) = self.failure {
            o.str("failure_kind", k.name());
        }
        o.finish()
    }

    /// Decode what [`to_json`](Self::to_json) renders, field for field.
    /// The derived `peak_bytes` and `io_cost` are recomputed, not read.
    pub fn from_json(text: &str) -> Result<JobStatus, WireError> {
        let (mut status, outcome) = JobStatus::decode(text)?;
        status.telemetry = outcome.as_ref().map(Json::render);
        Ok(status)
    }

    /// [`from_json`](Self::from_json) without rendering the outcome back
    /// to text: `telemetry` stays `None`, and the body's parsed `outcome`
    /// field, if any, comes back beside the status.
    pub(crate) fn decode(text: &str) -> Result<(JobStatus, Option<Json>), WireError> {
        let mut v = Json::parse(text).map_err(WireError::Malformed)?;
        let outcome = v.take("outcome");
        let obj = v
            .as_obj()
            .ok_or_else(|| WireError::Malformed("job status must be a JSON object".into()))?;
        let name = json::get_str(obj, "state")
            .ok_or_else(|| WireError::Malformed("missing string field \"state\"".into()))?;
        let state = JobState::parse(&name)
            .ok_or_else(|| WireError::Malformed(format!("unknown job state {name:?}")))?;
        let p = json::find(obj, "predicted")
            .and_then(Json::as_obj)
            .ok_or_else(|| WireError::Malformed("missing \"predicted\" object".into()))?;
        let failure = match json::get_str(obj, "failure_kind") {
            None => None,
            Some(k) => Some(
                FailureKind::parse(&k)
                    .ok_or_else(|| WireError::Malformed(format!("unknown failure kind {k:?}")))?,
            ),
        };
        let status = JobStatus {
            id: req_u64(obj, "id")?,
            state,
            predicted: CostEstimate {
                reads: req_u64(p, "reads")?,
                writes: req_u64(p, "writes")?,
                peak_memory: req_u64(p, "peak_memory")? as usize,
                omega: req_u64(p, "omega")?,
            },
            attempts: req_u64(obj, "attempts")? as u32,
            telemetry: None,
            error: json::get_str(obj, "error"),
            failure,
        };
        Ok((status, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_core::sort::{Algorithm, SpecError};

    fn request() -> JobRequest {
        JobRequest {
            spec: SortSpec::builder(Algorithm::ParSamplesort, 64, 8, 16)
                .k(2)
                .lanes(4)
                .seed(u64::MAX - 1)
                .build()
                .unwrap(),
            workload: Workload::Zipf,
            records: 5_000,
            data_seed: 0xDEAD_BEEF_DEAD_BEEF,
            input: None,
            include_output: true,
            deadline_ms: Some(2_500),
            checkpoint: false,
        }
    }

    #[test]
    fn checkpoint_flag_round_trips_and_reprices() {
        let r = request().checkpointed(true);
        let decoded = JobRequest::from_json(&r.to_json()).expect("decode");
        assert_eq!(decoded, r);
        assert!(decoded.checkpoint);
        assert_eq!(
            r.predict(),
            checkpoint::predict_staged(&r.spec, r.record_count()),
            "checkpointed jobs are priced by the staged envelope"
        );
        let plain = request();
        assert_eq!(plain.predict(), plain.spec.predict(plain.record_count()));
        assert!(
            !JobRequest::from_json(&plain.to_json()).unwrap().checkpoint,
            "absent flag defaults off"
        );
    }

    #[test]
    fn requests_round_trip() {
        let r = request();
        let decoded = JobRequest::from_json(&r.to_json()).expect("decode");
        assert_eq!(decoded, r);
    }

    #[test]
    fn inline_requests_round_trip_and_predict_on_payload_length() {
        let spec = SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
            .k(4)
            .build()
            .unwrap();
        let input: Vec<Record> = (0..300).map(|i| Record::new(999 - i, i)).collect();
        let r = JobRequest::inline(spec.clone(), input.clone());
        assert_eq!(r.records, 300);
        assert_eq!(r.record_count(), 300);
        assert!(r.include_output, "inline jobs want the sorted payload back");
        assert_eq!(r.predict(), spec.predict(300));
        let decoded = JobRequest::from_json(&r.to_json()).expect("decode");
        assert_eq!(decoded, r);
        assert_eq!(decoded.input.as_deref(), Some(&input[..]));
    }

    #[test]
    fn inline_length_is_authoritative_over_a_lying_records_field() {
        let text = r#"{ "spec": {"algorithm": "aem-mergesort", "m": 32, "b": 4, "omega": 8},
                        "workload": "uniform", "records": 7,
                        "input": [[5, 0], [3, 1], [4, 2]] }"#;
        let r = JobRequest::from_json(text).expect("decode");
        assert_eq!(r.records, 3, "records mirrors input.len()");
        assert_eq!(r.predict(), r.spec.predict(3));
    }

    #[test]
    fn malformed_inline_input_is_typed() {
        for (text, needle) in [
            (
                r#"{ "spec": {"algorithm": "aem-mergesort", "m": 32, "b": 4, "omega": 8},
                    "workload": "uniform", "input": 9 }"#,
                "must be an array",
            ),
            (
                r#"{ "spec": {"algorithm": "aem-mergesort", "m": 32, "b": 4, "omega": 8},
                    "workload": "uniform", "input": [[1, 2, 3]] }"#,
                "[key, payload] pairs",
            ),
            (
                r#"{ "spec": {"algorithm": "aem-mergesort", "m": 32, "b": 4, "omega": 8},
                    "workload": "uniform", "input": [[1, -2]] }"#,
                "payload must be a u64",
            ),
        ] {
            let err = JobRequest::from_json(text).unwrap_err();
            assert!(
                matches!(err, WireError::Malformed(ref m) if m.contains(needle)),
                "{text}: {err:?}"
            );
        }
    }

    /// A merge request: three sorted runs over M = 32, B = 4, k = 2.
    fn merge_request() -> JobRequest {
        let runs = [vec![1, 4, 9], vec![2, 3], vec![0, 5, 6, 7, 8]];
        let input: Vec<Record> = runs
            .concat()
            .into_iter()
            .enumerate()
            .map(|(i, k)| Record::new(k, i as u64))
            .collect();
        let spec = SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
            .k(2)
            .runs(runs.iter().map(Vec::len).collect())
            .build()
            .unwrap();
        JobRequest::inline(spec, input)
    }

    #[test]
    fn merge_requests_round_trip_and_predict_the_merge() {
        let r = merge_request();
        let text = r.to_json();
        assert!(text.contains("\"runs\": [3, 2, 5]"), "{text}");
        assert_eq!(JobRequest::from_json(&text), Ok(r.clone()));
        let est = r.predict();
        assert_eq!(
            est.writes, 3,
            "a merge writes each of its ten records' blocks once"
        );
        assert_eq!(est.peak_memory, 32 + 2 * 4 + 3);
        // A request without runs renders no "runs" key.
        let spec = SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
            .k(2)
            .build();
        let plain = JobRequest::inline(spec.unwrap(), r.input.clone().unwrap());
        assert!(!plain.to_json().contains("runs"));
    }

    #[test]
    fn unmergeable_runs_are_refused_at_decode() {
        let text = merge_request().to_json();
        let spec_err =
            |from: &str, to: &str| JobRequest::from_json(&text.replacen(from, to, 1)).unwrap_err();
        for (from, to, needle) in [
            ("[3, 2, 5]", "[3, 2, 4]", "do not sum to the input's 10"),
            (
                "[3, 2, 5]",
                "[18446744073709551615, 1, 10]",
                "do not sum to the input's 10",
            ),
            ("\"input\"", "\"dropped\"", "there is none"),
            (
                "\"include_output\": true",
                "\"include_output\": true, \"checkpoint\": true",
                "cannot be checkpointed",
            ),
        ] {
            let err = spec_err(from, to);
            assert!(
                matches!(err, WireError::Malformed(ref m) if m.contains(needle)),
                "{to}: {err:?}"
            );
        }
        for (from, to, want) in [
            (
                "[3, 2, 5]",
                "[3, 0, 2, 5]",
                SpecError::EmptyRun { index: 1 },
            ),
            (
                "aem-mergesort",
                "aem-samplesort",
                SpecError::RunsNeedMergesort {
                    algorithm: Algorithm::Samplesort,
                },
            ),
            (
                "[3, 2, 5]",
                "[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]",
                SpecError::TooManyRuns {
                    runs: 17,
                    fan_in: 16,
                },
            ),
        ] {
            assert_eq!(spec_err(from, to), WireError::Spec(want), "{to}");
        }
    }

    #[test]
    fn optional_fields_default() {
        let text = r#"{ "spec": {"algorithm": "aem-mergesort", "m": 32, "b": 4, "omega": 8},
                        "workload": "uniform", "records": 100 }"#;
        let r = JobRequest::from_json(text).expect("decode");
        assert_eq!(r.data_seed, 0);
        assert!(!r.include_output);
        assert_eq!(r.deadline_ms, None, "no deadline unless asked for");
    }

    #[test]
    fn bad_requests_are_typed() {
        for (text, needle) in [
            ("42", "must be a JSON object"),
            (r#"{"workload": "zipf", "records": 9}"#, "\"spec\""),
            (
                r#"{ "spec": {"algorithm": "aem-mergesort", "m": 32, "b": 4, "omega": 8},
                    "workload": "cauchy", "records": 9 }"#,
                "unknown workload",
            ),
            (
                r#"{ "spec": {"algorithm": "aem-mergesort", "m": 32, "b": 4, "omega": 8},
                    "workload": "zipf" }"#,
                "\"records\"",
            ),
        ] {
            let err = JobRequest::from_json(text).unwrap_err();
            assert!(
                matches!(err, WireError::Malformed(ref m) if m.contains(needle)),
                "{text}: {err:?}"
            );
        }
        // Spec errors pass through typed, not stringified.
        let err = JobRequest::from_json(
            r#"{ "spec": {"algorithm": "aem-mergesort", "m": 4, "b": 32, "omega": 8},
                "workload": "zipf", "records": 9 }"#,
        )
        .unwrap_err();
        assert!(matches!(err, WireError::Spec(_)), "{err:?}");
    }

    #[test]
    fn status_renders_state_and_prediction() {
        let r = request();
        let status = JobStatus {
            id: 7,
            state: JobState::Completed,
            predicted: r.predict(),
            attempts: 2,
            telemetry: Some(r#"{ "reads": 1 }"#.into()),
            error: None,
            failure: None,
        };
        // The derived bounds ride along for readers; from_json recomputes
        // them from the four stored fields.
        let v = Json::parse(&status.to_json()).expect("parses");
        let p = v.get("predicted").expect("predicted");
        assert_eq!(
            p.get("peak_bytes").and_then(Json::as_u64),
            Some(r.predict().peak_bytes())
        );
        assert_eq!(
            p.get("io_cost").and_then(Json::as_u64),
            Some(r.predict().io_cost())
        );

        // from_json inverts to_json in every state: queued through
        // completed, failed with each failure kind, and expired.
        let mut statuses = vec![status];
        for state in [JobState::Queued, JobState::Running, JobState::Expired] {
            statuses.push(JobStatus {
                state,
                telemetry: None,
                ..statuses[0].clone()
            });
        }
        for kind in [FailureKind::Io, FailureKind::Panic, FailureKind::Fatal] {
            statuses.push(JobStatus {
                state: JobState::Failed,
                telemetry: None,
                error: Some(format!("attempt died: \"{}\"", kind.name())),
                failure: Some(kind),
                ..statuses[0].clone()
            });
        }
        for s in statuses {
            assert_eq!(JobStatus::from_json(&s.to_json()).as_ref(), Ok(&s));
        }
    }

    #[test]
    fn submit_errors_round_trip() {
        use crate::{Refusal, SubmitError};
        for e in [
            SubmitError::Rejected(Refusal::Budget {
                predicted: 4096,
                available: 1024,
            }),
            SubmitError::Rejected(Refusal::Io {
                predicted: 68,
                available: 1,
            }),
            SubmitError::Rejected(Refusal::Deadline {
                eta_ms: 90,
                deadline_ms: 1,
            }),
            SubmitError::Draining,
            SubmitError::Unlogged {
                error: "No space left on device (os error 28)".into(),
            },
        ] {
            assert_eq!(SubmitError::from_json(&e.to_json()), Ok(e));
        }
        assert!(matches!(
            SubmitError::from_json(r#"{"error": "busy"}"#),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_statuses_are_typed() {
        for (text, needle) in [
            ("{ nope", ""),
            ("[1]", "must be a JSON object"),
            (r#"{"id": 1, "attempts": 0}"#, "\"state\""),
            (r#"{"id": 1, "state": "asleep"}"#, "unknown job state"),
            (
                r#"{"id": 1, "state": "queued", "attempts": 0}"#,
                "\"predicted\"",
            ),
            (
                r#"{"id": 1, "state": "queued", "attempts": 0,
                    "predicted": {"reads": 1, "writes": 1, "peak_memory": 1}}"#,
                "\"omega\"",
            ),
            (
                r#"{"id": 1, "state": "failed", "attempts": 1, "failure_kind": "luck",
                    "predicted": {"reads": 1, "writes": 1, "peak_memory": 1, "omega": 8}}"#,
                "unknown failure kind",
            ),
        ] {
            let err = JobStatus::from_json(text).unwrap_err();
            assert!(
                matches!(err, WireError::Malformed(ref m) if m.contains(needle)),
                "{text}: {err:?}"
            );
        }
    }

    #[test]
    fn states_and_failure_kinds_have_stable_names() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Expired,
        ] {
            assert_eq!(JobState::parse(s.name()), Some(s));
            assert_eq!(
                s.is_terminal(),
                matches!(
                    s,
                    JobState::Completed | JobState::Failed | JobState::Expired
                )
            );
        }
        for k in [FailureKind::Io, FailureKind::Panic, FailureKind::Fatal] {
            assert_eq!(FailureKind::parse(k.name()), Some(k));
        }
        assert_eq!(FailureKind::parse("luck"), None);
        assert!(FailureKind::Io.retryable());
        assert!(!FailureKind::Panic.retryable());
        assert!(!FailureKind::Fatal.retryable());
    }
}
