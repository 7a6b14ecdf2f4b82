//! Merge jobs through the service: a request whose spec names its inline
//! input's sorted runs is merged in one pass, not sorted from scratch.
//! Requests that cannot be merged as one inline job are refused at the
//! door (`400` over HTTP, a `WireError` in process); a run found out of
//! order fails its job as fatal, once, with no worker panic; and a merge
//! job killed while queued recovers into the run an uninterrupted service
//! gives.

use asym_core::sort::{SortOutcome, SortSpec, WireError};
use asym_model::json::Json;
use asym_model::Record;
use asym_serve::client::roundtrip;
use asym_serve::{
    serve, AuditEvent, FailureKind, JobRequest, JobState, ServiceConfig, SortService,
};
use std::path::PathBuf;

fn fresh_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asym-merge-jobs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An inline job over `runs` laid end to end, naming their lengths, on
/// M = 64, B = 8, k = 2 (fan-in 16). Payloads number the records.
fn merge_request(runs: &[Vec<u64>]) -> JobRequest {
    let input: Vec<Record> = runs
        .concat()
        .into_iter()
        .enumerate()
        .map(|(i, key)| Record::new(key, i as u64))
        .collect();
    let spec = SortSpec::builder(asym_core::sort::Algorithm::Mergesort, 64, 8, 16)
        .k(2)
        .runs(runs.iter().map(Vec::len).collect())
        .build()
        .expect("valid merge spec");
    JobRequest::inline(spec, input)
}

/// Three sorted runs with partial last blocks and keys shared across runs.
fn sorted_runs() -> Vec<Vec<u64>> {
    let mut x = 0x3e76e_u64;
    [300usize, 257, 1]
        .iter()
        .map(|&len| {
            let mut run: Vec<u64> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % 400
                })
                .collect();
            run.sort_unstable();
            run
        })
        .collect()
}

fn outcome(telemetry: &str) -> SortOutcome {
    SortOutcome::from_json(telemetry).expect("telemetry decodes")
}

#[test]
fn unmergeable_requests_are_a_400_over_http_and_a_wire_error_in_process() {
    let root = fresh_root("refusals");
    let service = SortService::start(ServiceConfig::new(1, 1 << 30, root.clone())).expect("start");
    let mut server = serve(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let good = merge_request(&sorted_runs());
    let text = good.to_json();
    assert!(text.contains("\"runs\": [300, 257, 1]"), "{text}");
    let ones = format!("[{}]", vec!["1"; 17].join(", "));
    for (from, to, error) in [
        // Lengths that do not sum to the input's.
        ("[300, 257, 1]", "[300, 257, 2]", "malformed"),
        // A zero-length run.
        ("[300, 257, 1]", "[300, 0, 257, 1]", "spec"),
        // Runs without an inline input.
        ("\"input\"", "\"unused\"", "malformed"),
        // Runs on a checkpointed job.
        (
            "\"include_output\": true",
            "\"include_output\": true, \"checkpoint\": true",
            "malformed",
        ),
        // Runs on another algorithm.
        ("aem-mergesort", "aem-samplesort", "spec"),
        // More runs than the fan-in kM/B = 16.
        ("[300, 257, 1]", ones.as_str(), "spec"),
    ] {
        let bad = text.replacen(from, to, 1);
        assert_ne!(bad, text, "{to}: the edit must apply");
        let err = JobRequest::from_json(&bad).unwrap_err();
        assert_eq!(
            matches!(err, WireError::Spec(_)),
            error == "spec",
            "{to}: {err:?}"
        );
        let (code, body) = roundtrip(addr, "POST", "/jobs", &bad).expect("submit");
        assert_eq!(code, 400, "{to}: {body}");
        let v = Json::parse(&body).expect("error body parses");
        assert_eq!(v.get("error").and_then(Json::as_str), Some(error), "{body}");
    }

    // The well-formed merge is admitted and merged: its writes are the
    // predicted ⌈n/B⌉ exactly.
    let (code, body) = roundtrip(addr, "POST", "/jobs", &text).expect("submit");
    assert_eq!(code, 202, "{body}");
    let id = Json::parse(&body)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_u64))
        .expect("202 carries an id");
    let status = asym_serve::client::wait(addr, id).expect("wait");
    assert_eq!(status.state, JobState::Completed, "{status:?}");
    let out = outcome(status.telemetry.as_deref().expect("telemetry"));
    let mut want = good.input.clone().expect("inline input");
    want.sort_unstable();
    assert_eq!(out.output, want);
    assert_eq!(out.stats.block_writes, 558u64.div_ceil(8));
    assert_eq!(status.predicted, good.predict());
    assert_eq!(out.stats.block_writes, status.predicted.writes);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_run_out_of_order_fails_its_job_as_fatal_without_a_retry() {
    let root = fresh_root("disorder");
    let service = SortService::start(ServiceConfig::new(1, 1 << 30, root.clone())).expect("start");
    let within_a_block = vec![vec![1, 2, 3, 5, 4, 6, 7, 8, 9], vec![2, 3]];
    // Blocks of B = 8 each sorted, but the run descends across their
    // boundary.
    let across_blocks = vec![(10..18).chain(0..8).collect(), vec![2, 3]];
    for runs in [within_a_block, across_blocks] {
        let id = service.submit(merge_request(&runs)).expect("admitted");
        let status = service.wait(id).expect("known job");
        assert_eq!(status.state, JobState::Failed, "{runs:?}: {status:?}");
        assert_eq!(status.failure, Some(FailureKind::Fatal), "{status:?}");
        assert_eq!(status.attempts, 1, "a fatal failure is not retried");
        assert!(
            status.error.as_deref().is_some_and(|e| e.contains("sort")),
            "{status:?}"
        );
    }
    // The worker is alive: a good merge still completes.
    let id = service
        .submit(merge_request(&sorted_runs()))
        .expect("admitted");
    assert_eq!(
        service.wait(id).expect("known job").state,
        JobState::Completed
    );
    service.drain();
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

/// The `completed` line's output digest of job `id` in `root`'s log.
fn logged_digest(root: &std::path::Path, id: u64) -> Option<u64> {
    let text = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    text.lines()
        .find_map(|line| match AuditEvent::from_json(line) {
            Ok(AuditEvent::Completed {
                id: done,
                output_digest,
                ..
            }) if done == id => output_digest,
            _ => None,
        })
}

#[test]
fn a_merge_job_killed_while_queued_recovers_into_the_uninterrupted_run() {
    let request = merge_request(&sorted_runs());

    let clean_root = fresh_root("clean");
    let clean =
        SortService::start(ServiceConfig::new(1, 1 << 30, clean_root.clone())).expect("start");
    let id = clean.submit(request.clone()).expect("admitted");
    let want = clean.wait(id).expect("known job");
    assert_eq!(want.state, JobState::Completed, "{want:?}");
    clean.drain();
    drop(clean);

    let root = fresh_root("killed");
    let cfg = ServiceConfig::new(1, 1 << 30, root.clone());
    let service = SortService::start(cfg.clone()).expect("start");
    service.hold();
    assert_eq!(service.submit(request).expect("admitted"), id);
    service.kill();
    drop(service);
    let log = std::fs::read_to_string(root.join("audit.jsonl")).expect("audit");
    let accepted = log.lines().next().expect("the accepted line");
    assert!(accepted.contains("\"runs\": [300, 257, 1]"), "{accepted}");
    assert_eq!(
        AuditEvent::from_json(accepted).expect("decodes").to_json(),
        accepted
    );

    let (service, report) = SortService::recover(cfg).expect("recover");
    assert_eq!((report.requeued, report.restored), (1, 0));
    let got = service.wait(id).expect("known job");
    assert_eq!(got.state, JobState::Completed, "{got:?}");
    assert_eq!(got.predicted, want.predicted);
    let (got_out, want_out) = (
        outcome(got.telemetry.as_deref().expect("telemetry")),
        outcome(want.telemetry.as_deref().expect("telemetry")),
    );
    assert_eq!(got_out.stats, want_out.stats);
    assert_eq!(got_out.output, want_out.output);
    service.drain();
    drop(service);
    let digest = logged_digest(&root, id);
    assert!(digest.is_some());
    assert_eq!(digest, logged_digest(&clean_root, id));

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&clean_root);
}
