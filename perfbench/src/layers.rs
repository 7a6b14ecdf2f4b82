//! Per-layer measurements on a run's real payloads, outside any timed
//! pass: the job codecs, admission's `predict()`, the in-process service,
//! the sort engines run directly, and an `em_sim` streaming probe.

use crate::stats::median;
use asym_core::sort::{self, MemCheckpointer, SortOutcome};
use asym_model::Record;
use asym_serve::{JobRequest, ServiceConfig, SortService};
use em_sim::{EmConfig, EmMachine, EmVec, EmWriter, FileStore};
use std::path::Path;
use std::time::Instant;

/// Run every request directly with `sort::run` and check the output is
/// sorted: the bit-for-bit references served jobs' telemetry must equal.
pub fn direct_runs(requests: &[JobRequest]) -> Result<Vec<SortOutcome>, String> {
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let input = crate::sortload::materialize(r);
            let outcome = sort::run(&r.spec, &input).map_err(|e| format!("direct run {i}: {e}"))?;
            if outcome.output.len() != input.len()
                || !asym_model::record::is_sorted(&outcome.output)
            {
                return Err(format!("direct run {i}: output is not sorted"));
            }
            Ok(outcome)
        })
        .collect()
}

/// Does a served outcome (decoded telemetry, no payload unless requested)
/// carry exactly the direct run's stats?
pub fn same_stats(served: &SortOutcome, direct: &SortOutcome) -> bool {
    served.stats == direct.stats
        && served.report == direct.report
        && served.parallel == direct.parallel
}

/// Means per request of each layer's cost.
#[derive(Default)]
pub struct Replay {
    pub request_encode_ms: f64,
    pub request_decode_ms: f64,
    pub outcome_encode_ms: f64,
    pub outcome_decode_ms: f64,
    pub predict_us: f64,
    pub submit_us: f64,
    pub overhead_ms: f64,
    pub run_ms: f64,
    pub staged_ms: f64,
    pub manifest_bytes: f64,
}

/// Push each request through every layer in turn: encode and decode it,
/// price it, run it directly (single-shot and staged), render and parse its
/// outcome, then submit it to an in-process service on `root` and wait; the
/// service's overhead is that turnaround minus the direct run just before
/// it. `direct` are the same requests' [`direct_runs`].
pub fn replay(
    requests: &[JobRequest],
    direct: &[SortOutcome],
    root: &Path,
) -> Result<Replay, String> {
    let service = SortService::start(ServiceConfig::new(1, 1 << 30, root))
        .map_err(|e| format!("start replay service: {e}"))?;
    let mut sum = Replay::default();
    for (r, d) in requests.iter().zip(direct) {
        let t = Instant::now();
        let body = r.to_json();
        sum.request_encode_ms += ms(t);
        let t = Instant::now();
        let decoded = JobRequest::from_json(&body).map_err(|e| format!("request decode: {e}"))?;
        sum.request_decode_ms += ms(t);
        if decoded != *r {
            return Err("request does not round-trip through its codec".into());
        }

        let reps = 64;
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(std::hint::black_box(r).predict());
        }
        sum.predict_us += ms(t) * 1e3 / reps as f64;

        let input: Vec<Record> = crate::sortload::materialize(r);
        let mut sink = MemCheckpointer::default();
        let t = Instant::now();
        let staged =
            sort::run_staged(&r.spec, &input, &mut sink).map_err(|e| format!("staged run: {e}"))?;
        let staged_ms = ms(t);
        if staged.output != d.output {
            return Err("staged output differs from the single-shot run".into());
        }
        let t = Instant::now();
        std::hint::black_box(sort::run(&r.spec, &input).map_err(|e| format!("direct run: {e}"))?);
        let run_ms = ms(t);
        sum.staged_ms += staged_ms;
        sum.run_ms += run_ms;
        sum.manifest_bytes += sink
            .manifests
            .iter()
            .map(|x| x.to_json().len())
            .sum::<usize>() as f64;

        let t = Instant::now();
        let telemetry = d.to_json(r.include_output);
        sum.outcome_encode_ms += ms(t);
        let t = Instant::now();
        let back =
            SortOutcome::from_json(&telemetry).map_err(|e| format!("outcome decode: {e}"))?;
        sum.outcome_decode_ms += ms(t);
        if !same_stats(&back, d) {
            return Err("outcome does not round-trip through its codec".into());
        }

        let t = Instant::now();
        let id = service
            .submit(r.clone())
            .map_err(|e| format!("in-process submit: {e}"))?;
        sum.submit_us += ms(t) * 1e3;
        let status = service.wait(id).ok_or("in-process job vanished")?;
        let telemetry = status.telemetry.ok_or("in-process job has no telemetry")?;
        SortOutcome::from_json(&telemetry).map_err(|e| format!("in-process outcome: {e}"))?;
        let engine_ms = if r.checkpoint { staged_ms } else { run_ms };
        sum.overhead_ms += ms(t) - engine_ms;
    }
    service.drain();
    drop(service);
    let _ = std::fs::remove_dir_all(root);
    let n = requests.len().max(1) as f64;
    Ok(Replay {
        request_encode_ms: sum.request_encode_ms / n,
        request_decode_ms: sum.request_decode_ms / n,
        outcome_encode_ms: sum.outcome_encode_ms / n,
        outcome_decode_ms: sum.outcome_decode_ms / n,
        predict_us: sum.predict_us / n,
        submit_us: sum.submit_us / n,
        overhead_ms: sum.overhead_ms / n,
        run_ms: sum.run_ms / n,
        staged_ms: sum.staged_ms / n,
        manifest_bytes: sum.manifest_bytes / n,
    })
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `em_sim` streaming probe on one backend: µs per block transfer and
/// records streamed per second, medians of five write-then-read sweeps of
/// `records` through an `EmWriter` and an `EmReader`.
pub struct StoreProbe {
    pub us_per_io: f64,
    pub recs_per_s: f64,
}

pub fn store_probe(file_dir: Option<&Path>, records: &[Record]) -> Result<StoreProbe, String> {
    let cfg = EmConfig::new(
        crate::sortload::M,
        crate::sortload::B,
        crate::sortload::OMEGA,
    );
    let machine = match file_dir {
        None => EmMachine::new(cfg),
        Some(dir) => EmMachine::with_store(
            cfg,
            Box::new(FileStore::new_in(dir, cfg.b).map_err(|e| format!("file store: {e}"))?),
        ),
    };
    let (mut per_io, mut rate) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let before = machine.stats();
        let t = Instant::now();
        let mut w = EmWriter::new(&machine).map_err(|e| format!("writer: {e}"))?;
        w.extend(records.iter().copied());
        let vec: EmVec = w.finish();
        let back = vec
            .reader(&machine)
            .map_err(|e| format!("reader: {e}"))?
            .drain();
        let secs = t.elapsed().as_secs_f64();
        let after = machine.stats();
        if back != records {
            return Err("store probe read back different records".into());
        }
        vec.free(&machine);
        let ios =
            (after.block_reads - before.block_reads) + (after.block_writes - before.block_writes);
        per_io.push(secs * 1e6 / ios as f64);
        rate.push(2.0 * records.len() as f64 / secs);
    }
    Ok(StoreProbe {
        us_per_io: median(&per_io),
        recs_per_s: median(&rate),
    })
}
