//! The JSON wire format: [`SortSpec`] and [`SortOutcome`] as network
//! payloads.
//!
//! `SortSpec` was already a validated, serializable-in-spirit job
//! description; this module makes it an actual wire format so jobs can
//! arrive over HTTP (the `asym-serve` front door), from config files, or
//! from replayed audit logs. Everything is built on the dependency-free
//! [`asym_model::json`] codec, and every failure is typed:
//!
//! * syntactic problems (bad JSON, missing fields, unknown names) are
//!   [`WireError::Malformed`];
//! * semantically invalid job descriptions surface the builder's
//!   [`SpecError`] verbatim as [`WireError::Spec`] — the wire layer adds no
//!   second validation path, it routes through [`SortSpecBuilder::build`]
//!   like every other caller.
//!
//! [`WireError::to_json`] renders either case as a structured error payload
//! (`{"error": ..., "kind": ..., "message": ...}`) so HTTP clients can
//! dispatch on `kind` instead of parsing prose.
//!
//! Integers cross the wire exactly — record keys and seeds are full-range
//! `u64`, which is why [`asym_model::json`] keeps bare digit runs out of
//! `f64` (see `Json::Int`). Round trips are property-tested in
//! `tests/wire_roundtrip.rs`.
//!
//! [`SortSpecBuilder::build`]: super::spec::SortSpecBuilder::build

use super::adapters::{ParData, SortOutcome};
use super::spec::{Algorithm, SortSpec, SpecError};
use asym_model::json::{self, Json, JsonArr, JsonObj, RecordsError};
use asym_model::Record;
use em_sim::{Backend, EmStats, FaultSpec};
use std::borrow::Cow;
use wd_sim::{Cost, StealStats};

/// Why a wire payload failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The document is not JSON, or not the expected shape (missing or
    /// ill-typed fields, unknown algorithm/backend/phase names).
    Malformed(String),
    /// The document decoded fine but describes an invalid job.
    Spec(SpecError),
}

impl WireError {
    /// Render as a structured error payload. `Malformed` carries its
    /// message; `Spec` carries a stable `kind` slug plus the variant's
    /// fields, so clients dispatch on structure rather than prose.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        match self {
            WireError::Malformed(msg) => {
                o.str("error", "malformed").str("message", msg);
            }
            WireError::Spec(e) => {
                o.str("error", "spec")
                    .str("kind", spec_error_kind(e))
                    .str("message", &e.to_string());
                match e {
                    SpecError::BlockExceedsMemory { b, m } => {
                        o.u64("b", *b as u64).u64("m", *m as u64);
                    }
                    SpecError::FanInTooSmall { fan_in } => {
                        o.u64("fan_in", *fan_in as u64);
                    }
                    SpecError::LanesOnSerialSort { algorithm, lanes } => {
                        o.str("algorithm", algorithm.name())
                            .u64("lanes", *lanes as u64);
                    }
                    SpecError::GeometryOverflow { m, k } => {
                        o.u64("m", *m as u64).u64("k", *k as u64);
                    }
                    SpecError::FaultRate { field, permille } => {
                        o.str("field", field).u64("permille", *permille as u64);
                    }
                    SpecError::Env {
                        var,
                        value,
                        expected,
                    } => {
                        o.str("var", var)
                            .str("value", value)
                            .str("expected", expected);
                    }
                    _ => {}
                }
            }
        }
        o.finish()
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            WireError::Spec(e) => write!(f, "invalid job description: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<SpecError> for WireError {
    fn from(e: SpecError) -> Self {
        WireError::Spec(e)
    }
}

/// The stable machine-readable slug for each [`SpecError`] variant.
fn spec_error_kind(e: &SpecError) -> &'static str {
    match e {
        SpecError::ZeroOmega => "zero_omega",
        SpecError::ZeroBlock => "zero_block",
        SpecError::BlockExceedsMemory { .. } => "block_exceeds_memory",
        SpecError::ZeroWriteFactor => "zero_write_factor",
        SpecError::FanInTooSmall { .. } => "fan_in_too_small",
        SpecError::ZeroLanes => "zero_lanes",
        SpecError::LanesOnSerialSort { .. } => "lanes_on_serial_sort",
        SpecError::GeometryOverflow { .. } => "geometry_overflow",
        SpecError::FaultRate { .. } => "fault_rate",
        SpecError::Env { .. } => "env",
    }
}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// A required numeric field of a decoded object, or a typed
/// [`WireError::Malformed`] naming it.
pub fn req_u64(obj: &[(String, Json)], key: &str) -> Result<u64, WireError> {
    json::get_u64(obj, key).ok_or_else(|| malformed(format!("missing numeric field {key:?}")))
}

impl SortSpec {
    /// Render the job description as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("algorithm", self.algorithm().name())
            .u64("m", self.m() as u64)
            .u64("b", self.b() as u64)
            .u64("omega", self.omega())
            .u64("k", self.k() as u64)
            .u64("lanes", self.lanes() as u64)
            .str("backend", self.backend().name())
            .u64("seed", self.seed())
            .u64("slack", self.slack() as u64)
            .bool("steal_charge", self.steal_charge());
        if let Some(dir) = self.file_dir() {
            o.str("file_dir", &dir.display().to_string());
        }
        if let Some(f) = self.fault() {
            let mut fo = JsonObj::new();
            fo.u64("seed", f.seed)
                .u64("read_permille", f.read_permille as u64)
                .u64("write_permille", f.write_permille as u64)
                .u64("short_permille", f.short_permille as u64)
                .u64("panic_permille", f.panic_permille as u64);
            o.raw("fault", &fo.finish());
        }
        o.finish()
    }

    /// Decode a job description, validating through the normal builder.
    /// Required fields: `algorithm`, `m`, `b`, `omega`; everything else
    /// defaults like [`SortSpec::builder`].
    pub fn from_json(text: &str) -> Result<SortSpec, WireError> {
        let v = Json::parse(text).map_err(WireError::Malformed)?;
        Self::from_json_value(&v)
    }

    /// Decode from an already-parsed [`Json`] value (e.g. a field of a
    /// larger request object).
    pub fn from_json_value(v: &Json) -> Result<SortSpec, WireError> {
        let obj = v
            .as_obj()
            .ok_or_else(|| malformed("spec must be a JSON object"))?;
        let name = json::get_str(obj, "algorithm")
            .ok_or_else(|| malformed("missing string field \"algorithm\""))?;
        let algorithm = Algorithm::parse(&name)
            .ok_or_else(|| malformed(format!("unknown algorithm {name:?}")))?;
        let m = req_u64(obj, "m")? as usize;
        let b = req_u64(obj, "b")? as usize;
        let omega = req_u64(obj, "omega")?;
        let mut builder = SortSpec::builder(algorithm, m, b, omega);
        if let Some(k) = json::get_u64(obj, "k") {
            builder = builder.k(k as usize);
        }
        if let Some(lanes) = json::get_u64(obj, "lanes") {
            builder = builder.lanes(lanes as usize);
        }
        if let Some(seed) = json::get_u64(obj, "seed") {
            builder = builder.seed(seed);
        }
        if let Some(slack) = json::get_u64(obj, "slack") {
            builder = builder.slack(slack as usize);
        }
        if let Some(on) = json::get_bool(obj, "steal_charge") {
            builder = builder.steal_charge(on);
        }
        if let Some(name) = json::get_str(obj, "backend") {
            let backend = Backend::parse(&name)
                .ok_or_else(|| malformed(format!("unknown backend {name:?}")))?;
            builder = builder.backend(backend);
        }
        if let Some(dir) = json::get_str(obj, "file_dir") {
            builder = builder.file_dir(dir);
        }
        if let Some(fv) = json::find(obj, "fault") {
            let fo = fv
                .as_obj()
                .ok_or_else(|| malformed("\"fault\" must be an object"))?;
            // Rates clamp into u16 here; the builder rejects anything over
            // 1000 permille with a typed error either way.
            let rate = |key| json::get_u64(fo, key).unwrap_or(0).min(u16::MAX as u64) as u16;
            builder = builder.fault(Some(FaultSpec {
                seed: json::get_u64(fo, "seed").unwrap_or(0),
                read_permille: rate("read_permille"),
                write_permille: rate("write_permille"),
                short_permille: rate("short_permille"),
                panic_permille: rate("panic_permille"),
            }));
        }
        builder.build().map_err(WireError::Spec)
    }
}

// ---- outcome telemetry ------------------------------------------------------

/// The parallel phase names that can appear on the wire (the fixed phase
/// sequence of the parallel sample sort, plus the appended steal-warm-up
/// phase). Decoding interns onto these `'static` names.
const PHASE_NAMES: [&str; 6] = [
    "sample-scan",
    "splitter-sort",
    "count",
    "exchange",
    "bucket-sort",
    "steal-warmup",
];

fn intern_phase(name: &str) -> Option<&'static str> {
    PHASE_NAMES.iter().find(|p| **p == name).copied()
}

fn stats_json(s: &EmStats) -> String {
    let mut o = JsonObj::new();
    o.u64("reads", s.block_reads)
        .u64("writes", s.block_writes)
        .u64("peak_memory", s.peak_memory as u64);
    o.finish()
}

fn stats_from(v: &Json, what: &str) -> Result<EmStats, WireError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| malformed(format!("{what} must be an object")))?;
    Ok(EmStats {
        block_reads: req_u64(obj, "reads")?,
        block_writes: req_u64(obj, "writes")?,
        peak_memory: req_u64(obj, "peak_memory")? as usize,
    })
}

fn cost_json(c: &Cost) -> String {
    let mut o = JsonObj::new();
    o.u64("reads", c.reads)
        .u64("writes", c.writes)
        .u64("depth", c.depth);
    o.finish()
}

fn cost_from(v: &Json, what: &str) -> Result<Cost, WireError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| malformed(format!("{what} must be an object")))?;
    Ok(Cost {
        reads: req_u64(obj, "reads")?,
        writes: req_u64(obj, "writes")?,
        depth: req_u64(obj, "depth")?,
    })
}

impl SortOutcome {
    /// Render the outcome as JSON telemetry: the merged stats, ω, the
    /// weighted total, `output_len`, per-lane / per-phase / scheduler
    /// detail for parallel runs, and — only when `include_output` — the
    /// sorted records themselves as `[key, payload]` pairs (telemetry
    /// consumers usually want counts, not payload bytes). A lean outcome
    /// holds no records, so it is rendered without them.
    pub fn to_json(&self, include_output: bool) -> String {
        let mut o = JsonObj::new();
        o.u64("reads", self.stats.block_reads)
            .u64("writes", self.stats.block_writes)
            .u64("peak_memory", self.stats.peak_memory as u64)
            .u64("omega", self.report.omega)
            .u64("io_cost", self.io_cost())
            .u64("output_len", self.output_len as u64);
        if include_output {
            o.records("output", &self.output);
        }
        if let Some(par) = &self.parallel {
            let mut p = JsonObj::new();
            let mut lanes = JsonArr::new();
            for lane in &par.lane_stats {
                lanes.raw(&stats_json(lane));
            }
            p.raw("lane_stats", &lanes.finish());
            let mut phases = JsonArr::new();
            for (name, cost) in &par.phase_costs {
                let mut ph = JsonObj::new();
                ph.str("name", name).raw("cost", &cost_json(cost));
                phases.raw(&ph.finish());
            }
            p.raw("phases", &phases.finish());
            p.raw("cost", &cost_json(&par.cost));
            let mut sched = JsonObj::new();
            sched
                .u64("steals", par.sched.steals)
                .u64("failed_steals", par.sched.failed_steals)
                .u64("time", par.sched.time)
                .u64("work", par.sched.work)
                .u64("depth", par.sched.depth);
            p.raw("sched", &sched.finish());
            p.raw("steal_warmup", &stats_json(&par.steal_warmup));
            o.raw("parallel", &p.finish());
        }
        o.finish()
    }

    /// Decode telemetry back into a [`SortOutcome`]. An absent `output`
    /// field (telemetry without payload) decodes as an empty output vector
    /// that keeps the logged `output_len`; an absent `output_len` falls
    /// back to the output's length, and an `output` whose length disagrees
    /// with it is malformed.
    pub fn from_json(text: &str) -> Result<SortOutcome, WireError> {
        let mut v = Json::parse(text).map_err(WireError::Malformed)?;
        let output = v.take("output");
        Self::decode(&v, output.map(Cow::Owned))
    }

    /// Decode from an already-parsed [`Json`] value (e.g. the `outcome`
    /// field of an audit line).
    pub fn from_json_value(v: &Json) -> Result<SortOutcome, WireError> {
        Self::decode(v, v.get("output").map(Cow::Borrowed))
    }

    /// Decode `v`, whose `output` field is `output`: borrowed from `v`, or
    /// taken out of a tree the caller owns, so its records move rather
    /// than copy.
    fn decode(v: &Json, output: Option<Cow<'_, Json>>) -> Result<SortOutcome, WireError> {
        let obj = v
            .as_obj()
            .ok_or_else(|| malformed("outcome must be a JSON object"))?;
        let stats = EmStats {
            block_reads: req_u64(obj, "reads")?,
            block_writes: req_u64(obj, "writes")?,
            peak_memory: req_u64(obj, "peak_memory")? as usize,
        };
        let omega = req_u64(obj, "omega")?;
        let has_output = output.is_some();
        let output = match output {
            None => Vec::new(),
            Some(arr) => json::records_of(arr).map_err(|e| match e {
                RecordsError::NotArray => malformed("\"output\" must be an array"),
                RecordsError::NotPair => malformed("output records are [key, payload] pairs"),
                e => malformed(e.to_string()),
            })?,
        };
        let output_len = match json::find(obj, "output_len") {
            None => output.len(),
            Some(_) => {
                let len = req_u64(obj, "output_len")? as usize;
                if has_output && len != output.len() {
                    return Err(malformed(format!(
                        "\"output\" holds {} records but \"output_len\" is {len}",
                        output.len()
                    )));
                }
                len
            }
        };
        let parallel = match json::find(obj, "parallel") {
            None => None,
            Some(p) => {
                let po = p
                    .as_obj()
                    .ok_or_else(|| malformed("\"parallel\" must be an object"))?;
                let lane_stats = json::find(po, "lane_stats")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| malformed("missing \"lane_stats\" array"))?
                    .iter()
                    .map(|v| stats_from(v, "lane stats"))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut phase_costs = Vec::new();
                for ph in json::find(po, "phases")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| malformed("missing \"phases\" array"))?
                {
                    let pho = ph
                        .as_obj()
                        .ok_or_else(|| malformed("phase must be an object"))?;
                    let name = json::get_str(pho, "name")
                        .ok_or_else(|| malformed("phase missing \"name\""))?;
                    let name = intern_phase(&name)
                        .ok_or_else(|| malformed(format!("unknown phase {name:?}")))?;
                    let cost = cost_from(
                        json::find(pho, "cost").ok_or_else(|| malformed("phase missing cost"))?,
                        "phase cost",
                    )?;
                    phase_costs.push((name, cost));
                }
                let cost = cost_from(
                    json::find(po, "cost").ok_or_else(|| malformed("missing \"cost\""))?,
                    "cost",
                )?;
                let so = json::find(po, "sched")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| malformed("missing \"sched\" object"))?;
                let sched = StealStats {
                    steals: req_u64(so, "steals")?,
                    failed_steals: req_u64(so, "failed_steals")?,
                    time: req_u64(so, "time")?,
                    work: req_u64(so, "work")?,
                    depth: req_u64(so, "depth")?,
                };
                let steal_warmup = stats_from(
                    json::find(po, "steal_warmup")
                        .ok_or_else(|| malformed("missing \"steal_warmup\""))?,
                    "steal warm-up",
                )?;
                Some(ParData {
                    lane_stats,
                    phase_costs,
                    cost,
                    sched,
                    steal_warmup,
                })
            }
        };
        Ok(SortOutcome {
            output,
            output_len,
            stats,
            report: stats.report(omega),
            parallel,
        })
    }
}

// ---- output digest ----------------------------------------------------------

/// An order-sensitive 64-bit digest of a record sequence: what a
/// `completed` audit line logs in place of the sorted output that recovery
/// rebuilds.
///
/// It mixes one whole word per step, `h ← (rotl(h, 23) ⊕ w)·K` with an odd
/// `K`, and ends in the `fmix64` finalizer. Each step is a bijection of `h`
/// for a fixed word and injective in the word for a fixed `h`, so changing
/// any one word, or the length that seeds `h`, always changes the digest.
/// It guards against corruption and a wrong rebuild, not an adversary.
pub fn records_digest(records: &[Record]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, w: u64| (h.rotate_left(23) ^ w).wrapping_mul(K);
    let mut h = mix(0x243f_6a88_85a3_08d3, records.len() as u64);
    for r in records {
        h = mix(mix(h, r.key), r.payload);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::{self, run};
    use asym_model::workload::Workload;

    #[test]
    fn spec_round_trips_for_every_algorithm() {
        for algorithm in Algorithm::ALL {
            let spec = SortSpec::builder(algorithm, 64, 8, 16)
                .k(2)
                .lanes(if algorithm.is_parallel() { 4 } else { 1 })
                .seed(0xFEED_FACE_CAFE_BEEF)
                .steal_charge(algorithm.is_parallel())
                .build()
                .expect("valid spec");
            let decoded = SortSpec::from_json(&spec.to_json()).expect("decode");
            assert_eq!(decoded, spec, "{algorithm}");
        }
    }

    #[test]
    fn spec_with_file_dir_round_trips() {
        let spec = SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
            .backend(Backend::File)
            .file_dir("/tmp/job-17")
            .build()
            .expect("valid spec");
        let decoded = SortSpec::from_json(&spec.to_json()).expect("decode");
        assert_eq!(decoded, spec);
        assert_eq!(
            decoded.file_dir().unwrap().display().to_string(),
            "/tmp/job-17"
        );
    }

    #[test]
    fn minimal_spec_takes_builder_defaults() {
        let decoded =
            SortSpec::from_json(r#"{"algorithm": "aem-mergesort", "m": 32, "b": 4, "omega": 8}"#)
                .expect("decode");
        let built = SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
            .build()
            .unwrap();
        assert_eq!(decoded, built);
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for (text, needle) in [
            ("{", "expected"),
            ("[1]", "must be a JSON object"),
            (r#"{"m": 32}"#, "algorithm"),
            (
                r#"{"algorithm": "bogosort", "m": 32, "b": 4, "omega": 8}"#,
                "unknown algorithm",
            ),
            (
                r#"{"algorithm": "aem-mergesort", "b": 4, "omega": 8}"#,
                "\"m\"",
            ),
            (
                r#"{"algorithm": "aem-mergesort", "m": 32, "b": 4, "omega": 8, "backend": "nvme"}"#,
                "unknown backend",
            ),
        ] {
            let err = SortSpec::from_json(text).unwrap_err();
            assert!(
                matches!(err, WireError::Malformed(ref m) if m.contains(needle)),
                "{text}: {err:?}"
            );
        }
    }

    #[test]
    fn invalid_specs_surface_spec_errors_as_structured_payloads() {
        // Valid JSON, invalid job: lanes on a serial sort.
        let err = SortSpec::from_json(
            r#"{"algorithm": "aem-heapsort", "m": 32, "b": 4, "omega": 8, "lanes": 4}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            WireError::Spec(SpecError::LanesOnSerialSort {
                algorithm: Algorithm::Heapsort,
                lanes: 4
            })
        );
        let payload = Json::parse(&err.to_json()).expect("error payload is JSON");
        assert_eq!(payload.get("error").and_then(Json::as_str), Some("spec"));
        assert_eq!(
            payload.get("kind").and_then(Json::as_str),
            Some("lanes_on_serial_sort")
        );
        assert_eq!(
            payload.get("algorithm").and_then(Json::as_str),
            Some("aem-heapsort")
        );
        assert_eq!(payload.get("lanes").and_then(Json::as_u64), Some(4));
        assert!(payload.get("message").is_some());
    }

    #[test]
    fn every_spec_error_variant_renders_kind_and_parses() {
        let variants = [
            SpecError::ZeroOmega,
            SpecError::ZeroBlock,
            SpecError::BlockExceedsMemory { b: 8, m: 4 },
            SpecError::ZeroWriteFactor,
            SpecError::FanInTooSmall { fan_in: 1 },
            SpecError::ZeroLanes,
            SpecError::LanesOnSerialSort {
                algorithm: Algorithm::Mergesort,
                lanes: 2,
            },
            SpecError::GeometryOverflow {
                m: usize::MAX,
                k: 2,
            },
            SpecError::FaultRate {
                field: "read_permille",
                permille: 1001,
            },
            SpecError::Env {
                var: "ASYM_BENCH_BACKEND",
                value: "nvme".into(),
                expected: "\"mem\" or \"file\"",
            },
        ];
        let mut kinds = std::collections::HashSet::new();
        for e in variants {
            let payload = Json::parse(&WireError::Spec(e).to_json()).expect("parses");
            let kind = payload
                .get("kind")
                .and_then(Json::as_str)
                .unwrap()
                .to_owned();
            assert!(kinds.insert(kind), "kind slugs must be distinct");
        }
        assert_eq!(kinds.len(), 10);
    }

    #[test]
    fn spec_with_fault_schedule_round_trips() {
        let spec = SortSpec::builder(Algorithm::Samplesort, 64, 8, 16)
            .k(2)
            .fault(Some(FaultSpec {
                seed: 0xC4A05,
                read_permille: 100,
                write_permille: 100,
                short_permille: 250,
                panic_permille: 5,
            }))
            .build()
            .expect("valid spec");
        let decoded = SortSpec::from_json(&spec.to_json()).expect("decode");
        assert_eq!(decoded, spec);
        assert_eq!(decoded.fault().unwrap().read_permille, 100);
        // Out-of-range rates arriving over the wire surface the builder's
        // typed error, not a silent wrap.
        let err = SortSpec::from_json(
            r#"{"algorithm": "aem-mergesort", "m": 32, "b": 4, "omega": 8,
                "fault": {"seed": 1, "write_permille": 90000}}"#,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Spec(SpecError::FaultRate {
                    field: "write_permille",
                    ..
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn sequential_outcome_round_trips_with_and_without_output() {
        let spec = SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
            .k(2)
            .build()
            .unwrap();
        let input = Workload::UniformRandom.generate(500, 7);
        let outcome = run(&spec, &input).expect("run");
        let with = SortOutcome::from_json(&outcome.to_json(true)).expect("decode");
        assert_eq!(with.output, outcome.output, "full-range keys survive");
        assert_eq!(with.stats, outcome.stats);
        assert_eq!(with.report, outcome.report);
        assert!(with.parallel.is_none());
        let without = SortOutcome::from_json(&outcome.to_json(false)).expect("decode");
        assert!(without.output.is_empty());
        assert_eq!(without.stats, outcome.stats);
        // The lean form keeps its length, so it re-renders byte for byte.
        assert_eq!(without.output_len, 500);
        assert_eq!(without.to_json(false), outcome.to_json(false));
        let lean = sort::run_lean(&spec, &input).expect("lean run");
        assert_eq!(lean.to_json(false), outcome.to_json(false));
    }

    #[test]
    fn output_len_falls_back_to_the_output_and_must_agree_with_it() {
        let head = r#"{ "reads": 1, "writes": 1, "peak_memory": 4, "omega": 8"#;
        let old = SortOutcome::from_json(&format!("{head}, \"output\": [[1, 2]] }}")).unwrap();
        assert_eq!((old.output.len(), old.output_len), (1, 1));
        let lean = SortOutcome::from_json(&format!("{head}, \"output_len\": 9 }}")).unwrap();
        assert_eq!((lean.output.len(), lean.output_len), (0, 9));
        for bad in [
            r#""output_len": 2, "output": [[1, 2]]"#,
            r#""output_len": 1, "output": []"#,
        ] {
            let err = SortOutcome::from_json(&format!("{head}, {bad} }}")).unwrap_err();
            assert!(
                matches!(err, WireError::Malformed(ref m) if m.contains("output_len")),
                "{bad}"
            );
        }
    }

    #[test]
    fn parallel_outcome_round_trips_all_detail() {
        let spec = SortSpec::builder(Algorithm::ParSamplesort, 32, 4, 8)
            .lanes(4)
            .steal_charge(true)
            .build()
            .unwrap();
        let input = Workload::Zipf.generate(600, 3);
        let outcome = run(&spec, &input).expect("run");
        let decoded = SortOutcome::from_json(&outcome.to_json(true)).expect("decode");
        assert_eq!(decoded.output, outcome.output);
        assert_eq!(decoded.stats, outcome.stats);
        let (a, b) = (decoded.parallel.unwrap(), outcome.parallel.unwrap());
        assert_eq!(a.lane_stats, b.lane_stats);
        assert_eq!(a.phase_costs, b.phase_costs);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.sched, b.sched);
        assert_eq!(a.steal_warmup, b.steal_warmup);
    }

    /// Recovery restores a job's served telemetry from the lean form plus
    /// the re-sorted output; the two renderings must agree byte for byte.
    #[test]
    fn lean_telemetry_plus_output_renders_the_full_telemetry() {
        for algorithm in Algorithm::ALL {
            let spec = SortSpec::builder(algorithm, 64, 8, 16)
                .k(2)
                .lanes(if algorithm.is_parallel() { 4 } else { 1 })
                .steal_charge(algorithm.is_parallel())
                .build()
                .unwrap();
            let outcome = run(&spec, &Workload::Zipf.generate(700, 9)).expect("run");
            let mut rebuilt = SortOutcome::from_json(&outcome.to_json(false)).expect("decode");
            rebuilt.output = outcome.output.clone();
            assert_eq!(rebuilt, outcome, "{algorithm}");
            assert_eq!(rebuilt.to_json(true), outcome.to_json(true), "{algorithm}");
        }
    }

    #[test]
    fn records_digest_is_pinned_and_sees_every_word_and_the_order() {
        // Logged digests must stay checkable by later builds.
        assert_eq!(records_digest(&[]), 0xf752_8374_dac7_8cba);
        assert_eq!(
            records_digest(&[Record::new(1, 2), Record::new(3, 4)]),
            0xf7ea_15d0_9e64_fdcc
        );
        let recs = Workload::UniformRandom.generate(64, 3);
        let d = records_digest(&recs);
        for i in 0..recs.len() {
            for bit in [0, 17, 63] {
                let mut key = recs.clone();
                key[i].key ^= 1 << bit;
                assert_ne!(records_digest(&key), d, "key {i} bit {bit}");
                let mut payload = recs.clone();
                payload[i].payload ^= 1 << bit;
                assert_ne!(records_digest(&payload), d, "payload {i} bit {bit}");
            }
        }
        assert_ne!(records_digest(&recs[1..]), d, "length");
        let mut swapped = recs.clone();
        swapped.swap(0, 1);
        assert_ne!(records_digest(&swapped), d, "order");
    }

    #[test]
    fn unknown_phase_names_are_rejected() {
        let text = r#"{ "reads": 1, "writes": 1, "peak_memory": 4, "omega": 8, "output_len": 0,
            "parallel": { "lane_stats": [],
                "phases": [{ "name": "warp-drive", "cost": { "reads": 0, "writes": 0, "depth": 0 } }],
                "cost": { "reads": 0, "writes": 0, "depth": 0 },
                "sched": { "steals": 0, "failed_steals": 0, "time": 0, "work": 0, "depth": 0 },
                "steal_warmup": { "reads": 0, "writes": 0, "peak_memory": 0 } } }"#;
        let err = SortOutcome::from_json(text).unwrap_err();
        assert!(matches!(err, WireError::Malformed(ref m) if m.contains("warp-drive")));
    }
}
