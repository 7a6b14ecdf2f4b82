//! Property tests for the JSON wire format: arbitrary valid job
//! descriptions and real sort outcomes must survive
//! `to_json`/`from_json` unchanged, and damaged documents must come back
//! as typed [`WireError`]s, never panics.
//!
//! Record arrays get their own checks: every document that carries them
//! (job requests, outcome telemetry, checkpoint manifests) must render
//! byte-equal to the plain `format!`-joined encoding kept below as the
//! reference, decode back exactly, and treat pair arrays the one-pass
//! parser declines exactly as the generic parser always has. The audit
//! line that carries a manifest into the WAL is pinned the same way.

use asym_core::sort::{
    run, Algorithm, CheckpointManifest, SortOutcome, SortSpec, WireError, MANIFEST_VERSION,
};
use asym_model::json::Json;
use asym_model::workload::Workload;
use asym_model::Record;
use asym_serve::{AuditEvent, JobRequest};
use em_sim::{Backend, EmStats, FaultSpec};
use proptest::prelude::*;

/// An arbitrary *valid* spec: geometry drawn from shapes every algorithm
/// accepts, full-range seeds (the exact-integer case the codec exists for),
/// lanes forced to 1 on the serial sorts, and roughly half carrying a
/// fault schedule (full-range seed, any legal permille rates).
fn arb_spec() -> impl Strategy<Value = SortSpec> {
    (
        (0usize..4, 0usize..3, 1u64..64, 1usize..5),
        (0u64..u64::MAX, 0usize..2, 0u8..2, 1usize..5),
        (0u8..2, 0u64..u64::MAX, 0u16..1001, 0u16..1001, 0u16..1001),
    )
        .prop_map(
            |(
                (alg, shape, omega, k),
                (seed, backend, steal, lanes),
                (faulty, fault_seed, read, write, short),
            )| {
                let algorithm = Algorithm::ALL[alg];
                let (m, b) = [(32usize, 4usize), (64, 8), (128, 8)][shape];
                let backend = [Backend::Mem, Backend::File][backend];
                let mut builder = SortSpec::builder(algorithm, m, b, omega)
                    .k(k)
                    .seed(seed)
                    .backend(backend);
                if algorithm.is_parallel() {
                    builder = builder.lanes(lanes).steal_charge(steal == 1);
                }
                if backend == Backend::File {
                    builder = builder.file_dir(format!("/tmp/wire-{seed}"));
                }
                if faulty == 1 {
                    builder = builder.fault(Some(FaultSpec {
                        seed: fault_seed,
                        read_permille: read,
                        write_permille: write,
                        short_permille: short,
                        panic_permille: 0,
                    }));
                }
                builder.build().expect("generated specs are valid")
            },
        )
}

/// The reference record-array encoding: one `format!` per record, joined.
fn reference_records(recs: &[Record]) -> String {
    let items: Vec<String> = recs
        .iter()
        .map(|r| format!("[{}, {}]", r.key, r.payload))
        .collect();
    format!("[{}]", items.join(", "))
}

/// Record vectors of every size class: empty, one record, and up to a few
/// hundred, with keys and payloads drawn small, full-range, or exactly
/// `u64::MAX`.
fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    fn word() -> impl Strategy<Value = u64> {
        (0u8..3, 0u64..u64::MAX).prop_map(|(class, x)| match class {
            0 => x % 1000,
            1 => x,
            _ => u64::MAX,
        })
    }
    (0u8..4, prop::collection::vec((word(), word()), 0..300)).prop_map(|(class, mut recs)| {
        recs.truncate(match class {
            0 => 0,
            1 => 1,
            _ => recs.len(),
        });
        recs.into_iter().map(|(k, p)| Record::new(k, p)).collect()
    })
}

/// `doc` (a rendered object) with one more field appended before its
/// closing brace.
fn with_field(doc: &str, key: &str, rendered: &str) -> String {
    let body = doc.strip_suffix(" }").expect("a non-empty object");
    format!("{body}, \"{key}\": {rendered} }}")
}

fn spec() -> SortSpec {
    SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
        .build()
        .expect("valid spec")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn record_arrays_render_byte_equal_to_the_reference_and_decode_back(
        recs in arb_records(),
        cuts in prop::collection::vec(0usize..300, 0..4),
    ) {
        let reference = reference_records(&recs);

        let request = JobRequest::inline(spec(), recs.clone());
        let lean = JobRequest { input: None, ..request.clone() };
        let text = request.to_json();
        prop_assert_eq!(&text, &with_field(&lean.to_json(), "input", &reference));
        prop_assert_eq!(&JobRequest::from_json(&text).expect("decode"), &request);

        let stats = EmStats { block_reads: 3, block_writes: 2, peak_memory: 16 };
        let outcome = SortOutcome {
            output: recs.clone(),
            output_len: recs.len(),
            stats,
            report: stats.report(8),
            parallel: None,
        };
        let text = outcome.to_json(true);
        prop_assert_eq!(&text, &with_field(&outcome.to_json(false), "output", &reference));
        let decoded = SortOutcome::from_json(&text).expect("decode");
        prop_assert_eq!(&decoded.output, &recs);
        prop_assert_eq!(decoded.stats, stats);
        let lean = SortOutcome::from_json(&outcome.to_json(false)).expect("decode");
        prop_assert!(lean.output.is_empty());
        // A lean decode keeps the length, so it re-renders byte for byte.
        prop_assert_eq!(lean.output_len, recs.len());
        prop_assert_eq!(lean.to_json(false), outcome.to_json(false));

        // Runs cut at arbitrary points, empty runs included.
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (recs.len() + 1)).collect();
        bounds.sort_unstable();
        bounds.insert(0, 0);
        bounds.push(recs.len());
        let runs: Vec<Vec<Record>> = bounds.windows(2).map(|w| recs[w[0]..w[1]].to_vec()).collect();
        let manifest = CheckpointManifest {
            version: MANIFEST_VERSION,
            digest: u64::MAX,
            n: recs.len() as u64,
            phases_done: 1,
            total_phases: 2,
            base: u64::MAX,
            stats,
            runs,
        };
        let text = manifest.to_json();
        let runs_ref: Vec<String> = manifest.runs.iter().map(|r| reference_records(r)).collect();
        let empty = CheckpointManifest { runs: Vec::new(), ..manifest.clone() }.to_json();
        let body = empty.strip_suffix("\"runs\": [] }").expect("runs close the manifest");
        let manifest_ref = format!("{body}\"runs\": [{}] }}", runs_ref.join(", "));
        prop_assert_eq!(&text, &manifest_ref);
        prop_assert_eq!(&CheckpointManifest::from_json(&text).expect("decode"), &manifest);

        // The WAL line carrying it: schema version first, `phase` beside
        // the embedded manifest.
        let event = AuditEvent::Checkpointed { id: u64::MAX, manifest };
        let line = event.to_json();
        prop_assert_eq!(
            &line,
            &format!(
                "{{ \"v\": 2, \"event\": \"checkpointed\", \"id\": {}, \"phase\": 1, \"manifest\": {manifest_ref} }}",
                u64::MAX
            )
        );
        prop_assert_eq!(AuditEvent::from_json(&line).expect("decode"), event);

        // The bare array is a parse/render fixed point.
        prop_assert_eq!(Json::parse(&reference).expect("parses").render(), reference);
    }

    #[test]
    fn specs_round_trip_exactly(spec in arb_spec()) {
        let text = spec.to_json();
        let decoded = SortSpec::from_json(&text).expect("decode");
        prop_assert_eq!(&decoded, &spec);
        // Re-encoding is a fixed point: same document both times.
        prop_assert_eq!(decoded.to_json(), text);
    }

    #[test]
    fn strict_prefixes_of_a_spec_document_fail_typed_not_panicking(
        spec in arb_spec(),
        cut in 0usize..1000,
    ) {
        let text = spec.to_json();
        let cut = cut % text.len(); // every strict prefix index
        let err = SortSpec::from_json(&text[..cut]).expect_err("prefix cannot decode");
        prop_assert!(matches!(err, WireError::Malformed(_)));
    }

    #[test]
    fn outcomes_round_trip_through_telemetry(
        seeds in (0u64..u64::MAX, 0u64..u64::MAX),
        n in 64usize..600,
        alg in 0usize..4,
        wl in 0usize..3,
    ) {
        let algorithm = Algorithm::ALL[alg];
        let workload = [Workload::UniformRandom, Workload::Zipf, Workload::NearlySorted][wl];
        let spec = SortSpec::builder(algorithm, 32, 4, 8)
            .k(2)
            .lanes(if algorithm.is_parallel() { 3 } else { 1 })
            .seed(seeds.0)
            .build()
            .expect("valid spec");
        let input = workload.generate(n, seeds.1);
        let outcome = run(&spec, &input).expect("sort");
        let decoded = SortOutcome::from_json(&outcome.to_json(true)).expect("decode");
        prop_assert_eq!(&decoded.output, &outcome.output, "full-range keys must survive");
        prop_assert_eq!(decoded.stats, outcome.stats);
        prop_assert_eq!(decoded.report, outcome.report);
        prop_assert_eq!(&decoded.parallel, &outcome.parallel);
        // Telemetry-only form drops the payload but keeps the counts.
        let lean = SortOutcome::from_json(&outcome.to_json(false)).expect("decode");
        prop_assert!(lean.output.is_empty());
        prop_assert_eq!(lean.stats, outcome.stats);
    }
}

/// Pair arrays the one-pass parser declines (a float, odd whitespace, a
/// digit run past `u64::MAX`, a sign, the wrong arity) decode or fail
/// exactly as the generic parser always made them, in every document that
/// carries records, each with its own error wording.
#[test]
fn declined_pair_arrays_decode_as_they_always_have() {
    let request = |input: &str| {
        format!(
            r#"{{ "spec": {}, "workload": "uniform", "input": {input} }}"#,
            spec().to_json()
        )
    };
    let outcome = |output: &str| {
        format!(
            r#"{{ "reads": 1, "writes": 1, "peak_memory": 4, "omega": 8, "output": {output} }}"#
        )
    };
    let manifest = |run: &str| {
        format!(
            r#"{{ "version": 1, "digest": 1, "n": 1, "phases_done": 1, "total_phases": 1,
                "stats": {{ "block_reads": 0, "block_writes": 0, "peak_memory": 0 }},
                "runs": [{run}] }}"#
        )
    };
    let ok = |recs: &[(u64, u64)]| -> Result<Vec<Record>, [&'static str; 3]> {
        Ok(recs.iter().map(|&(k, p)| Record::new(k, p)).collect())
    };
    for (array, expect) in [
        ("[[5, 2.0]]", ok(&[(5, 2)])),
        ("[ [1 ,2] ]", ok(&[(1, 2)])),
        ("[[18446744073709551616, 1]]", ok(&[(u64::MAX, 1)])),
        ("[]", ok(&[])),
        ("[[1, -2]]", Err(["record payload must be a u64"; 3])),
        (
            "[[1, 2, 3]]",
            Err([
                "input records are [key, payload] pairs",
                "output records are [key, payload] pairs",
                "run records are [key, payload] pairs",
            ]),
        ),
    ] {
        let got = [
            JobRequest::from_json(&request(array)).map(|r| r.input.expect("inline")),
            SortOutcome::from_json(&outcome(array)).map(|o| o.output),
            CheckpointManifest::from_json(&manifest(array)).map(|mut m| m.runs.remove(0)),
        ];
        for (i, got) in got.into_iter().enumerate() {
            match (&expect, got) {
                (Ok(recs), Ok(decoded)) => assert_eq!(&decoded, recs, "{array}"),
                (Err(msgs), Err(WireError::Malformed(m))) => assert_eq!(m, msgs[i], "{array}"),
                (want, got) => panic!("{array} (document {i}): want {want:?}, got {got:?}"),
            }
        }
    }
    // Non-arrays keep each document's own wording.
    for (text, msg) in [
        (request("9"), "\"input\" must be an array"),
        (outcome("9"), "\"output\" must be an array"),
        (manifest("9"), "manifest runs must be arrays"),
    ] {
        let err = [
            JobRequest::from_json(&text).err(),
            SortOutcome::from_json(&text).err(),
            CheckpointManifest::from_json(&text).err(),
        ]
        .into_iter()
        .flatten()
        .find(|e| matches!(e, WireError::Malformed(m) if m == msg));
        assert!(err.is_some(), "{text}: expected {msg:?}");
    }
}

/// Pair arrays are a parse/render fixed point wherever they sit.
#[test]
fn pair_arrays_render_back_verbatim() {
    for text in [
        "[[0, 0]]",
        "[[1, 2], [3, 4], [18446744073709551615, 18446744073709551615]]",
        r#"{ "runs": [[[1, 2]], [], [[3, 4], [5, 6]]], "output": [[7, 8]] }"#,
        "[[[1, 2]], [[3, 4]]]",
    ] {
        assert_eq!(Json::parse(text).expect("parses").render(), text);
    }
}
