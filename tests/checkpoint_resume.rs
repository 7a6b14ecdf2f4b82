//! Checkpoint/resume differential suite: for every algorithm, a
//! staged run interrupted after *any* phase and resumed from its manifest
//! produces byte-identical output and bit-identical cumulative modeled
//! stats (`resume ⊕ prefix == uninterrupted`). This is the core
//! guarantee the serve-layer recovery path and the chaos harness's
//! "never redo paid writes" gate are built on.

use asym_core::sort::checkpoint::{
    input_digest, predict_staged, resume_from, run_staged, CheckpointManifest, MemCheckpointer,
    StagePlan,
};
use asym_core::sort::{run, Algorithm, SortSpec};
use asym_model::workload::Workload;

fn spec_for(algorithm: Algorithm) -> SortSpec {
    SortSpec::builder(algorithm, 32, 4, 8)
        .k(2)
        .lanes(if algorithm.is_parallel() { 4 } else { 1 })
        .seed(11)
        .build()
        .expect("valid spec")
}

/// Resuming from every manifest of a run reproduces the uninterrupted
/// run exactly: same output, same cumulative stats, and the manifests
/// the resume emits equal the suffix the prefix would have emitted.
#[test]
fn resume_after_every_phase_is_bit_identical() {
    let input = Workload::Zipf.generate(1_500, 0xC0FFEE);
    for algorithm in Algorithm::ALL {
        let spec = spec_for(algorithm);
        let mut full = MemCheckpointer::default();
        let uninterrupted = run_staged(&spec, &input, &mut full).expect("staged run");
        let plan = StagePlan::new(&spec, input.len());
        assert!(
            plan.total_phases() >= 3,
            "{algorithm}: want a multi-phase plan, got {} phases",
            plan.total_phases()
        );
        assert_eq!(full.manifests.len(), plan.total_phases());

        for (cut, manifest) in full.manifests.iter().enumerate() {
            let mut tail = MemCheckpointer::default();
            let resumed = resume_from(&spec, &input, manifest, &mut tail).expect("resume");
            assert_eq!(
                resumed.output,
                uninterrupted.output,
                "{algorithm} cut after phase {}: output diverged",
                cut + 1
            );
            assert_eq!(
                resumed.stats,
                uninterrupted.stats,
                "{algorithm} cut after phase {}: modeled stats diverged",
                cut + 1
            );
            // The resume's manifest stream is exactly the suffix of the
            // uninterrupted stream — checkpointing is history-oblivious.
            assert_eq!(tail.manifests.as_slice(), &full.manifests[cut + 1..]);
        }
    }
}

/// Staged execution is just a different schedule of the same sort: its
/// output equals the single-shot `sort::run` path, and its modeled costs
/// stay inside the staged envelope that prices admission.
#[test]
fn staged_matches_single_shot_and_its_envelope() {
    let input = Workload::FewDistinct.generate(1_200, 0xFACE);
    for algorithm in Algorithm::ALL {
        let spec = spec_for(algorithm);
        let mut sink = MemCheckpointer::default();
        let staged = run_staged(&spec, &input, &mut sink).expect("staged run");
        let plain = run(&spec, &input).expect("single-shot run");
        assert_eq!(staged.output, plain.output, "{algorithm}");

        let est = predict_staged(&spec, input.len());
        assert!(
            staged.stats.block_reads <= est.reads
                && staged.stats.block_writes <= est.writes
                && staged.stats.peak_memory <= est.peak_memory,
            "{algorithm}: staged run escaped its envelope: {:?} vs {:?}",
            staged.stats,
            est
        );
    }
}

/// A manifest only resumes the job it was cut from: a different input or
/// a different logical spec flips the digest and resume refuses.
#[test]
fn resume_refuses_foreign_manifests() {
    let spec = spec_for(Algorithm::Mergesort);
    let input = Workload::UniformRandom.generate(800, 21);
    let mut sink = MemCheckpointer::default();
    run_staged(&spec, &input, &mut sink).expect("staged run");
    let manifest = sink.manifests[2].clone();

    let other_input = Workload::UniformRandom.generate(800, 22);
    assert_ne!(
        input_digest(&spec, &input),
        input_digest(&spec, &other_input)
    );
    let mut tail = MemCheckpointer::default();
    assert!(resume_from(&spec, &other_input, &manifest, &mut tail).is_err());

    let other_spec = spec_for(Algorithm::Samplesort);
    assert!(manifest.validate(&other_spec, &input).is_err());
}

/// The manifest wire codec is lossless, so a resume through the audit
/// log (render → append → replay → parse) sees the exact snapshot the
/// executor saved.
#[test]
fn manifest_json_round_trip_preserves_resume() {
    let spec = spec_for(Algorithm::Heapsort);
    let input = Workload::NearlySorted.generate(1_000, 5);
    let mut sink = MemCheckpointer::default();
    let uninterrupted = run_staged(&spec, &input, &mut sink).expect("staged run");
    let mid = sink.manifests[sink.manifests.len() / 2].clone();
    let decoded = CheckpointManifest::from_json(&mid.to_json()).expect("round trip");
    assert_eq!(decoded, mid);
    let mut tail = MemCheckpointer::default();
    let resumed = resume_from(&spec, &input, &decoded, &mut tail).expect("resume");
    assert_eq!(resumed.output, uninterrupted.output);
    assert_eq!(resumed.stats, uninterrupted.stats);
}

/// Resuming from the final manifest runs zero phases — the outcome is
/// already in the manifest. Resume is idempotent at every cut.
#[test]
fn resume_from_complete_manifest_is_a_no_op() {
    let spec = spec_for(Algorithm::Mergesort);
    let input = Workload::Reversed.generate(600, 13);
    let mut sink = MemCheckpointer::default();
    let uninterrupted = run_staged(&spec, &input, &mut sink).expect("staged run");
    let last = sink.manifests.last().expect("manifests").clone();
    assert_eq!(last.phases_done, last.total_phases);
    let mut tail = MemCheckpointer::default();
    let resumed = resume_from(&spec, &input, &last, &mut tail).expect("resume");
    assert_eq!(resumed.output, uninterrupted.output);
    assert_eq!(resumed.stats, uninterrupted.stats);
    assert!(tail.manifests.is_empty(), "no phases left, no checkpoints");
}
