//! Checkpoint/resume differential suite: for every algorithm, a
//! staged run interrupted after *any* phase and resumed from the fold of
//! its delta manifests produces byte-identical output and bit-identical
//! cumulative modeled stats (`resume ⊕ prefix == uninterrupted`). This is
//! the core guarantee the serve-layer recovery path and the chaos
//! harness's "never redo paid writes" gate are built on. The deltas
//! themselves write each record once per level but the last, whose
//! manifest is never saved: `n·rounds` records per staged run.

use asym_core::sort::checkpoint::{
    input_digest, predict_staged, resume_from, run_staged, CheckpointManifest, MemCheckpointer,
    StagePlan, MANIFEST_VERSION,
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

/// The fold of `deltas`, each of which must advance it.
fn folded(deltas: &[CheckpointManifest]) -> CheckpointManifest {
    let mut held = None;
    for d in deltas {
        assert!(
            CheckpointManifest::fold(&mut held, d.clone()),
            "phase {}",
            d.phases_done
        );
    }
    held.expect("at least one delta")
}

/// Folding every prefix of a run's deltas gives the layout the plan
/// dictates, and resuming from that fold reproduces the uninterrupted run
/// exactly: same output, same cumulative stats, and the deltas the resume
/// emits equal the suffix the prefix would have emitted. The last cut is
/// after phase `total − 1`: the final phase saves no manifest, so that
/// resume redoes only the final round and emits nothing.
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
        assert_eq!(full.manifests.len(), plan.total_phases() - 1);

        let mut held = None;
        for (cut, delta) in full.manifests.iter().enumerate() {
            assert!(CheckpointManifest::fold(&mut held, delta.clone()));
            let manifest = held.as_ref().expect("folded");
            assert_eq!(manifest.base, 0, "a fold is a full snapshot");
            assert_eq!(
                manifest.runs.iter().map(Vec::len).collect::<Vec<_>>(),
                plan.layout_after(cut + 1),
                "{algorithm} cut after phase {}: folded layout",
                cut + 1
            );
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
            // The resume's delta stream is exactly the suffix of the
            // uninterrupted stream — checkpointing is history-oblivious.
            assert_eq!(tail.manifests.as_slice(), &full.manifests[cut + 1..]);
        }
    }
}

/// Each staged run's deltas carry every record once per level: once when
/// its chunk is sorted and once per merge round but the last (whose
/// manifest is never saved), `n·rounds` in all — not every surviving run
/// again at every phase.
#[test]
fn manifests_carry_each_record_once_per_level() {
    let fan_in_two = SortSpec::builder(Algorithm::Mergesort, 8, 4, 8)
        .build()
        .expect("valid spec");
    let specs = Algorithm::ALL
        .iter()
        .map(|&a| spec_for(a))
        .chain([fan_in_two]);
    for spec in specs {
        for n in [0usize, 5, 1_000, 1_500] {
            let input = Workload::UniformRandom.generate(n, 17);
            let mut sink = MemCheckpointer::default();
            run_staged(&spec, &input, &mut sink).expect("staged run");
            let plan = StagePlan::new(&spec, n);
            let carried: usize = sink
                .manifests
                .iter()
                .flat_map(|m| &m.runs)
                .map(Vec::len)
                .sum();
            assert_eq!(
                carried,
                n * plan.rounds(),
                "{} n={n}: {} phases, {} rounds",
                spec.algorithm(),
                plan.total_phases(),
                plan.rounds()
            );
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
    let manifest = folded(&sink.manifests[..3]);
    let mut tail = MemCheckpointer::default();
    assert!(resume_from(&spec, &input, &manifest, &mut tail).is_ok());

    let other_input = Workload::UniformRandom.generate(800, 22);
    assert_ne!(
        input_digest(&spec, &input),
        input_digest(&spec, &other_input)
    );
    assert!(resume_from(&spec, &other_input, &manifest, &mut tail).is_err());

    let other_spec = spec_for(Algorithm::Samplesort);
    assert!(manifest.validate(&other_spec, &input).is_err());
}

/// The manifest wire codec is lossless, so a resume through the audit
/// log (render → append → replay → parse → fold) sees the exact snapshot
/// the executor's deltas describe.
#[test]
fn manifest_json_round_trip_preserves_resume() {
    let spec = spec_for(Algorithm::Heapsort);
    let input = Workload::NearlySorted.generate(1_000, 5);
    let mut sink = MemCheckpointer::default();
    let uninterrupted = run_staged(&spec, &input, &mut sink).expect("staged run");
    let decoded: Vec<CheckpointManifest> = sink.manifests[..=sink.manifests.len() / 2]
        .iter()
        .map(|m| CheckpointManifest::from_json(&m.to_json()).expect("round trip"))
        .collect();
    assert_eq!(decoded, sink.manifests[..decoded.len()]);
    let mut tail = MemCheckpointer::default();
    let resumed = resume_from(&spec, &input, &folded(&decoded), &mut tail).expect("resume");
    assert_eq!(resumed.output, uninterrupted.output);
    assert_eq!(resumed.stats, uninterrupted.stats);
}

/// Builds that also saved the last phase logged a complete manifest
/// (`phases_done == total_phases`, `base` 0, the output as its one run).
/// It still folds onto the saved prefix, and resuming from it runs zero
/// phases and saves nothing: the outcome is already in the manifest.
#[test]
fn resume_from_complete_manifest_is_a_no_op() {
    let spec = spec_for(Algorithm::Mergesort);
    let input = Workload::Reversed.generate(600, 13);
    let mut sink = MemCheckpointer::default();
    let uninterrupted = run_staged(&spec, &input, &mut sink).expect("staged run");
    let plan = StagePlan::new(&spec, input.len());
    assert_eq!(sink.manifests.len(), plan.total_phases() - 1);
    let complete = CheckpointManifest {
        version: MANIFEST_VERSION,
        digest: input_digest(&spec, &input),
        n: input.len() as u64,
        phases_done: plan.total_phases() as u64,
        total_phases: plan.total_phases() as u64,
        base: 0,
        stats: uninterrupted.stats,
        runs: vec![uninterrupted.output.clone()],
    };
    let mut held = Some(folded(&sink.manifests));
    assert!(CheckpointManifest::fold(&mut held, complete.clone()));
    assert_eq!(held.as_ref(), Some(&complete));
    let mut tail = MemCheckpointer::default();
    let resumed = resume_from(&spec, &input, &complete, &mut tail).expect("resume");
    assert_eq!(resumed.output, uninterrupted.output);
    assert_eq!(resumed.stats, uninterrupted.stats);
    assert!(tail.manifests.is_empty(), "no phases left, no checkpoints");
}
