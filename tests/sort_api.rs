//! The unified sort API, end to end:
//!
//! * a differential suite proving `sort::run` byte-identical, for every
//!   algorithm in `Algorithm::ALL` — output *and* modeled `(reads, writes,
//!   peak_memory)` — to the free-function engine it dispatches to, run on a
//!   hand-built machine
//!   (`tests/cost_golden.rs` separately freezes the absolute counts);
//! * `SortSpec` validation: every invalid combination is a typed
//!   `SpecError` (and backend faults a typed `ModelError`), never a panic;
//! * the §2 steal-charging knob: off by default (cost-neutral), folded into
//!   lane stats when enabled.
//!
//! The `ASYM_BENCH_*` absorption of `SortSpecBuilder::from_env` lives in
//! its own binary (`tests/sort_env.rs`) because it mutates the process
//! environment.

use asym_core::em::pq::pq_slack;
use asym_core::em::{
    aem_heapsort, aem_mergesort, aem_samplesort, mergesort_slack, samplesort_slack,
};
use asym_core::par::{par_aem_sample_sort, par_samplesort_slack};
use asym_core::sort::{self, Algorithm, SortSpec, SpecError};
use asym_model::workload::Workload;
use asym_model::{ModelError, Record};
use em_sim::{Backend, EmConfig, EmMachine, EmStats, EmVec, ParMachine};
use rand::rngs::StdRng;
use rand::SeedableRng;

const OMEGA: u64 = 8;
const SEED: u64 = 0xD1FF;

/// Run one engine's free function at the given geometry, returning what the
/// unified API would call the outcome: (output, merged stats).
fn engine_run(
    algorithm: Algorithm,
    m: usize,
    b: usize,
    k: usize,
    lanes: usize,
    input: &[Record],
) -> (Vec<Record>, EmStats) {
    match algorithm {
        Algorithm::Mergesort => {
            let cfg = EmConfig::new(m, b, OMEGA).with_slack(mergesort_slack(m, b, k));
            let em = EmMachine::new(cfg);
            let v = EmVec::stage(&em, input);
            let sorted = aem_mergesort(&em, v, k).expect("mergesort");
            let out = sorted.read_all_uncharged(&em);
            (out, em.stats())
        }
        Algorithm::Samplesort => {
            let cfg = EmConfig::new(m, b, OMEGA).with_slack(samplesort_slack(m, b, k));
            let em = EmMachine::new(cfg);
            let v = EmVec::stage(&em, input);
            let mut rng = StdRng::seed_from_u64(SEED);
            let sorted = aem_samplesort(&em, v, k, &mut rng).expect("samplesort");
            let out = sorted.read_all_uncharged(&em);
            (out, em.stats())
        }
        Algorithm::Heapsort => {
            let cfg = EmConfig::new(m, b, OMEGA).with_slack(pq_slack(m, b, k));
            let em = EmMachine::new(cfg);
            let v = EmVec::stage(&em, input);
            let sorted = aem_heapsort(&em, v, k).expect("heapsort");
            let out = sorted.read_all_uncharged(&em);
            (out, em.stats())
        }
        Algorithm::ParSamplesort => {
            let cfg = EmConfig::new(m, b, OMEGA).with_slack(par_samplesort_slack(m, b, k));
            let par = ParMachine::new(cfg, lanes);
            let (run, _) =
                par_aem_sample_sort(&par, input, k, SEED, false, true).expect("par sort");
            (run.output, run.merged)
        }
    }
}

/// The spec matching `engine_run`'s machine construction.
fn spec(algorithm: Algorithm, m: usize, b: usize, k: usize, lanes: usize) -> SortSpec {
    SortSpec::builder(algorithm, m, b, OMEGA)
        .k(k)
        .lanes(lanes)
        .seed(SEED)
        .build()
        .expect("valid spec")
}

#[test]
fn registry_is_byte_identical_to_the_legacy_entry_points() {
    // Every algorithm × two write-saving factors × three workloads: the
    // dispatch and the free function must agree on output bytes and on every
    // modeled count — the redesign is provably cost-neutral.
    for algorithm in Algorithm::ALL {
        let (m, b, lanes) = match algorithm {
            Algorithm::Heapsort => (16usize, 2usize, 1usize),
            Algorithm::ParSamplesort => (32, 4, 4),
            _ => (32, 4, 1),
        };
        for k in [1usize, 2] {
            for wl in [Workload::UniformRandom, Workload::Zipf, Workload::Sorted] {
                let input = wl.generate(700, 0x60_1D);
                let (engine_out, engine_stats) = engine_run(algorithm, m, b, k, lanes, &input);
                let outcome =
                    sort::run(&spec(algorithm, m, b, k, lanes), &input).expect("dispatched run");
                let label = format!("{algorithm} k={k} {wl:?}");
                assert_eq!(outcome.output, engine_out, "{label}: output drifted");
                assert_eq!(
                    outcome.stats, engine_stats,
                    "{label}: modeled costs drifted — the redesign must be cost-neutral"
                );
            }
        }
    }
}

#[test]
fn spec_validation_yields_typed_errors_never_panics() {
    // ω = 0.
    assert_eq!(
        SortSpec::builder(Algorithm::Mergesort, 32, 4, 0).build(),
        Err(SpecError::ZeroOmega)
    );
    // B > M.
    assert_eq!(
        SortSpec::builder(Algorithm::Samplesort, 4, 32, 8).build(),
        Err(SpecError::BlockExceedsMemory { b: 32, m: 4 })
    );
    // lanes = 0.
    assert_eq!(
        SortSpec::builder(Algorithm::ParSamplesort, 32, 4, 8)
            .lanes(0)
            .build(),
        Err(SpecError::ZeroLanes)
    );
    // Fan-in below 2 (kM/B = 1).
    assert_eq!(
        SortSpec::builder(Algorithm::Heapsort, 4, 4, 8).build(),
        Err(SpecError::FanInTooSmall { fan_in: 1 })
    );
    // k = 0.
    assert_eq!(
        SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
            .k(0)
            .build(),
        Err(SpecError::ZeroWriteFactor)
    );
    // Lanes on a sequential sort.
    assert!(matches!(
        SortSpec::builder(Algorithm::Heapsort, 32, 4, 8)
            .lanes(2)
            .build(),
        Err(SpecError::LanesOnSerialSort { .. })
    ));
    // Errors display human-readable text.
    let e = SortSpec::builder(Algorithm::Mergesort, 4, 32, 8)
        .build()
        .unwrap_err();
    assert!(e.to_string().contains("B = 32"), "{e}");
}

#[test]
fn file_backend_in_unwritable_dir_is_a_typed_model_error() {
    let missing = std::env::temp_dir().join("asym-sort-api-no-such-dir-xyzzy");
    for algorithm in [Algorithm::Mergesort, Algorithm::ParSamplesort] {
        let spec = SortSpec::builder(algorithm, 32, 4, 8)
            .lanes(if algorithm.is_parallel() { 2 } else { 1 })
            .backend(Backend::File)
            .file_dir(&missing)
            .build()
            .expect("the spec itself is valid — the fault is at machine build");
        let input = Workload::UniformRandom.generate(100, 1);
        let err = sort::run(&spec, &input).unwrap_err();
        assert!(
            matches!(err, ModelError::Io(_)),
            "{algorithm}: expected ModelError::Io, got {err}"
        );
    }
    // A writable custom dir works (and is where the backing files land).
    let dir = std::env::temp_dir();
    let spec = SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
        .backend(Backend::File)
        .file_dir(&dir)
        .build()
        .expect("valid spec");
    let input = Workload::UniformRandom.generate(300, 2);
    let outcome = sort::run(&spec, &input).expect("file-backed run");
    let mut expect = input.clone();
    expect.sort();
    assert_eq!(outcome.output, expect);
}

#[test]
fn steal_charge_knob_is_off_by_default_and_folds_when_on() {
    let input = Workload::UniformRandom.generate(5000, 9);
    let base_spec = SortSpec::builder(Algorithm::ParSamplesort, 32, 4, OMEGA)
        .lanes(4)
        .seed(31)
        .build()
        .expect("valid spec");
    assert!(!base_spec.steal_charge(), "knob defaults off");
    let charged_spec = SortSpec::builder(Algorithm::ParSamplesort, 32, 4, OMEGA)
        .lanes(4)
        .seed(31)
        .steal_charge(true)
        .build()
        .expect("valid spec");

    let base = sort::run(&base_spec, &input).expect("base");
    let charged = sort::run(&charged_spec, &input).expect("charged");

    // Identical schedule and output; the charge is an accounting overlay.
    assert_eq!(base.output, charged.output);
    let base_par = base.parallel.as_ref().expect("lane detail");
    let charged_par = charged.parallel.as_ref().expect("lane detail");
    assert_eq!(base_par.sched, charged_par.sched);
    assert_eq!(base_par.steal_warmup, EmStats::default());

    // Warm-up: M/B reads + M/B writes per successful steal, and the base
    // counts are recoverable by subtraction.
    let mb = 32u64 / 4;
    assert_eq!(
        charged_par.steal_warmup.block_reads,
        charged_par.sched.steals * mb
    );
    assert_eq!(
        charged_par.steal_warmup.block_writes,
        charged_par.sched.steals * mb
    );
    assert_eq!(charged.base_stats(), base.stats);
    assert_eq!(
        charged.stats.block_writes,
        base.stats.block_writes + charged_par.steal_warmup.block_writes
    );
    // The cost algebra stays consistent with the charged counters.
    assert_eq!(charged_par.cost.reads, charged.stats.block_reads);
    assert_eq!(charged_par.cost.writes, charged.stats.block_writes);
}
