//! Differential battery for the modeled parallel AEM sample sort, driven
//! through the unified `asym_core::sort` API: every lane count must produce
//! byte-identical output to the RAM reference sorts, and the lane-merged
//! transfer totals must be identical across lane counts (work preservation
//! — the tentpole invariant of the parallel execution spine).

use asym_core::ram::tree_sort::tree_sort;
use asym_core::sort::{self, Algorithm, SortOutcome, SortSpec};
use asym_model::workload::Workload;
use asym_model::Record;
use em_sim::Backend;
use proptest::prelude::*;

/// The lane sweep: {1, 2, 4, 8}, capped by `ASYM_BENCH_THREADS` when set
/// (the CI thread matrix runs this battery at caps 1 and 4). Shared with
/// experiment E13 so the battery and the bench gate can never
/// desynchronize; lane count 1 — the serial reference schedule — is always
/// present.
use asym_bench::e13_par_sort::lane_counts;

/// The job description one battery cell runs (backend honors the CI
/// backend matrix via `from_env`: the battery must hold on file-backed
/// lanes exactly as on the slab arena).
fn spec(m: usize, b: usize, k: usize, lanes: usize, seed: u64) -> SortSpec {
    SortSpec::builder(Algorithm::ParSamplesort, m, b, 8)
        .k(k)
        .lanes(lanes)
        .seed(seed)
        .from_env()
        .expect("parse ASYM_BENCH_* environment")
        .build()
        .expect("valid spec")
}

/// Run the modeled sort on `lanes` lanes through `sort::run`.
fn run(input: &[Record], m: usize, b: usize, k: usize, lanes: usize, seed: u64) -> SortOutcome {
    let outcome = sort::run(&spec(m, b, k, lanes, seed), input).expect("modeled par sort");
    assert!(
        outcome.parallel.is_some(),
        "parallel runs carry lane detail"
    );
    outcome
}

/// The full differential check for one input: outputs equal the RAM
/// reference for every lane count; merged reads and writes equal the
/// one-lane serial schedule's for every lane count.
fn check_all_lane_counts(name: &str, input: &[Record], m: usize, b: usize, k: usize) {
    let mut expect = input.to_vec();
    expect.sort();
    // The RAM tree sort is the in-repo reference, but it requires unique
    // records; truly identical records fall back to the std sort alone.
    if expect.windows(2).all(|w| w[0] != w[1]) {
        assert_eq!(tree_sort(input), expect, "{name}: RAM reference disagrees");
    }
    let serial = run(input, m, b, k, 1, 0xD1FF);
    assert_eq!(serial.output, expect, "{name}: serial schedule wrong");
    for lanes in lane_counts().into_iter().skip(1) {
        let parallel = run(input, m, b, k, lanes, 0xD1FF);
        assert_eq!(
            parallel.output, expect,
            "{name}: output differs on {lanes} lanes"
        );
        assert_eq!(
            parallel.stats.block_writes, serial.stats.block_writes,
            "{name}: write total not preserved on {lanes} lanes"
        );
        assert_eq!(
            parallel.stats.block_reads, serial.stats.block_reads,
            "{name}: read total not preserved on {lanes} lanes"
        );
    }
}

#[test]
fn adversarial_inputs_agree_across_lane_counts() {
    let (m, b, k) = (32usize, 4usize, 2usize);
    let n = 3000usize;
    let cases: Vec<(&str, Vec<Record>)> = vec![
        ("sorted", Workload::Sorted.generate(n, 1)),
        ("reversed", Workload::Reversed.generate(n, 2)),
        ("zipf", Workload::Zipf.generate(n, 3)),
        ("organ-pipe", Workload::OrganPipe.generate(n, 4)),
        (
            // All records share one key; payloads keep the pairs unique
            // (the repo-wide record convention).
            "all-duplicate-keys",
            (0..n as u64).map(|i| Record::new(42, i)).collect(),
        ),
        (
            // Truly identical records: one all-equal oversized bucket pushed
            // through the serial merge's provenance-keyed discipline.
            "all-identical",
            vec![Record::new(7, 7); n],
        ),
        (
            // ~90% duplicates: a handful of distinct records, each heavily
            // repeated, so every bucket boundary lands inside a twin run.
            "duplicate-heavy",
            Workload::DuplicateHeavy.generate(n, 6),
        ),
    ];
    for (name, input) in &cases {
        check_all_lane_counts(name, input, m, b, k);
    }
}

#[test]
fn block_boundary_lengths_agree_across_lane_counts() {
    let (m, b, k) = (32usize, 4usize, 1usize);
    for n in [0usize, 1, b - 1, b, b + 1, 2 * b + 1, m, m + 1] {
        let input = Workload::UniformRandom.generate(n, n as u64 + 9);
        check_all_lane_counts(&format!("boundary-n{n}"), &input, m, b, k);
    }
}

#[test]
fn mem_and_file_lanes_agree_exactly() {
    let (m, b, k) = (32usize, 4usize, 2usize);
    let input = Workload::UniformRandom.generate(1500, 77);
    let lanes = *lane_counts().last().expect("non-empty sweep");
    let run_on = |backend: Backend| {
        let spec = SortSpec::builder(Algorithm::ParSamplesort, m, b, 8)
            .k(k)
            .lanes(lanes)
            .seed(5)
            .backend(backend)
            .build()
            .expect("valid spec");
        sort::run(&spec, &input).expect("modeled par sort")
    };
    let mem_run = run_on(Backend::Mem);
    let file_run = run_on(Backend::File);
    assert_eq!(mem_run.output, file_run.output);
    assert_eq!(
        mem_run.parallel.as_ref().expect("lanes").lane_stats,
        file_run.parallel.as_ref().expect("lanes").lane_stats,
        "modeled per-lane costs must not depend on the backend"
    );
    assert_eq!(mem_run.stats, file_run.stats);
}

#[test]
fn span_never_exceeds_serial_and_work_is_conserved_in_cost_algebra() {
    let (m, b, k) = (64usize, 8usize, 2usize);
    let input = Workload::UniformRandom.generate(6000, 11);
    let serial = run(&input, m, b, k, 1, 3);
    let serial_par = serial.parallel.as_ref().expect("lane detail");
    for lanes in lane_counts().into_iter().skip(1) {
        let parallel = run(&input, m, b, k, lanes, 3);
        let par = parallel.parallel.as_ref().expect("lane detail");
        assert!(
            par.cost.depth <= serial_par.cost.depth,
            "{lanes} lanes: span {} beyond serial {}",
            par.cost.depth,
            serial_par.cost.depth
        );
        // The cost algebra's work components are exactly the machine
        // counters, merged.
        assert_eq!(par.cost.reads, parallel.stats.block_reads);
        assert_eq!(par.cost.writes, parallel.stats.block_writes);
        // The scheduler simulation executed exactly the modeled work.
        assert_eq!(par.sched.work, par.cost.work(8));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_inputs_agree_across_lane_counts(
        pairs in prop::collection::vec((0u64..64, 0u64..1000), 0..900),
        seed in 0u64..1000,
    ) {
        // Duplicate keys are frequent (64 distinct keys); payloads keep the
        // (key, payload) pairs unique per the repo-wide record convention.
        let mut input: Vec<Record> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(k, p))| Record::new(k, p * 1000 + i as u64))
            .collect();
        input.sort();
        input.dedup();
        let mut expect = input.clone();
        expect.sort();
        // Shuffle deterministically so the input isn't pre-sorted.
        let n = input.len().max(1);
        for i in 0..input.len() {
            let j = (seed as usize + 7 * i) % n;
            input.swap(i, j);
        }

        let serial = run(&input, 16, 4, 1, 1, seed);
        prop_assert_eq!(&serial.output, &expect);
        for lanes in lane_counts().into_iter().skip(1) {
            let parallel = run(&input, 16, 4, 1, lanes, seed);
            prop_assert_eq!(&parallel.output, &expect);
            prop_assert_eq!(
                parallel.stats.block_writes,
                serial.stats.block_writes,
                "lanes={}: writes not preserved",
                lanes
            );
            prop_assert_eq!(
                parallel.stats.block_reads,
                serial.stats.block_reads,
                "lanes={}: reads not preserved",
                lanes
            );
        }
    }
}
