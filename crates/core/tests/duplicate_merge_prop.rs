//! Property battery for duplicate-safe merging: random streams with
//! arbitrary duplication (tiny key/payload spaces force heavy repetition)
//! must sort identically under the AEM mergesort's provenance-keyed merge
//! and a stable RAM reference, preserving every record. (The merge queue's
//! own duplicate-key properties are unit tests in `em/merge_queue.rs`.)
//! A spec that names its input's sorted runs merges them in one pass, on
//! either backend, within the closed-form `predict()`.

use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::Record;
use em_sim::Backend;
use proptest::prelude::*;

/// Records drawn from a tiny space: with 4 keys × 3 payloads over up to 600
/// draws, duplicate records are the norm, not the exception.
fn duplicate_stream() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        (0u64..4, 0u64..3).prop_map(|(k, p)| Record::new(k, p)),
        0..600,
    )
}

/// Sort `stream` with the AEM mergesort on an M = `fan`·B machine.
fn mergesort(stream: &[Record], b: usize, fan: usize, k: usize) -> Vec<Record> {
    let spec = SortSpec::builder(Algorithm::Mergesort, fan * b, b, 8)
        .k(k)
        .seed(0)
        .build()
        .expect("valid spec");
    sort::run(&spec, stream).expect("mergesort").output
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// k = 1: the l = M/B runs' current blocks never overfill the queue, so
    /// each merge round drains it by pop-min alone. Over duplicate-heavy
    /// streams and several block sizes that drain is the stable sort, with
    /// every record kept.
    #[test]
    fn queue_drain_matches_stable_sort(stream in duplicate_stream(), b in 0u32..3, fan in 2usize..6) {
        let out = mergesort(&stream, 1 << b, fan, 1);
        let mut expect = stream.clone();
        expect.sort(); // std stable sort: the reference
        prop_assert_eq!(out.len(), stream.len(), "records lost in the merge");
        prop_assert_eq!(out, expect);
    }

    /// k ≥ 2: the l = kM/B runs' blocks exceed the queue's M, so the full
    /// queue ejects its maximum or rejects and raises the bar — Q is drained
    /// from both ends. Every record must still come out, in stable order.
    #[test]
    fn two_ended_drain_preserves_every_record(
        stream in duplicate_stream(),
        b in 0u32..3,
        fan in 2usize..6,
        k in 2usize..5,
    ) {
        let out = mergesort(&stream, 1 << b, fan, k);
        let mut expect = stream.clone();
        expect.sort();
        prop_assert_eq!(out.len(), stream.len(), "records lost in the merge");
        prop_assert_eq!(out, expect);
    }

    /// End-to-end: the full AEM mergesort (rounds of the bounded queue with
    /// the bar/`last_v` discipline) on arbitrarily duplicated streams equals
    /// the stable reference and preserves the length.
    #[test]
    fn aem_mergesort_matches_stable_sort(stream in duplicate_stream(), k in 1usize..4) {
        let spec = SortSpec::builder(Algorithm::Mergesort, 16, 4, 8)
            .k(k)
            .seed(0)
            .build()
            .expect("valid spec");
        let outcome = sort::run(&spec, &stream).expect("mergesort");
        let mut expect = stream.clone();
        expect.sort();
        prop_assert_eq!(outcome.output.len(), stream.len(), "records lost in the sort");
        prop_assert_eq!(outcome.output, expect);
    }

    /// Merging given runs: r ∈ 1..=kM/B sorted runs of random lengths
    /// (partial last blocks; records repeated within and across runs;
    /// r = 1 is a leveling spill into an empty level), on `mem` and
    /// `file`. The output is the sorted concatenation, the writes are
    /// ⌈n/B⌉ exactly, and reads, writes and peak memory stay within
    /// `predict()`.
    #[test]
    fn merging_given_runs_writes_each_block_once_within_predict(
        runs in prop::collection::vec(
            prop::collection::vec((0u64..4, 0u64..3).prop_map(|(k, p)| Record::new(k, p)), 1..70),
            1..17,
        ),
        b in 0u32..3,
        fan in 2usize..5,
        k in 1usize..4,
        file in any::<bool>(),
    ) {
        let b = 1usize << b;
        let runs = &runs[..runs.len().min(k * fan)];
        let lens: Vec<usize> = runs.iter().map(Vec::len).collect();
        let mut input = Vec::new();
        for run in runs {
            let mut run = run.clone();
            run.sort();
            input.extend(run);
        }
        let spec = SortSpec::builder(Algorithm::Mergesort, fan * b, b, 8)
            .k(k)
            .backend(if file { Backend::File } else { Backend::Mem })
            .runs(lens.clone())
            .build()
            .expect("valid merge spec");
        let outcome = sort::run(&spec, &input).expect("merge");
        let mut expect = input.clone();
        expect.sort();
        prop_assert_eq!(outcome.output, expect);
        let est = spec.predict(input.len());
        let s = outcome.stats;
        prop_assert_eq!(s.block_writes, input.len().div_ceil(b) as u64, "{:?}", lens);
        prop_assert!(s.block_writes <= est.writes, "{:?}", lens);
        prop_assert!(s.block_reads <= est.reads, "reads {} > {} for {:?}", s.block_reads, est.reads, lens);
        prop_assert!(s.peak_memory <= est.peak_memory, "{:?}", lens);
    }
}
