//! Merging given runs: the job a [`SortSpec`] with
//! [`runs`](SortSpec::runs) describes.
//!
//! A compaction's input is r runs that are already sorted. Sorting their
//! concatenation from scratch pays the Lemma 4.2 base case (k reads per
//! block once n > M) and, above kM records, a second write level. The
//! paper's tool for sorted runs is Algorithm 2's l-way merge (Lemma 4.1):
//! with r ≤ kM/B runs one merge writes every block exactly once. A spec
//! with runs stages each run as its own [`EmVec`] and runs that merge;
//! [`run`](super::run) and [`run_lean`](super::run_lean) dispatch here, so
//! a merge has the gather and the lean form every sort has.
//!
//! The merge checks every block it loads: a block out of order, or a run
//! that descends across a block boundary, is a
//! [`ModelError::Invariant`], never a wrong output.
//!
//! [`SortSpec::predict`] prices a spec with runs as this merge, in closed
//! form:
//!
//! * writes = ⌈n/B⌉, exactly;
//! * reads ≤ Σ⌈nᵢ/B⌉ + r·(⌈n/M⌉ − 1): every block is loaded once when the
//!   merge reaches it, every round outputs at least M records (so there
//!   are at most ⌈n/M⌉), and each round after the first re-reads at most
//!   the r current blocks;
//! * peak memory = the merge's leases, M (the queue) + 2B (the load and
//!   store buffers) + r (the run pointers), exactly.

use super::predict::CostEstimate;
use super::spec::SortSpec;
use crate::em::mergesort::merge_sorted_runs;
use asym_model::{ModelError, Record, Result};
use em_sim::{EmMachine, EmVec};

/// Stage `input` as the runs of lengths `runs` on `machine` (uncharged, like
/// every staged input) and merge them at write-saving factor `k`. The
/// staged runs are freed; the merged output is returned.
pub(super) fn merge_staged(
    machine: &EmMachine,
    input: &[Record],
    runs: &[usize],
    k: usize,
) -> Result<EmVec> {
    if total(runs) != Some(input.len()) {
        return Err(ModelError::Invariant(format!(
            "runs of lengths {runs:?} cannot tile an input of {}",
            input.len()
        )));
    }
    let mut staged = Vec::with_capacity(runs.len());
    let mut lo = 0;
    for &len in runs {
        staged.push(EmVec::stage(machine, &input[lo..lo + len]));
        lo += len;
    }
    let merged = merge_sorted_runs(machine, &staged, k);
    for run in staged {
        run.free(machine);
    }
    merged
}

/// How many records `runs` hold in all; `None` past `usize::MAX` (run
/// lengths can arrive over the wire).
fn total(runs: &[usize]) -> Option<usize> {
    runs.iter()
        .try_fold(0usize, |sum, &len| sum.checked_add(len))
}

/// The closed-form cost of merging `runs` under `spec` (module docs):
/// exact writes and peak memory, and a read bound. Saturates rather than
/// wraps on lengths no input can have.
pub(super) fn predict(spec: &SortSpec, runs: &[usize]) -> CostEstimate {
    let (m, b) = (spec.m(), spec.b());
    let n = total(runs).unwrap_or(usize::MAX);
    let blocks = runs
        .iter()
        .fold(0u64, |sum, &len| sum.saturating_add(len.div_ceil(b) as u64));
    let rereads = (runs.len() as u64).saturating_mul((n.div_ceil(m) as u64).saturating_sub(1));
    CostEstimate {
        reads: blocks.saturating_add(rereads),
        writes: n.div_ceil(b) as u64,
        peak_memory: m + 2 * b + runs.len(),
        omega: spec.omega(),
    }
}

#[cfg(test)]
mod tests {
    use crate::sort::{run, run_lean, Algorithm, SortSpec};
    use asym_model::{ModelError, Record};

    /// A merge spec on M = 32, B = 4, k = 2 (fan-in 16).
    fn spec(runs: Vec<usize>) -> SortSpec {
        SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
            .k(2)
            .runs(runs)
            .build()
            .expect("valid merge spec")
    }

    /// `lens` sorted runs over a small key space, so keys repeat across
    /// runs, laid end to end.
    fn runs_input(lens: &[usize]) -> Vec<Record> {
        let mut x = 0x5eed_u64;
        let mut input = Vec::new();
        for &len in lens {
            let mut run: Vec<Record> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    Record::new(x % 50, x % 3)
                })
                .collect();
            run.sort();
            input.extend(run);
        }
        input
    }

    #[test]
    fn merge_writes_each_block_once_and_stays_inside_predict() {
        for lens in [
            vec![],
            vec![1],
            vec![37],
            vec![5, 9, 1],
            vec![40, 33, 64, 2, 7],
        ] {
            let spec = spec(lens.clone());
            let input = runs_input(&lens);
            let outcome = run(&spec, &input).expect("merge");
            let mut want = input.clone();
            want.sort();
            assert_eq!(outcome.output, want, "{lens:?}");
            let est = spec.predict(input.len());
            assert_eq!(
                outcome.stats.block_writes,
                input.len().div_ceil(4) as u64,
                "{lens:?}"
            );
            assert_eq!(est.writes, outcome.stats.block_writes, "{lens:?}");
            assert!(outcome.stats.block_reads <= est.reads, "{lens:?}");
            assert_eq!(outcome.stats.peak_memory, est.peak_memory, "{lens:?}");
            let lean = run_lean(&spec, &input).expect("lean merge");
            assert!(lean.output.is_empty());
            assert_eq!(lean.output_len, input.len());
            assert_eq!((lean.stats, lean.report), (outcome.stats, outcome.report));
        }
    }

    #[test]
    fn merge_beats_the_full_sort_on_sorted_runs() {
        // 4 runs of 40 records: n = 160 > kM = 64, so the full sort pays a
        // merge level on top of its base case.
        let lens = vec![40; 4];
        let input = runs_input(&lens);
        let merged = run(&spec(lens), &input).expect("merge");
        let sorted = run(&spec(vec![1]).without_runs(), &input).expect("sort");
        assert_eq!(merged.output, sorted.output);
        assert!(merged.stats.block_writes < sorted.stats.block_writes);
        assert!(merged.io_cost() < sorted.io_cost());
    }

    #[test]
    fn merge_refuses_runs_that_do_not_tile_the_input() {
        let input = runs_input(&[4, 4]);
        let got = run(&spec(vec![4, 5]), &input);
        assert!(
            matches!(got, Err(ModelError::Invariant(ref m)) if m.contains("tile")),
            "{got:?}"
        );
        // Lengths whose sum wraps past usize::MAX tile nothing either.
        let got = run(&spec(vec![usize::MAX, 2, 6]), &input);
        assert!(matches!(got, Err(ModelError::Invariant(_))), "{got:?}");
        assert_eq!(
            spec(vec![usize::MAX, 2]).predict(0).writes,
            usize::MAX.div_ceil(4) as u64
        );
    }

    #[test]
    fn merge_fails_typed_on_unsorted_runs() {
        let keys = |ks: &[u64]| ks.iter().map(|&k| Record::keyed(k)).collect::<Vec<_>>();
        // Out of order inside the first block; then sorted blocks that
        // descend across the block boundary (B = 4).
        for input in [keys(&[2, 1, 3, 4, 5]), keys(&[5, 6, 7, 8, 1, 2, 3, 4])] {
            let got = run(&spec(vec![input.len()]), &input);
            assert!(
                matches!(got, Err(ModelError::Invariant(_))),
                "{input:?}: {got:?}"
            );
        }
    }
}
