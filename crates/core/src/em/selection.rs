//! Lemma 4.2 — the k-pass selection-sort base case.
//!
//! Sorts n ≤ kM records in at most ⌈n/M⌉ ≤ k scans of the input: each pass
//! keeps the M smallest records larger than everything already written, then
//! emits them in order. Reads ≤ ⌈n/M⌉·⌈n/B⌉ ≤ k⌈n/B⌉, writes exactly
//! ⌈n/B⌉ — no matter how large k (and hence the input) is.
//!
//! Primary-memory footprint: the M-record candidate set plus the one-block
//! load and store buffers (the machine must be configured with at least
//! `M + 2B` capacity; the paper's statement allows `M + B` by folding the
//! store buffer into the O(log M) output bookkeeping — we charge it
//! explicitly and give the machine the extra block).
//!
//! This module is the one owner of the Lemma 4.2 rule for all of §4: the
//! Algorithm 2 and §4.2 base cases call [`selection_sort`] and
//! [`selection_sort_into`], the buffer tree sorts each full buffer with
//! `selection_passes`, and the priority queue's β extraction (Lemma 4.8)
//! and Algorithm 2's phase 1 (the (M+1)-th smallest candidate, via
//! `Smallest::cutoff`) are one `Smallest` scan each.
//!
//! One implementation deviation (performance, not semantics): the pass loop
//! sorts the whole input once, on the host, during its first scan, and each
//! later scan only re-reads the input before the next M records of that
//! order are emitted. Every pass of the paper's algorithm emits exactly
//! those records (the M smallest above the last one written), so the
//! transfer schedule is unchanged: ⌈n/M⌉ scans, each followed by its
//! records' writes. Host scratch is the n records; the modeled lease stays
//! M. Sorting plain 16-byte records needs no tie-break for duplicates:
//! equal records cannot be told apart in the output.
//!
//! The host sort is run-aware. A compaction's input is its few sorted runs
//! laid end to end, so an input with at most eight descents (counted with
//! an early exit) goes to the stable `sort`, which finds the runs and
//! merges them in O(n log runs); any other input keeps `sort_unstable`,
//! and a shuffled one pays only the few comparisons that find nine
//! descents. Equal records cannot be told apart, so both give the same
//! output.
//!
//! `Smallest` keeps the `cap` smallest of a stream of keys for the β
//! extraction and the phase-1 cutoff. Their candidates are keyed
//! `(Record, index)`, a stable tie-break that keeps duplicate records
//! distinguishable; on unique inputs the index never decides a comparison.
//! It is a batch cut back by linear-time selection (`select_nth_unstable`)
//! whenever it doubles, rather than a bounded max-heap: both keep exactly
//! the same `cap` smallest distinct keys, the batch in O(n) comparisons per
//! scan instead of O(n log cap), as host scratch of at most 2·cap keys.

use asym_model::{ModelError, Record, Result};
use em_sim::{EmMachine, EmVec, EmWriter};

/// A candidate: the record and its index in the scan, unique per scan.
pub(crate) type Key = (Record, usize);

/// The `cap` smallest of the distinct keys offered, in linear time.
pub(crate) struct Smallest {
    cap: usize,
    batch: Vec<Key>,
    /// The largest key kept by the last cut: nothing above it can be among
    /// the `cap` smallest.
    bound: Option<Key>,
}

impl Smallest {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            cap,
            batch: Vec::with_capacity(2 * cap),
            bound: None,
        }
    }

    /// Offer a key: it is kept while it is among the `cap` smallest seen.
    pub(crate) fn offer(&mut self, key: Key) {
        if self.cap == 0 || self.bound.is_some_and(|b| key > b) {
            return;
        }
        self.batch.push(key);
        if self.batch.len() == 2 * self.cap {
            self.cut();
        }
    }

    /// Keep only the `cap` smallest of the batch.
    fn cut(&mut self) {
        let (_, &mut kth, _) = self.batch.select_nth_unstable(self.cap - 1);
        self.bound = Some(kth);
        self.batch.truncate(self.cap);
    }

    /// The `cap`-th smallest key offered (the largest kept), or `None` if
    /// fewer than `cap` were offered.
    pub(crate) fn cutoff(mut self) -> Option<Key> {
        if self.cap == 0 || self.batch.len() < self.cap {
            return None;
        }
        self.cut();
        self.bound
    }

    /// The kept keys in ascending order.
    pub(crate) fn into_sorted(mut self) -> Vec<Key> {
        if self.batch.len() > self.cap {
            self.cut();
        }
        self.batch.sort_unstable();
        self.batch
    }
}

/// The Lemma 4.2 pass loop: sort the `n` records that `scan` hands to its
/// visitor, a block slice at a time and in the same order on every call, in
/// ⌈n/m⌉ scans, handing `emit` the next `m` records of the sorted order
/// after each. The first scan collects the records and sorts them once;
/// every later scan pays the same reads again and only counts what it
/// sees. A scan that does not yield exactly `n` records is an
/// [`ModelError::Invariant`]. The caller leases the `m`-record set.
pub(crate) fn selection_passes(
    m: usize,
    n: usize,
    mut scan: impl FnMut(&mut dyn FnMut(&[Record])) -> Result<()>,
    mut emit: impl FnMut(&[Record]),
) -> Result<()> {
    if n == 0 {
        return Ok(());
    }
    let check = |found: usize| {
        if found == n {
            Ok(())
        } else {
            Err(ModelError::Invariant(format!(
                "selection pass found {found} of {n} records"
            )))
        }
    };
    let mut all = Vec::with_capacity(n);
    scan(&mut |block| all.extend_from_slice(block))?;
    check(all.len())?;
    if few_descents(&all) {
        all.sort();
    } else {
        all.sort_unstable();
    }
    for (pass, chunk) in all.chunks(m).enumerate() {
        if pass > 0 {
            let mut found = 0;
            scan(&mut |block| found += block.len())?;
            check(found)?;
        }
        emit(chunk);
    }
    Ok(())
}

/// The most descents an input may hold and still count as a few sorted
/// runs laid end to end, as a compaction's input is.
const FEW_DESCENTS: usize = 8;

/// Whether `recs` holds at most [`FEW_DESCENTS`] descents; the count stops
/// at the first one past it, so a shuffled input pays a few comparisons.
fn few_descents(recs: &[Record]) -> bool {
    recs.windows(2)
        .filter(|w| w[1] < w[0])
        .nth(FEW_DESCENTS)
        .is_none()
}

/// Sort `input` (n ≤ kM) with the Lemma 4.2 selection sort; `k` only bounds
/// the permitted input size — the pass count is derived from n and M.
///
/// The input array is left intact (the caller frees it); the returned array
/// is freshly written.
pub fn selection_sort(machine: &EmMachine, input: &EmVec, k: usize) -> Result<EmVec> {
    let mut writer = EmWriter::new(machine)?;
    selection_sort_into(machine, input, k, &mut writer)?;
    Ok(writer.finish())
}

/// [`selection_sort`] variant streaming the sorted records into an existing
/// writer (used by the sample sort so bucket outputs concatenate without
/// partial-block seams).
pub(crate) fn selection_sort_into(
    machine: &EmMachine,
    input: &EmVec,
    k: usize,
    writer: &mut EmWriter,
) -> Result<()> {
    let m = machine.m();
    let n = input.len();
    if n > k * m {
        return Err(ModelError::Invariant(format!(
            "selection sort requires n <= kM ({n} > {k} * {m})"
        )));
    }
    // The candidate set occupies M records of primary memory for the whole
    // sort; the reader and writer each lease a block themselves.
    let _set_lease = machine.lease(m)?;
    let scan = |visit: &mut dyn FnMut(&[Record])| {
        let mut reader = input.reader(machine)?;
        while let Some(block) = reader.next_slice() {
            visit(block);
        }
        Ok(())
    };
    selection_passes(m, n, scan, |sorted| writer.extend(sorted.iter().copied()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_model::record::assert_sorted_permutation;
    use asym_model::workload::Workload;
    use em_sim::EmConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn machine(m: usize, b: usize, omega: u64) -> EmMachine {
        // M-record candidate set + load buffer + store buffer.
        EmMachine::new(EmConfig::new(m, b, omega).with_slack(2 * b))
    }

    #[test]
    fn sorts_all_workloads() {
        let em = machine(32, 4, 8);
        for wl in Workload::ALL {
            let input = wl.generate(100, 3); // k=4 passes needed
            let v = EmVec::stage(&em, &input);
            let sorted = selection_sort(&em, &v, 4).unwrap();
            assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
            sorted.free(&em);
            v.free(&em);
        }
    }

    #[test]
    fn respects_lemma_4_2_bounds_exactly() {
        // n <= kM sorted with <= ceil(n/M)*ceil(n/B) reads and ceil(n/B) writes.
        let cases = [
            (64usize, 8usize, 3usize, 150usize),
            (32, 4, 4, 128),
            (16, 4, 2, 17),
        ];
        for (m, b, k, n) in cases {
            let em = machine(m, b, 4);
            let input = Workload::UniformRandom.generate(n, 7);
            let v = EmVec::stage(&em, &input);
            em.reset_stats();
            let sorted = selection_sort(&em, &v, k).unwrap();
            let s = em.stats();
            let blocks = n.div_ceil(b) as u64;
            let passes = n.div_ceil(m) as u64;
            assert!(passes <= k as u64);
            assert!(
                s.block_reads <= passes * blocks,
                "(m={m},b={b},n={n}) reads {} > {}",
                s.block_reads,
                passes * blocks
            );
            assert_eq!(s.block_writes, blocks, "(m={m},b={b},n={n}) writes");
            assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
        }
    }

    #[test]
    fn single_pass_when_n_fits_in_memory() {
        let em = machine(64, 8, 4);
        let input = Workload::Reversed.generate(60, 1);
        let v = EmVec::stage(&em, &input);
        em.reset_stats();
        let sorted = selection_sort(&em, &v, 1).unwrap();
        let s = em.stats();
        assert_eq!(s.block_reads, 60u64.div_ceil(8));
        assert_eq!(s.block_writes, 60u64.div_ceil(8));
        assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
    }

    #[test]
    fn duplicate_heavy_inputs_keep_every_record() {
        let em = machine(16, 4, 8);
        // All-identical: the old record-keyed discipline skipped every twin
        // of the first written record and never found the rest (multi-pass
        // inputs spun in the `remaining > 0` loop).
        let identical = vec![Record::new(9, 9); 60];
        // 90%-duplicate: a handful of distinct records, heavily repeated.
        let few_distinct: Vec<Record> = (0..60).map(|i| Record::new(i % 6, i % 3)).collect();
        for input in [identical, few_distinct] {
            let v = EmVec::stage(&em, &input);
            let sorted = selection_sort(&em, &v, 4).unwrap();
            let out = sorted.read_all_uncharged(&em);
            assert_eq!(out.len(), input.len(), "records lost");
            assert_sorted_permutation(&input, &out);
            sorted.free(&em);
            v.free(&em);
        }
    }

    /// Records from a tiny space, so keys differ only by scan index.
    fn small_records(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Record>> {
        prop::collection::vec((0u64..8, 0u64..4).prop_map(|(k, p)| Record::new(k, p)), len)
    }

    /// All-identical streams, or 90%-duplicate ones (nine draws in ten
    /// repeat one record).
    fn duplicate_stream() -> impl Strategy<Value = Vec<Record>> {
        (
            any::<bool>(),
            prop::collection::vec((0u64..10, 0u64..1000), 0..200),
        )
            .prop_map(|(identical, draws)| {
                let pick = |(d, x)| {
                    if identical || d < 9 {
                        Record::new(5, 5)
                    } else {
                        Record::new(x, x % 3)
                    }
                };
                draws.into_iter().map(pick).collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `Smallest` keeps exactly what a full sort would, for caps from
        /// 0 past the stream length; a stream of ~10× a small cap cuts the
        /// batch many times.
        #[test]
        fn smallest_matches_sort_and_truncate(
            records in small_records(0..80),
            pick in 0usize..5,
        ) {
            let n = records.len();
            let cap = [0, 1, 7, n, n + 5][pick];
            let keys: Vec<Key> = records.into_iter().zip(0..).collect();
            let mut best = Smallest::new(cap);
            for &key in &keys {
                best.offer(key);
            }
            let mut expect = keys;
            expect.sort_unstable();
            expect.truncate(cap);
            prop_assert_eq!(best.into_sorted(), expect);
        }

        /// `Smallest::cutoff` is the `cap`-th smallest key, or `None` when
        /// fewer than `cap` keys were offered.
        #[test]
        fn cutoff_is_the_cap_th_smallest_key(
            records in small_records(0..80),
            pick in 0usize..5,
        ) {
            let n = records.len();
            let cap = [0, 1, 7, n, n + 5][pick];
            let mut keys: Vec<Key> = records.into_iter().zip(0..).collect();
            let mut best = Smallest::new(cap);
            for &key in &keys {
                best.offer(key);
            }
            keys.sort_unstable();
            let expect = cap.checked_sub(1).and_then(|i| keys.get(i).copied());
            prop_assert_eq!(best.cutoff(), expect);
        }

        /// The pass loop over a duplicate-heavy stream equals the stable
        /// sort, loses no record, and scans exactly ⌈n/m⌉ times.
        #[test]
        fn passes_sort_duplicate_streams(stream in duplicate_stream(), m in 1usize..9) {
            let mut scans = 0;
            let mut out = Vec::new();
            let scan = |visit: &mut dyn FnMut(&[Record])| {
                scans += 1;
                stream.chunks(3).for_each(visit);
                Ok(())
            };
            selection_passes(m, stream.len(), scan, |r| out.extend_from_slice(r)).unwrap();
            let mut expect = stream.clone();
            expect.sort();
            prop_assert_eq!(out, expect);
            prop_assert_eq!(scans, stream.len().div_ceil(m));
        }
    }

    /// What the pass loop did, in order.
    #[derive(Debug, PartialEq)]
    enum Pass {
        Scan,
        Emit(Vec<Record>),
    }

    /// Run the pass loop over `input` (three-record blocks), recording each
    /// scan and each emitted chunk; `lose` drops that many records from
    /// every scan after the first.
    fn passes(m: usize, input: &[Record], lose: usize) -> (Result<()>, Vec<Pass>) {
        let log = std::cell::RefCell::new(Vec::new());
        let scan = |visit: &mut dyn FnMut(&[Record])| {
            let rescan = !log.borrow().is_empty();
            log.borrow_mut().push(Pass::Scan);
            let seen = if rescan {
                input.len() - lose
            } else {
                input.len()
            };
            input[..seen].chunks(3).for_each(visit);
            Ok(())
        };
        let emit = |chunk: &[Record]| log.borrow_mut().push(Pass::Emit(chunk.to_vec()));
        let result = selection_passes(m, input.len(), scan, emit);
        (result, log.into_inner())
    }

    #[test]
    fn passes_emit_the_sorted_input_in_m_record_chunks_one_scan_each() {
        let m = 8;
        for (wl, n) in [
            (Workload::AllIdentical, 2 * m + 1),
            (Workload::DuplicateHeavy, 3 * m),
            (Workload::UniformRandom, m + 1),
            (Workload::Reversed, 4 * m - 3),
        ] {
            let input = wl.generate(n, 11);
            let mut sorted = input.clone();
            sorted.sort();
            let expect: Vec<Pass> = sorted
                .chunks(m)
                .flat_map(|chunk| [Pass::Scan, Pass::Emit(chunk.to_vec())])
                .collect();
            let (result, log) = passes(m, &input, 0);
            result.expect("sorts");
            assert_eq!(log.len(), 2 * n.div_ceil(m), "{wl:?}: ⌈n/M⌉ scans");
            assert_eq!(log, expect, "{wl:?}");
        }
    }

    /// `runs` ascending runs of `len ≥ 5` records laid end to end, each
    /// over keys 0..5 with repeats (so records repeat within and across
    /// runs): every run but the first starts with a descent.
    fn concatenated_runs(runs: usize, len: usize) -> Vec<Record> {
        (0..runs)
            .flat_map(|r| {
                (0..len).map(move |j| Record::new(5 * j as u64 / len as u64, r as u64 % 2))
            })
            .collect()
    }

    #[test]
    fn few_descents_stops_counting_past_the_threshold() {
        for (runs, few) in [
            (1, true),
            (2, true),
            (FEW_DESCENTS + 1, true),
            (FEW_DESCENTS + 2, false),
        ] {
            let input = concatenated_runs(runs, 6);
            assert_eq!(few_descents(&input), few, "{runs} runs");
        }
        assert!(few_descents(&[]));
        assert!(!few_descents(&Workload::UniformRandom.generate(64, 5)));
    }

    /// Inputs the run-aware sort takes (a few runs, duplicates, descents at
    /// the threshold) and inputs it leaves to `sort_unstable` (just past
    /// it, many runs, shuffled) give the same scan and emit log: ⌈n/m⌉
    /// scans, each followed by the next m records of the sorted order.
    #[test]
    fn few_run_and_many_run_inputs_scan_and_emit_alike() {
        for runs in [1, 2, 4, FEW_DESCENTS + 1, FEW_DESCENTS + 2, 40] {
            let input = concatenated_runs(runs, 7);
            let mut shuffled = input.clone();
            shuffled.shuffle(&mut StdRng::seed_from_u64(runs as u64));
            let mut sorted = input.clone();
            sorted.sort_unstable();
            for m in [5, 16, input.len()] {
                let expect: Vec<Pass> = sorted
                    .chunks(m)
                    .flat_map(|chunk| [Pass::Scan, Pass::Emit(chunk.to_vec())])
                    .collect();
                for case in [&input, &shuffled] {
                    let (result, log) = passes(m, case, 0);
                    result.expect("sorts");
                    assert_eq!(log, expect, "{runs} runs, m={m}");
                }
            }
        }
    }

    #[test]
    fn a_rescan_that_finds_a_different_count_is_an_invariant_error() {
        let input = Workload::UniformRandom.generate(20, 3);
        let (result, log) = passes(8, &input, 1);
        assert!(
            matches!(&result, Err(ModelError::Invariant(msg)) if msg.contains("19 of 20")),
            "{result:?}"
        );
        // The first pass's records went out; the short re-scan stopped the
        // loop before its own.
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn rejects_oversized_input() {
        let em = machine(8, 4, 2);
        let input = Workload::UniformRandom.generate(100, 0);
        let v = EmVec::stage(&em, &input);
        assert!(selection_sort(&em, &v, 2).is_err()); // 100 > 2*8
    }

    #[test]
    fn empty_input_sorts_to_empty() {
        let em = machine(8, 4, 2);
        let v = EmVec::stage(&em, &[]);
        let sorted = selection_sort(&em, &v, 1).unwrap();
        assert!(sorted.is_empty());
        assert_eq!(em.stats().block_writes, 0);
    }

    #[test]
    fn memory_capacity_is_respected() {
        // A machine with insufficient slack must fault, not silently overrun.
        let em = EmMachine::new(EmConfig::new(16, 4, 2)); // no slack for buffers
        let input = Workload::UniformRandom.generate(30, 5);
        let v = EmVec::stage(&em, &input);
        assert!(selection_sort(&em, &v, 2).is_err());
    }
}
