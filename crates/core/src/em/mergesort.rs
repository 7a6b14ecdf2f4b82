//! Algorithm 2 — the AEM l = kM/B-way mergesort.
//!
//! Each merge proceeds in rounds. A round's first phase scans the current
//! block of every input run, inserting into an in-memory priority queue of
//! capacity M every record that is not yet output (`> lastV`) and small
//! enough to matter (`< Q.max`). The second phase drains the queue to the
//! output; whenever the drained record was the last of its block, the run's
//! pointer advances and the next block is processed immediately. Every round
//! outputs ≥ M records, so phase-1 re-reads cost k·n/B reads in total while
//! every block is written exactly once per level — the read/write trade at
//! the heart of the paper.
//!
//! Two deviations from the paper's pseudocode:
//!
//! 1. `lastV` is updated on every append to the store buffer rather than
//!    only when the buffer flushes (Algorithm 2 line 11). With flush-only
//!    updates, a record parked in a partially-filled store buffer across a
//!    round boundary is still `> lastV` and would be inserted — and output —
//!    a second time when its block is re-scanned by the next round's first
//!    phase.
//! 2. Each round maintains a *bar*: the minimum record ever rejected by or
//!    ejected from the full queue during the round, and nothing ≥ bar may
//!    enter the queue for the rest of the round. The paper's rule
//!    ("Q.max = +∞ whenever Q is not full") lets a record loaded during
//!    phase 2 — when the queue is momentarily below capacity after a
//!    deleteMin — leapfrog a record that phase 1 rejected; once the
//!    leapfrogger is written, `lastV` moves past the rejected record and it
//!    is skipped in every later round (records are lost). The bar restores
//!    the invariant that a round writes exactly the smallest remaining
//!    records, and leaves the round's ≥ M output guarantee (and hence
//!    Lemma 4.1's counting) intact.
//!
//! **Duplicate records.** The paper assumes records form a strict total
//! order (its convention is that a position index can always be appended to
//! break ties), and earlier versions of this merge inherited that as a hard
//! requirement: `lastV`, the bar, and the queue all compared raw records,
//! so a truly identical record was `<= lastV` the moment its twin was
//! written and got silently skipped — records were lost. The merge now keys
//! every candidate by `(Record, provenance)`, where the provenance is the
//! record's (source-run index, offset within the run), packed as
//! `run << 40 | offset` — unique by construction. Runs are sorted, so the
//! composite key is strictly increasing within a run; across runs the run
//! index breaks ties. Equal records therefore drain in stable run order and
//! none is ever dropped. On unique-record inputs the provenance never
//! decides a comparison, so every insertion, ejection, and drain decision —
//! and hence every modeled block transfer — is bit-identical to the old
//! record-only ordering (`tests/cost_golden.rs` and the committed
//! `BENCH_*.json` baselines pin this).
//!
//! **Implementation.** Q is a slice of each run's current block under a
//! min loser tree and a max winner tree, and phase 1 is one selection;
//! `em/merge_queue.rs` shows that every decision is the one
//! record-by-record inserts make.
//!
//! The slices need sorted runs, so a block that is not sorted, or a round
//! that finds nothing to write (a run that descends across a block
//! boundary), is a `ModelError::Invariant`.

use super::merge_queue::{SliceQueue, RUN_SHIFT};
use super::selection::{selection_sort, Key};
use asym_model::{ModelError, Record, Result};
use em_sim::{EmMachine, EmVec, EmWriter};

/// Extra primary memory Algorithm 2 needs beyond M, in records: the load and
/// store buffers (2B) plus the run pointers and last-in-block marks, which
/// the paper budgets as 2αkM/B ≤ kM/B records for 16-byte records.
pub fn mergesort_slack(m: usize, b: usize, k: usize) -> usize {
    2 * b + (k * m) / b
}

/// Options for [`aem_mergesort_opts`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MergeOpts {
    /// Keep the run pointers I₁..I_l in secondary memory instead of primary
    /// memory (the remark after Lemma 4.1): every pointer advance then
    /// writes the updated pointer block back, roughly doubling the writes,
    /// in exchange for not leasing the 2αkM/B pointer space.
    pub pointers_on_disk: bool,
}

/// Sort `input` with the AEM mergesort at write-saving factor `k`
/// (1 ≤ k; k=1 is the classic EM mergesort). Consumes and frees the input's
/// blocks; returns a freshly written sorted array. `sort::run`
/// dispatches `aem-mergesort` specs to this engine.
pub fn aem_mergesort(machine: &EmMachine, input: EmVec, k: usize) -> Result<EmVec> {
    aem_mergesort_opts(machine, input, k, MergeOpts::default())
}

/// [`aem_mergesort`] with explicit [`MergeOpts`] (ablation entry point).
pub fn aem_mergesort_opts(
    machine: &EmMachine,
    input: EmVec,
    k: usize,
    opts: MergeOpts,
) -> Result<EmVec> {
    assert!(k >= 1, "k must be at least 1");
    let m = machine.m();
    let b = machine.b();
    let l = k * m / b;
    if l < 2 {
        return Err(ModelError::Invariant(format!(
            "branching factor kM/B = {l} must be at least 2"
        )));
    }
    let n = input.len();
    if n <= k * m {
        let sorted = selection_sort(machine, &input, k)?;
        input.free(machine);
        return Ok(sorted);
    }
    // Partition into at most l block-aligned subarrays and sort recursively.
    let pieces = input.split_blocks(l, b);
    let mut runs: Vec<EmVec> = Vec::with_capacity(pieces.len());
    for piece in pieces {
        runs.push(aem_mergesort_opts(machine, piece, k, opts)?);
    }
    let out = merge_runs(machine, &runs, k, opts)?;
    for run in runs {
        run.free(machine);
    }
    Ok(out)
}

/// Merge already-sorted runs staged on `machine` with the Lemma 4.1 l-way
/// merge — the staged/checkpointed executor's merge-round engine
/// (`sort::checkpoint`). The input runs are left live; the caller frees
/// them. Requires `runs.len() <= kM/B`.
pub(crate) fn merge_sorted_runs(machine: &EmMachine, runs: &[EmVec], k: usize) -> Result<EmVec> {
    merge_runs(machine, runs, k, MergeOpts::default())
}

/// Read block `bi` of run `r` into `buf`; `false` once the run is
/// exhausted.
fn load_block(
    machine: &EmMachine,
    runs: &[EmVec],
    r: usize,
    bi: usize,
    buf: &mut Vec<Record>,
) -> Result<bool> {
    let Some(&id) = runs[r].block_ids().get(bi) else {
        return Ok(false);
    };
    machine.read_block_into(id, buf)?;
    if !buf.is_sorted() {
        return Err(ModelError::Invariant(format!(
            "merge input run {r} is not sorted (block {bi})"
        )));
    }
    Ok(true)
}

/// Merge l sorted runs (Lemma 4.1): at most (k+1)⌈n/B⌉ reads, ⌈n/B⌉ writes
/// (plus one pointer-block write per consumed block when
/// `opts.pointers_on_disk`).
fn merge_runs(machine: &EmMachine, runs: &[EmVec], k: usize, opts: MergeOpts) -> Result<EmVec> {
    let m = machine.m();
    let b = machine.b();
    let l = runs.len();
    debug_assert!(l <= k * m / b, "too many runs for one merge");
    let total: usize = runs.iter().map(EmVec::len).sum();
    if l >= 1 << (usize::BITS - RUN_SHIFT) || total >= 1 << RUN_SHIFT {
        return Err(ModelError::Invariant(format!(
            "{l} runs of {total} records overflow the merge's packed keys"
        )));
    }

    // Primary-memory leases: the queue (M records), the load buffer (one
    // block: of a block read, only the slice Q keeps stays in memory), and
    // pointer/mark state (≤ kM/B records' worth) — unless the pointers live
    // on disk; the writer leases its own block.
    let _queue_lease = machine.lease(m)?;
    let _load_lease = machine.lease(b)?;
    let _pointer_lease = if opts.pointers_on_disk {
        None
    } else {
        Some(machine.lease(l.min((k * m) / b))?)
    };
    let mut writer = EmWriter::new(machine)?;

    // In-memory operations are free in the model; only block transfers are
    // charged.
    let mut queue = SliceQueue::new(l);
    // Per-run cursor: index of the current (not fully consumed) block.
    let mut next_block: Vec<usize> = vec![0; l];
    let mut last_v: Option<Key> = None;
    let mut written = 0usize;

    while written < total {
        // Phase 1: scan the current block of every run. The bar resets each
        // round: records above it become eligible again.
        for (r, &bi) in next_block.iter().enumerate() {
            load_block(machine, runs, r, bi, queue.block_mut(r, bi * b))?;
        }
        let mut bar = queue.fill(m, last_v);
        if queue.is_empty() {
            return Err(ModelError::Invariant(format!(
                "merge round found none of the {} unwritten records: \
                 an input run is not sorted",
                total - written
            )));
        }
        // Phase 2: drain the queue, chasing block boundaries.
        while let Some((key, last_in_block)) = queue.pop_min() {
            writer.push(key.0);
            written += 1;
            last_v = Some(key);
            if last_in_block {
                let r = key.1 >> RUN_SHIFT;
                next_block[r] += 1;
                if opts.pointers_on_disk {
                    // Persist the updated pointer I_r (one block write; the
                    // re-read cost is folded into the next block load).
                    machine.charge_writes(1);
                }
                let bi = next_block[r];
                if load_block(machine, runs, r, bi, queue.block_mut(r, bi * b))? {
                    queue.insert_block(r, m, key, &mut bar);
                }
            }
        }
    }
    Ok(writer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_model::record::assert_sorted_permutation;
    use asym_model::stats::ceil_log_base;
    use asym_model::workload::Workload;
    use em_sim::EmConfig;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn machine(m: usize, b: usize, omega: u64, k: usize) -> EmMachine {
        EmMachine::new(EmConfig::new(m, b, omega).with_slack(mergesort_slack(m, b, k)))
    }

    #[test]
    fn sorts_all_workloads_beyond_base_case() {
        let (m, b, k) = (32usize, 4usize, 2usize);
        let em = machine(m, b, 8, k);
        for wl in Workload::ALL {
            let input = wl.generate(500, 11); // 500 > kM = 64
            let v = EmVec::stage(&em, &input);
            let sorted = aem_mergesort(&em, v, k).unwrap();
            assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
            sorted.free(&em);
        }
    }

    #[test]
    fn classic_k1_instance_sorts() {
        let em = machine(16, 4, 1, 1);
        let input = Workload::UniformRandom.generate(300, 2);
        let v = EmVec::stage(&em, &input);
        let sorted = aem_mergesort(&em, v, 1).unwrap();
        assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
    }

    #[test]
    fn duplicate_heavy_inputs_sort_without_losing_records() {
        let (m, b, k) = (32usize, 4usize, 2usize);
        let em = machine(m, b, 8, k);
        // All-identical inputs used to lose every twin of the first written
        // record to the `e <= lastV` skip; the (Record, seq) keys keep them.
        let identical = vec![Record::new(7, 7); 500];
        // 90%-duplicate keys over a tiny alphabet.
        let few_distinct: Vec<Record> = (0..500).map(|i| Record::new(i % 5, i % 2)).collect();
        for input in [identical, few_distinct] {
            let v = EmVec::stage(&em, &input);
            let sorted = aem_mergesort(&em, v, k).unwrap();
            let out = sorted.read_all_uncharged(&em);
            assert_eq!(out.len(), input.len(), "records lost");
            assert_sorted_permutation(&input, &out);
            sorted.free(&em);
        }
    }

    #[test]
    fn respects_theorem_4_3_bounds() {
        for (m, b, k, n) in [
            (32usize, 4usize, 2usize, 1000usize),
            (32, 4, 4, 1000),
            (64, 8, 3, 4000),
            (16, 4, 1, 500),
        ] {
            let em = machine(m, b, 8, k);
            let input = Workload::UniformRandom.generate(n, 5);
            let v = EmVec::stage(&em, &input);
            em.reset_stats();
            let sorted = aem_mergesort(&em, v, k).unwrap();
            assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
            let s = em.stats();
            let blocks = n.div_ceil(b) as u64;
            let levels = ceil_log_base((k * m) as f64 / b as f64, blocks as f64);
            let read_bound = (k as u64 + 1) * blocks * levels;
            let write_bound = blocks * levels;
            assert!(
                s.block_reads <= read_bound,
                "(m={m},b={b},k={k},n={n}): reads {} > bound {read_bound}",
                s.block_reads
            );
            assert!(
                s.block_writes <= write_bound,
                "(m={m},b={b},k={k},n={n}): writes {} > bound {write_bound}",
                s.block_writes
            );
        }
    }

    #[test]
    fn larger_k_reduces_writes() {
        let (m, b, n) = (32usize, 4usize, 20_000usize);
        let input = Workload::UniformRandom.generate(n, 3);
        let writes = |k: usize| {
            let em = machine(m, b, 8, k);
            let v = EmVec::stage(&em, &input);
            em.reset_stats();
            let sorted = aem_mergesort(&em, v, k).unwrap();
            let w = em.stats().block_writes;
            sorted.free(&em);
            w
        };
        let w1 = writes(1);
        let w4 = writes(4);
        assert!(
            w4 < w1,
            "k=4 should write fewer blocks than classic k=1: {w4} vs {w1}"
        );
    }

    #[test]
    fn input_blocks_are_freed() {
        let em = machine(32, 4, 4, 2);
        let input = Workload::UniformRandom.generate(400, 9);
        let v = EmVec::stage(&em, &input);
        let sorted = aem_mergesort(&em, v, 2).unwrap();
        // Only the output should remain live.
        assert_eq!(em.live_blocks(), sorted.num_blocks());
    }

    #[test]
    fn rejects_degenerate_branching() {
        let em = EmMachine::new(EmConfig::new(4, 4, 2).with_slack(64));
        let input = Workload::UniformRandom.generate(100, 1);
        let v = EmVec::stage(&em, &input);
        assert!(aem_mergesort(&em, v, 1).is_err()); // kM/B = 1
    }

    #[test]
    fn tiny_inputs_hit_base_case_directly() {
        let em = machine(32, 4, 2, 2);
        let input = Workload::Reversed.generate(10, 0);
        let v = EmVec::stage(&em, &input);
        em.reset_stats();
        let sorted = aem_mergesort(&em, v, 2).unwrap();
        assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
        // One selection pass: ceil(10/4) reads and writes.
        assert_eq!(em.stats().block_reads, 3);
        assert_eq!(em.stats().block_writes, 3);
    }

    /// The seed's merge, kept as the oracle: Q is a `BTreeMap` keyed by
    /// `(record, run, offset)`, filled record by record under the same bar
    /// and `lastV` rules (module docs), with the same leases.
    fn reference_merge(
        machine: &EmMachine,
        runs: &[EmVec],
        k: usize,
        opts: MergeOpts,
    ) -> Result<EmVec> {
        type RefKey = (Record, usize, usize);
        let (m, b, l) = (machine.m(), machine.b(), runs.len());
        let total: usize = runs.iter().map(EmVec::len).sum();
        let _queue_lease = machine.lease(m)?;
        let _load_lease = machine.lease(b)?;
        let _pointer_lease = if opts.pointers_on_disk {
            None
        } else {
            Some(machine.lease(l.min((k * m) / b))?)
        };
        let mut writer = EmWriter::new(machine)?;
        // Key → whether it is the last record of its block.
        let mut queue: BTreeMap<RefKey, bool> = BTreeMap::new();
        let mut next_block = vec![0; l];
        let mut buf = Vec::new();
        let mut last_v: Option<RefKey> = None;
        let mut written = 0;
        let process = |queue: &mut BTreeMap<RefKey, bool>,
                       buf: &mut Vec<Record>,
                       bi: usize,
                       last_v: Option<RefKey>,
                       bar: &mut Option<RefKey>,
                       i: usize|
         -> Result<()> {
            let Some(&id) = runs[i].block_ids().get(bi) else {
                return Ok(());
            };
            machine.read_block_into(id, buf)?;
            let last = buf.len() - 1;
            for (j, &e) in buf.iter().enumerate() {
                let key = (e, i, bi * b + j);
                if last_v.is_some_and(|lv| key <= lv) || bar.is_some_and(|bk| key >= bk) {
                    continue;
                }
                if queue.len() >= m {
                    let (&qmax, _) = queue.last_key_value().expect("full");
                    let turned = if key >= qmax {
                        key
                    } else {
                        queue.pop_last();
                        qmax
                    };
                    *bar = Some(bar.map_or(turned, |bk| bk.min(turned)));
                    if turned == key {
                        continue;
                    }
                }
                queue.insert(key, j == last);
            }
            Ok(())
        };
        while written < total {
            let mut bar = None;
            for (i, &bi) in next_block.iter().enumerate() {
                process(&mut queue, &mut buf, bi, last_v, &mut bar, i)?;
            }
            assert!(!queue.is_empty(), "the reference merge made no progress");
            while let Some((key, last)) = queue.pop_first() {
                writer.push(key.0);
                written += 1;
                last_v = Some(key);
                if last {
                    let i = key.1;
                    next_block[i] += 1;
                    if opts.pointers_on_disk {
                        machine.charge_writes(1);
                    }
                    process(&mut queue, &mut buf, next_block[i], last_v, &mut bar, i)?;
                }
            }
        }
        Ok(writer.finish())
    }

    /// Sorted runs of the given lengths, from xorshift draws: duplicate-heavy
    /// records (4 keys × 3 payloads) when `dup`, near-unique ones otherwise.
    fn sorted_runs(lens: &[usize], seed: u64, dup: bool) -> Vec<Vec<Record>> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut id = 0;
        lens.iter()
            .map(|&len| {
                let mut run: Vec<Record> = (0..len)
                    .map(|_| {
                        id += 1;
                        let d = next();
                        if dup {
                            Record::new(d % 4, d / 4 % 3)
                        } else {
                            Record::new(d % 1_000_000, id)
                        }
                    })
                    .collect();
                run.sort();
                run
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Merge output and every modeled count — block reads, block writes
        /// and peak memory — equal the `BTreeMap` oracle's, over random
        /// geometries (k ≥ 2 with l·B > M takes the ejection path; l is
        /// rarely a power of two), duplicate-heavy runs and pointers on disk.
        #[test]
        fn merge_matches_btreemap_reference(
            geom in (0usize..3, 1usize..7, 1usize..5, 0usize..64),
            lens in prop::collection::vec(0usize..60, 24..25),
            seed in 0u64..u64::MAX,
            dup in any::<bool>(),
            pointers_on_disk in any::<bool>(),
        ) {
            let b = [2, 4, 8][geom.0];
            let (m, k) = (b * geom.1, geom.2);
            let l = 1 + geom.3 % (k * m / b);
            let runs = sorted_runs(&lens[..l], seed, dup);
            let opts = MergeOpts { pointers_on_disk };
            let merge = |f: fn(&EmMachine, &[EmVec], usize, MergeOpts) -> Result<EmVec>| {
                let em = machine(m, b, 8, k);
                let staged: Vec<EmVec> = runs.iter().map(|r| EmVec::stage(&em, r)).collect();
                let out = f(&em, &staged, k, opts).expect("merge");
                (out.read_all_uncharged(&em), em.stats())
            };
            let (got, got_stats) = merge(merge_runs);
            let (want, want_stats) = merge(reference_merge);
            let mut sorted: Vec<Record> = runs.concat();
            sorted.sort();
            prop_assert_eq!(&want, &sorted);
            prop_assert_eq!(got, want, "(m={}, b={}, k={}, l={})", m, b, k, l);
            prop_assert_eq!(got_stats, want_stats, "(m={}, b={}, k={}, l={})", m, b, k, l);
        }
    }

    /// An unsorted run must end the merge with an error. Blocks [1,2],[0,3]
    /// are each sorted, but 0 is below the 2 already written, so the second
    /// round finds nothing to write; a within-block disorder is caught on
    /// load. The merge runs on a thread so a spin fails the test instead of
    /// hanging it.
    #[test]
    fn unsorted_runs_are_an_error_not_a_spin() {
        for keys in [[1u64, 2, 0, 3], [2, 1, 3, 4]] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let em = machine(4, 2, 8, 1);
                let run: Vec<Record> = keys.iter().map(|&k| Record::keyed(k)).collect();
                let runs = [EmVec::stage(&em, &run)];
                let _ = tx.send(merge_runs(&em, &runs, 1, MergeOpts::default()).map(|v| v.len()));
            });
            let got = rx
                .recv_timeout(std::time::Duration::from_secs(20))
                .expect("the merge must return, not spin or panic");
            assert!(
                matches!(got, Err(ModelError::Invariant(_))),
                "{keys:?}: {got:?}"
            );
        }
    }
}
