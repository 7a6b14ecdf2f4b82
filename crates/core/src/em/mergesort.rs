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
//! every candidate by `(Record, Seq)` where `Seq` is the record's
//! provenance — (source-run index, offset within the run) — which is unique
//! by construction. Runs are sorted, so the composite key is strictly
//! increasing within a run; across runs the run index breaks ties. Equal
//! records therefore drain in stable run order and none is ever dropped.
//! On unique-record inputs the provenance never decides a comparison, so
//! every insertion, ejection, and drain decision — and hence every modeled
//! block transfer — is bit-identical to the old record-only ordering
//! (`tests/cost_golden.rs` and the committed `BENCH_*.json` baselines pin
//! this).
//!
//! One implementation deviation (performance, not semantics): the paper's
//! priority queue Q is realized as a [`FlatMergeQueue`] — a bounded flat
//! interval heap — rather than the `BTreeMap` the seed used. Both expose
//! peek-max / pop-max / push / pop-min over the same strict-total-order
//! keys, so every decision is identical; the flat heap just does it without
//! allocating a node per record.

use super::merge_queue::FlatMergeQueue;
use super::selection::selection_sort;
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

/// Queue entry bookkeeping: which run a record came from, and whether it was
/// the last record of its block (the paper's "mark").
#[derive(Clone, Copy, Debug)]
struct Mark {
    run: u32,
    last_in_block: bool,
}

/// Provenance of a merge candidate: the index of its source run within the
/// current merge and its offset within that run. Pairing a record with its
/// provenance gives the merge a strict total order even when records are
/// duplicated (see the module docs): within a run offsets increase, across
/// runs the run index breaks ties, so equal records drain in stable run
/// order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Seq {
    run: u32,
    offset: u64,
}

/// The merge's comparison key: the record itself, tie-broken by provenance.
type MergeKey = (Record, Seq);

/// Merge l sorted runs (Lemma 4.1): at most (k+1)⌈n/B⌉ reads, ⌈n/B⌉ writes
/// (plus one pointer-block write per consumed block when
/// `opts.pointers_on_disk`).
fn merge_runs(machine: &EmMachine, runs: &[EmVec], k: usize, opts: MergeOpts) -> Result<EmVec> {
    let m = machine.m();
    let b = machine.b();
    let l = runs.len();
    debug_assert!(l <= k * m / b, "too many runs for one merge");
    let total: usize = runs.iter().map(EmVec::len).sum();

    // Primary-memory leases: the queue (M records), the shared load buffer
    // (one block), and pointer/mark state (≤ kM/B records' worth) — unless
    // the pointers live on disk; the writer leases its own block.
    let _queue_lease = machine.lease(m)?;
    let _load_lease = machine.lease(b)?;
    let _pointer_lease = if opts.pointers_on_disk {
        None
    } else {
        Some(machine.lease(l.min((k * m) / b))?)
    };
    let mut writer = EmWriter::new(machine)?;

    // In-memory priority queue: a bounded flat interval heap of capacity M
    // (see the module docs). In-memory operations are free in the model;
    // only block transfers are charged.
    let mut queue: FlatMergeQueue<MergeKey, Mark> = FlatMergeQueue::with_capacity(m);
    // Per-run cursor: index of the current (not fully consumed) block.
    let mut next_block: Vec<usize> = vec![0; l];
    // The shared load buffer, reused for every block read of the merge.
    let mut load_buf: Vec<Record> = Vec::with_capacity(b);
    let mut last_v: Option<MergeKey> = None;
    let mut written = 0usize;

    // Load the current block of run `i` (into the shared, reused load
    // buffer) and insert its eligible records into the queue.
    #[allow(clippy::too_many_arguments)]
    fn do_process_block(
        machine: &EmMachine,
        runs: &[EmVec],
        queue: &mut FlatMergeQueue<MergeKey, Mark>,
        next_block: &mut [usize],
        load_buf: &mut Vec<Record>,
        last_v: &Option<MergeKey>,
        bar: &mut Option<MergeKey>,
        i: usize,
    ) -> Result<()> {
        let run = &runs[i];
        let bi = next_block[i];
        if bi >= run.num_blocks() {
            return Ok(());
        }
        let block_cap = machine.b();
        machine.read_block_into(run.block_ids()[bi], load_buf)?;
        let last_idx = load_buf.len() - 1;
        for (j, &e) in load_buf.iter().enumerate() {
            // Every full block holds exactly B records, so the record's
            // run-relative offset is recoverable from its block position.
            let key: MergeKey = (
                e,
                Seq {
                    run: i as u32,
                    offset: (bi * block_cap + j) as u64,
                },
            );
            if let Some(lv) = last_v {
                if key <= *lv {
                    continue; // already written in an earlier round
                }
            }
            // Round bar: nothing at or above a key the round has already
            // turned away may enter (see module docs, deviation 2).
            if let Some(bk) = bar {
                if key >= *bk {
                    continue;
                }
            }
            if queue.len() >= queue.capacity() {
                let qmax = queue.peek_max().expect("non-empty");
                if key >= qmax {
                    *bar = Some(bar.map_or(key, |bk| bk.min(key)));
                    continue;
                }
                let (ejected, _) = queue.pop_max().expect("non-empty");
                *bar = Some(bar.map_or(ejected, |bk| bk.min(ejected)));
            }
            queue.push(
                key,
                Mark {
                    run: i as u32,
                    last_in_block: j == last_idx,
                },
            );
        }
        Ok(())
    }

    while written < total {
        // Phase 1: scan the current block of every run. The bar resets each
        // round: records above it become eligible again.
        let mut bar: Option<MergeKey> = None;
        for i in 0..l {
            do_process_block(
                machine,
                runs,
                &mut queue,
                &mut next_block,
                &mut load_buf,
                &last_v,
                &mut bar,
                i,
            )?;
        }
        debug_assert!(
            written + queue.len() >= total || !queue.is_empty(),
            "phase 1 must make progress"
        );
        // Phase 2: drain the queue, chasing block boundaries.
        while let Some((key, mark)) = queue.pop_min() {
            writer.push(key.0);
            written += 1;
            last_v = Some(key);
            if mark.last_in_block {
                let i = mark.run as usize;
                next_block[i] += 1;
                if opts.pointers_on_disk {
                    // Persist the updated pointer I_i (one block write; the
                    // re-read cost is folded into the next process-block).
                    machine.charge_writes(1);
                }
                do_process_block(
                    machine,
                    runs,
                    &mut queue,
                    &mut next_block,
                    &mut load_buf,
                    &last_v,
                    &mut bar,
                    i,
                )?;
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
}
