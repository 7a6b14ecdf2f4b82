//! The modeled parallel AEM sample sort: per-lane cost charging through a
//! sharded [`ParMachine`], span from the `wd-sim` cost algebra, and a
//! simulated work-stealing execution of the phase DAG.
//!
//! This is the executable version of the paper's parallel story (§4–§5):
//! write-efficiency only pays off if the *parallel schedule* preserves it,
//! so every phase here charges its modeled block transfers to the lane that
//! performs them and the run reports both the per-lane split and the merged
//! work aggregate. The phase schedule:
//!
//! 1. **sample-scan** (all lanes): the input is split into block-aligned
//!    chunks, one per lane; each lane scans its own chunk (charged reads)
//!    and keeps the records whose *global index* hashes into the sample —
//!    membership is a pure function of `(seed, index)`, so the sample, the
//!    splitters, and every bucket boundary are independent of the lane
//!    count.
//! 2. **splitter-sort** (lane 0): the sample is streamed to lane 0's disk
//!    (charged writes), sorted with the serial AEM mergesort, and streamed
//!    back once to pick the splitters at evenly spaced positions. A sample
//!    that arrives already in order (sorted or all-duplicate inputs) skips
//!    the disk sort — the decision is a property of the sample, never of
//!    the lane layout.
//! 3. **count** (all lanes): each lane re-scans its chunk and counts
//!    records per bucket, holding the splitters under a primary-memory
//!    lease.
//! 4. **exchange** (all lanes): each lane re-scans its chunk, routing every
//!    record to its bucket; buckets are owned round-robin by lane
//!    (`bucket % lanes`) and the owner writes each bucket as a dense block
//!    run on its own store — every output block is written exactly once by
//!    exactly one lane, so total writes are `Σ_b ⌈len_b/B⌉` no matter how
//!    many lanes participate.
//! 5. **bucket-sort** (owner lanes): buckets that fit in a lane's primary
//!    memory are read (charged), sorted in memory (free RAM ops), and
//!    written back (charged); oversized buckets — including the
//!    duplicate-heavy degenerate-skew case — run the serial AEM mergesort
//!    on the owner's machine, whose `(Record, provenance)` merge keys
//!    handle duplicates exactly. Deterministic, so transfer counts depend
//!    only on the bucket, never on the lane layout.
//!
//! Phases are barriers: per-lane transfer deltas become
//! [`Cost`] strands, a phase is their parallel composition (depth maxes),
//! and the run's span is the sequential composition over phases. The same
//! per-lane weights feed a [`Task::phases`] tree executed by
//! [`wd_sim::simulate_work_stealing`], so the reported time includes the
//! scheduler's actual lane imbalance and steal traffic.
//!
//! **Work-preservation invariant**: merged `(reads, writes)` across lanes
//! are *identical for every lane count* on the same input and seed —
//! chunks are block-aligned (read totals telescope to `⌈n/B⌉` per scan)
//! and all writes are bucket- or sample-granular. The differential battery
//! in `tests/par_sorts_agree.rs` pins this down; experiment E13 tabulates
//! it.
//!
//! **Model idealizations** (stated, not hidden): records in flight between
//! lanes — the oversample collected in phase 1 and the all-to-all exchange
//! of phase 4 — pass through *host* memory without a primary-memory lease.
//! This is the paper's own accounting: inter-processor communication is
//! free in the work-depth part of the model, and the owner-writes-once
//! bucket discipline is what its parallel distribution sorts obtain from a
//! prefix-sum step that block-aligns every bucket's output region, giving
//! the lane-independent `Σ_b ⌈len_b/B⌉` write total. A strictly M-bounded
//! exchange (the serial partition's round-of-M/B-buckets discipline,
//! `em::samplesort::partition`) would instead write per-(lane, bucket)
//! partial blocks — `Σ_w Σ_b ⌈len_{w,b}/B⌉`, larger and lane-*dependent* —
//! which is precisely the write inflation the paper's schedule avoids and
//! this invariant demonstrates. The final gather into one host vector is
//! likewise uncharged: the distributed sorted runs are the output.

use super::splitters::{bucket_of, dedup_splitters, splitter_positions};
use crate::em::mergesort::{aem_mergesort, mergesort_slack};
use asym_model::{ModelError, Record, Result};
use em_sim::{EmStats, EmVec, EmWriter, ParMachine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wd_sim::{simulate_work_stealing_traced, Cost, StealStats, Task};

/// Extra primary memory each lane needs beyond `M`: the serial mergesort's
/// slack (splitter-sort and oversized-bucket phases) or the splitter table
/// (`⌈M/B⌉` records), plus two block buffers (a cursor and an output
/// writer can be open at once).
pub fn par_samplesort_slack(m: usize, b: usize, k: usize) -> usize {
    2 * b + mergesort_slack(m, b, k).max(m.div_ceil(b))
}

/// Everything one modeled parallel sort run measured.
pub struct ParSortRun {
    /// The sorted records (gathered from the lanes' sorted runs, uncharged —
    /// the distributed runs *are* the algorithm's output).
    pub output: Vec<Record>,
    /// Final per-lane transfer stats, in worker order.
    pub lane_stats: Vec<EmStats>,
    /// The lanes merged into the work aggregate ([`EmStats::merge`]).
    pub merged: EmStats,
    /// Per-phase parallel cost (work adds, depth maxes across lanes).
    pub phase_costs: Vec<(&'static str, Cost)>,
    /// Total cost: phases in sequence. `cost.depth` is the modeled span.
    pub cost: Cost,
    /// A simulated work-stealing execution of the phase task tree on
    /// `lanes` processors.
    pub sched: StealStats,
}

impl ParSortRun {
    /// Modeled parallel time lower bound `max(work/p, span)` for `p` lanes.
    #[cfg(test)]
    fn greedy_lower_bound(&self, omega: u64, lanes: usize) -> u64 {
        (self.cost.work(omega) / lanes as u64).max(self.cost.depth)
    }
}

/// Tracks per-lane transfer deltas between phase barriers.
struct PhaseLog<'a> {
    par: &'a ParMachine,
    last: Vec<EmStats>,
    phases: Vec<(&'static str, Vec<Cost>)>,
}

impl<'a> PhaseLog<'a> {
    fn new(par: &'a ParMachine) -> Self {
        Self {
            par,
            last: par.lane_stats(),
            phases: Vec::new(),
        }
    }

    /// Close the current phase: per-lane `(Δreads, Δwrites)` become strands.
    fn barrier(&mut self, name: &'static str) {
        let omega = self.par.omega();
        let now = self.par.lane_stats();
        let costs = now
            .iter()
            .zip(&self.last)
            .map(|(cur, prev)| {
                Cost::strand(
                    cur.block_reads - prev.block_reads,
                    cur.block_writes - prev.block_writes,
                    omega,
                )
            })
            .collect();
        self.phases.push((name, costs));
        self.last = now;
    }
}

/// Sort `input` on the sharded machine `par`, charging modeled transfers to
/// the lane that performs them. `k` is the write-saving factor forwarded to
/// the serial AEM mergesort used for the sample and for oversized buckets;
/// `seed` drives sampling and the scheduler simulation. Lanes must be
/// configured with [`par_samplesort_slack`] of slack.
///
/// Runs are deterministic in `(input, geometry, k, seed)`; merged reads and
/// writes are additionally independent of the lane count (see the module
/// docs). Every intermediate block is released, so a run leaves the lanes'
/// stores exactly as it found them. `sort::run` dispatches
/// `par-aem-samplesort` specs to this engine.
///
/// When `charge_steals` is set, the §2 cache-warm-up charge is folded into
/// the lane stats after the scheduler simulation: each successful steal
/// charges its *thief* lane `M/B` block reads (reloading a primary memory's
/// worth of working set) and, pessimistically, `M/B` block writes (the
/// stolen working set's lines may be dirty) — the `Qp ≤ Q1 + O(p·D·M/B)`
/// accounting. The charge is appended as a final `steal-warmup` phase so
/// `phase_costs` still compose to `cost` and `cost.{reads,writes}` still
/// equal the merged machine counters; the scheduler simulation itself runs
/// on the *uncharged* phase tree (the warm-up is a cache-accounting overlay
/// on the schedule, not extra scheduled work). The second return value is
/// the total warm-up charge (zero when disabled), so callers can recover
/// the schedule-invariant base counts by subtraction.
pub fn par_aem_sample_sort(
    par: &ParMachine,
    input: &[Record],
    k: usize,
    seed: u64,
    charge_steals: bool,
) -> Result<(ParSortRun, EmStats)> {
    assert!(k >= 1, "k must be at least 1");
    let cfg = par.cfg();
    let (m, b) = (cfg.m, cfg.b);
    let p = par.lanes();
    if m / b < 2 {
        return Err(ModelError::Invariant(format!(
            "branching factor M/B = {} must be at least 2",
            m / b
        )));
    }
    let n = input.len();
    if n == 0 {
        return Ok((
            ParSortRun {
                output: Vec::new(),
                lane_stats: par.lane_stats(),
                merged: par.merged_stats(),
                phase_costs: Vec::new(),
                cost: Cost::ZERO,
                sched: StealStats::default(),
            },
            EmStats::default(),
        ));
    }
    let mut log = PhaseLog::new(par);

    // Stage: block-aligned chunks, one per lane (uncharged input setup).
    // Block alignment makes per-scan read totals telescope to ⌈n/B⌉
    // regardless of p.
    let total_blocks = n.div_ceil(b);
    let blocks_per_lane = total_blocks.div_ceil(p);
    let mut chunks: Vec<(usize, EmVec)> = Vec::with_capacity(p);
    for w in 0..p {
        let lo = (w * blocks_per_lane * b).min(n);
        let hi = ((w + 1) * blocks_per_lane * b).min(n);
        chunks.push((lo, EmVec::stage(par.lane(w), &input[lo..hi])));
    }

    // Phase 1 — sample-scan: every lane scans its own chunk; membership is
    // decided per *global* index, so the sample is lane-count-invariant.
    let num_buckets = n.div_ceil(m).clamp(2, (m / b).max(2));
    let target = ((4.0 * num_buckets as f64 * (n.max(2) as f64).ln()).ceil() as u64)
        .max(2 * num_buckets as u64)
        .min(n as u64);
    let mut sample: Vec<Record> = Vec::new();
    for (w, (start, chunk)) in chunks.iter().enumerate() {
        let mut reader = chunk.reader(par.lane(w))?;
        let mut index = *start as u64;
        while let Some(r) = reader.next() {
            if super::splitters::sampled(seed, index, n as u64, target) {
                sample.push(r);
            }
            index += 1;
        }
    }
    log.barrier("sample-scan");

    // Phase 2 — splitter-sort on lane 0: stream the sample to disk, sort it
    // with the serial AEM mergesort, stream it back once keeping only the
    // evenly spaced picks.
    let lane0 = par.lane(0);
    let splitters = if sample.windows(2).all(|w| w[0] <= w[1]) {
        // The sample arrived already in order (sorted or all-duplicate
        // inputs): picking splitters from it is free RAM work on records the
        // scan already holds. A property of the sample, so the branch cannot
        // depend on the lane count.
        dedup_splitters(
            splitter_positions(sample.len(), num_buckets)
                .into_iter()
                .map(|i| sample[i])
                .collect(),
        )
    } else {
        let mut writer = EmWriter::new(lane0)?;
        writer.extend(sample.drain(..));
        let sorted = aem_mergesort(lane0, writer.finish(), 1)?;
        let positions = splitter_positions(sorted.len(), num_buckets);
        let mut picks = Vec::with_capacity(positions.len());
        {
            let mut reader = sorted.reader(lane0)?;
            let mut next = positions.into_iter().peekable();
            let mut idx = 0usize;
            while let Some(r) = reader.next() {
                if next.peek() == Some(&idx) {
                    picks.push(r);
                    next.next();
                }
                idx += 1;
            }
        }
        sorted.free(lane0);
        dedup_splitters(picks)
    };
    let buckets = splitters.len() + 1;
    log.barrier("splitter-sort");

    // Phase 3 — count: each lane holds the splitter table under lease and
    // tallies its chunk.
    let mut counts: Vec<Vec<u64>> = vec![vec![0; buckets]; p];
    for (w, (_, chunk)) in chunks.iter().enumerate() {
        let lane = par.lane(w);
        let _splitter_lease = lane.lease(splitters.len().max(1))?;
        let mut reader = chunk.reader(lane)?;
        while let Some(r) = reader.next() {
            counts[w][bucket_of(&splitters, r)] += 1;
        }
    }
    log.barrier("count");

    // Phase 4 — exchange: re-scan chunks routing records to buckets; the
    // owner lane (bucket % p) writes each bucket as a dense block run, so
    // every output block is written exactly once.
    let mut bucket_data: Vec<Vec<Record>> = (0..buckets)
        .map(|j| Vec::with_capacity(counts.iter().map(|c| c[j] as usize).sum()))
        .collect();
    for (w, (_, chunk)) in chunks.iter().enumerate() {
        let lane = par.lane(w);
        let _splitter_lease = lane.lease(splitters.len().max(1))?;
        let mut reader = chunk.reader(lane)?;
        while let Some(r) = reader.next() {
            bucket_data[bucket_of(&splitters, r)].push(r);
        }
    }
    for (w, (_, chunk)) in chunks.into_iter().enumerate() {
        chunk.free(par.lane(w));
    }
    let mut runs: Vec<(usize, EmVec)> = Vec::with_capacity(buckets);
    for (j, data) in bucket_data.into_iter().enumerate() {
        let owner = j % p;
        let lane = par.lane(owner);
        let mut writer = EmWriter::new(lane)?;
        writer.extend(data);
        runs.push((owner, writer.finish()));
    }
    log.barrier("exchange");

    // Phase 5 — bucket-sort on the owner lanes.
    let mut sorted_runs: Vec<(usize, EmVec)> = Vec::with_capacity(runs.len());
    for (owner, run) in runs {
        let lane = par.lane(owner);
        if run.len() <= m {
            // In-memory: read the bucket under a full lease, sort with free
            // RAM operations, write the sorted run back.
            let lease = lane.lease(run.len().max(1))?;
            let mut data = run.reader(lane)?.drain();
            run.free(lane);
            data.sort_unstable();
            let mut writer = EmWriter::new(lane)?;
            writer.extend(data);
            drop(lease);
            sorted_runs.push((owner, writer.finish()));
        } else {
            // Oversized (skew): the serial write-efficient mergesort on the
            // owner's machine; deterministic, so its costs depend only on
            // the bucket content. Its `(Record, provenance)` merge keys make
            // duplicate-heavy buckets — up to every record equal, the
            // all-duplicates adversary — sort exactly, so degenerate skew
            // needs no special casing here.
            sorted_runs.push((owner, aem_mergesort(lane, run, k)?));
        }
    }
    log.barrier("bucket-sort");

    // Gather (uncharged oracle): the distributed sorted runs are the
    // algorithm's output; collecting them into one host vector is test
    // plumbing, not a modeled transfer.
    let mut output = Vec::with_capacity(n);
    for (owner, run) in sorted_runs {
        output.extend(run.read_all_uncharged(par.lane(owner)));
        run.free(par.lane(owner));
    }
    debug_assert_eq!(output.len(), n, "sort must conserve records");

    // Scheduler simulation over the measured (uncharged) phase tree: the
    // same per-lane depths the cost algebra uses become leaf weights.
    let lane_depths: Vec<Vec<u64>> = log
        .phases
        .iter()
        .map(|(_, lanes)| lanes.iter().map(|c| c.depth).collect())
        .collect();
    let task = Task::phases(&lane_depths);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5C4E_D01E);
    let trace = simulate_work_stealing_traced(&task, p, &mut rng);
    let sched = trace.stats;

    // §2 steal-aware cache warm-up charge (knob; see the function docs).
    let mut warmup = EmStats::default();
    if charge_steals {
        let mb = (m.div_ceil(b)) as u64;
        let omega = par.omega();
        let strands: Vec<Cost> = trace
            .steals_by_thief
            .iter()
            .enumerate()
            .map(|(w, &steals)| {
                let blocks = steals * mb;
                par.lane(w).charge_reads(blocks);
                par.lane(w).charge_writes(blocks);
                warmup.block_reads += blocks;
                warmup.block_writes += blocks;
                Cost::strand(blocks, blocks, omega)
            })
            .collect();
        log.phases.push(("steal-warmup", strands));
    }

    // Costs: phases in sequence, lanes in parallel within a phase.
    let phase_costs: Vec<(&'static str, Cost)> = log
        .phases
        .iter()
        .map(|(name, lanes)| (*name, Cost::par_all(lanes.iter().copied())))
        .collect();
    let cost = Cost::seq_all(phase_costs.iter().map(|(_, c)| *c));

    Ok((
        ParSortRun {
            output,
            lane_stats: par.lane_stats(),
            merged: par.merged_stats(),
            phase_costs,
            cost,
            sched,
        },
        warmup,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_model::record::assert_sorted_permutation;
    use asym_model::workload::Workload;
    use em_sim::EmConfig;

    fn par(m: usize, b: usize, omega: u64, k: usize, lanes: usize) -> ParMachine {
        ParMachine::new(
            EmConfig::new(m, b, omega).with_slack(par_samplesort_slack(m, b, k)),
            lanes,
        )
    }

    /// The engine without the steal charge.
    fn sort(par: &ParMachine, input: &[Record], k: usize, seed: u64) -> ParSortRun {
        par_aem_sample_sort(par, input, k, seed, false)
            .expect("sort")
            .0
    }

    #[test]
    fn sorts_all_workloads_across_lane_counts() {
        for wl in Workload::ALL {
            let input = wl.generate(3000, 21);
            for lanes in [1usize, 3, 8] {
                let machine = par(32, 4, 8, 2, lanes);
                let run = sort(&machine, &input, 2, 42);
                assert_sorted_permutation(&input, &run.output);
                assert_eq!(machine.live_blocks(), 0, "leaked blocks ({wl:?}, {lanes})");
            }
        }
    }

    #[test]
    fn merged_work_is_lane_count_invariant() {
        let input = Workload::UniformRandom.generate(5000, 3);
        let reference = {
            let machine = par(64, 8, 16, 2, 1);
            sort(&machine, &input, 2, 7)
        };
        for lanes in [2usize, 4, 8] {
            let machine = par(64, 8, 16, 2, lanes);
            let run = sort(&machine, &input, 2, 7);
            assert_eq!(
                run.merged.block_writes, reference.merged.block_writes,
                "lanes={lanes}: write totals must be preserved"
            );
            assert_eq!(
                run.merged.block_reads, reference.merged.block_reads,
                "lanes={lanes}: read totals must be preserved"
            );
            assert_eq!(run.output, reference.output);
        }
    }

    #[test]
    fn span_shrinks_and_respects_brent_bounds() {
        let input = Workload::UniformRandom.generate(8000, 9);
        let serial = {
            let machine = par(64, 8, 8, 1, 1);
            sort(&machine, &input, 1, 5)
        };
        let wide = {
            let machine = par(64, 8, 8, 1, 8);
            sort(&machine, &input, 1, 5)
        };
        assert!(
            wide.cost.depth < serial.cost.depth,
            "span must shrink with lanes: {} vs {}",
            wide.cost.depth,
            serial.cost.depth
        );
        // The simulated schedule can't beat the greedy lower bound and the
        // sim executes exactly the modeled work.
        assert!(wide.sched.time >= wide.greedy_lower_bound(8, 8));
        assert_eq!(wide.sched.work, wide.cost.work(8));
        assert_eq!(serial.sched.steals, 0, "one lane cannot steal");
    }

    #[test]
    fn phase_costs_compose_to_the_total() {
        let input = Workload::Zipf.generate(2000, 13);
        let machine = par(32, 4, 4, 1, 4);
        let run = sort(&machine, &input, 1, 11);
        assert_eq!(run.phase_costs.len(), 5);
        let recomposed = Cost::seq_all(run.phase_costs.iter().map(|(_, c)| *c));
        assert_eq!(recomposed, run.cost);
        // Merged machine counters agree with the cost algebra's work split.
        assert_eq!(run.cost.reads, run.merged.block_reads);
        assert_eq!(run.cost.writes, run.merged.block_writes);
    }

    #[test]
    fn tiny_and_degenerate_inputs() {
        for n in [0usize, 1, 3, 7, 8, 9] {
            let input = Workload::Reversed.generate(n, 1);
            for lanes in [1usize, 4] {
                let machine = par(16, 4, 2, 1, lanes);
                let run = sort(&machine, &input, 1, 0);
                assert_sorted_permutation(&input, &run.output);
                assert_eq!(machine.live_blocks(), 0);
            }
        }
    }

    #[test]
    fn all_identical_records_collapse_to_one_bucket() {
        let input = vec![Record::new(5, 5); 4000];
        for lanes in [1usize, 4] {
            let machine = par(32, 4, 8, 2, lanes);
            let run = sort(&machine, &input, 2, 19);
            assert_eq!(run.output, input);
            assert_eq!(machine.live_blocks(), 0);
        }
    }

    #[test]
    fn steal_warmup_charge_folds_into_lane_stats() {
        let input = Workload::UniformRandom.generate(6000, 17);
        let base = {
            let machine = par(32, 4, 8, 1, 4);
            par_aem_sample_sort(&machine, &input, 1, 23, false).expect("base")
        };
        let charged = {
            let machine = par(32, 4, 8, 1, 4);
            par_aem_sample_sort(&machine, &input, 1, 23, true).expect("charged")
        };
        assert_eq!(base.1, EmStats::default(), "knob off charges nothing");
        let (run, warmup) = charged;
        // Same schedule, same output, same scheduler run.
        assert_eq!(run.output, base.0.output);
        assert_eq!(run.sched, base.0.sched);
        // Warm-up totals: M/B reads + M/B writes per successful steal.
        let mb = 32u64 / 4;
        assert_eq!(warmup.block_reads, run.sched.steals * mb);
        assert_eq!(warmup.block_writes, run.sched.steals * mb);
        assert!(run.sched.steals > 0, "4 lanes with imbalance should steal");
        // Folded into the machine counters: merged = base + warm-up, and the
        // cost algebra stays consistent with the counters.
        assert_eq!(
            run.merged.block_reads,
            base.0.merged.block_reads + warmup.block_reads
        );
        assert_eq!(
            run.merged.block_writes,
            base.0.merged.block_writes + warmup.block_writes
        );
        assert_eq!(run.cost.reads, run.merged.block_reads);
        assert_eq!(run.cost.writes, run.merged.block_writes);
        assert_eq!(run.phase_costs.len(), 6, "steal-warmup appended as a phase");
        assert_eq!(run.phase_costs[5].0, "steal-warmup");
        // Per-lane: lane stats sum to the merged aggregate still.
        assert_eq!(EmStats::merge_all(run.lane_stats.clone()), run.merged);
    }

    #[test]
    fn deterministic_given_seed() {
        let input = Workload::NearlySorted.generate(4000, 2);
        let a = sort(&par(32, 4, 8, 1, 4), &input, 1, 23);
        let b = sort(&par(32, 4, 8, 1, 4), &input, 1, 23);
        assert_eq!(a.output, b.output);
        assert_eq!(a.merged, b.merged);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.sched, b.sched);
    }
}
