//! [`run`] and [`run_lean`], the one `match` that dispatches a
//! [`SortSpec`] to its algorithm's engine, and the unified [`SortOutcome`].

use super::spec::{Algorithm, SortSpec};
use crate::em::{aem_heapsort, aem_mergesort, aem_samplesort};
use crate::par::par_aem_sample_sort;
use asym_model::{CostReport, Record, Result};
use em_sim::{EmMachine, EmStats, EmVec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wd_sim::{Cost, StealStats};

/// Everything one sort job produced, regardless of algorithm: the sorted
/// records, the merged transfer statistics, their ω-weighted rendering, and
/// — for parallel runs — the per-lane / per-phase / scheduler detail that
/// used to live in `par::ParSortRun`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortOutcome {
    /// The sorted records (gathered to host memory, uncharged — the
    /// disk-resident runs are the algorithm's output). Empty for a lean
    /// run ([`run_lean`]) and for telemetry decoded without its records.
    pub output: Vec<Record>,
    /// How many records the sort produced: `output.len()` when the output
    /// was gathered, and the input's length when it was not.
    pub output_len: usize,
    /// Transfer statistics, merged across lanes for parallel runs. Includes
    /// the steal warm-up charge when the spec enables it.
    pub stats: EmStats,
    /// `stats` rendered under the spec's ω.
    pub report: CostReport,
    /// Parallel-only detail (`None` for the sequential algorithms).
    pub parallel: Option<ParData>,
}

impl SortOutcome {
    /// Total asymmetric I/O cost `reads + ω·writes`.
    pub fn io_cost(&self) -> u64 {
        self.report.total()
    }

    /// The transfer stats with any steal warm-up charge subtracted back out
    /// — the schedule-invariant base counts E13's work-preservation claim
    /// is about. Identical to `stats` for sequential runs and for parallel
    /// runs with the knob off.
    pub fn base_stats(&self) -> EmStats {
        match &self.parallel {
            Some(par) => EmStats {
                block_reads: self.stats.block_reads - par.steal_warmup.block_reads,
                block_writes: self.stats.block_writes - par.steal_warmup.block_writes,
                peak_memory: self.stats.peak_memory,
            },
            None => self.stats,
        }
    }
}

/// Per-lane, per-phase, and scheduler measurements of a parallel run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParData {
    /// Final per-lane transfer stats, in worker order (warm-up included
    /// when charged).
    pub lane_stats: Vec<EmStats>,
    /// Per-phase parallel cost (work adds, depth maxes across lanes); the
    /// `steal-warmup` phase is appended when the spec charges steals.
    pub phase_costs: Vec<(&'static str, Cost)>,
    /// Total cost: phases in sequence. `cost.depth` is the modeled span.
    pub cost: Cost,
    /// The simulated work-stealing execution of the phase tree.
    pub sched: StealStats,
    /// The §2 cache warm-up charge folded into the lane stats (zero when
    /// the spec's `steal_charge` knob is off).
    pub steal_warmup: EmStats,
}

/// Shared sequential plumbing: build the spec's machine, stage the input
/// (uncharged), run the engine, gather the output unless the run is
/// `lean`, and assert that freeing the output leaves the store fully
/// released — every engine frees what it allocates.
fn run_serial(
    spec: &SortSpec,
    input: &[Record],
    lean: bool,
    engine: impl FnOnce(&EmMachine, EmVec) -> Result<EmVec>,
) -> Result<SortOutcome> {
    let em = spec.machine()?;
    let staged = EmVec::stage(&em, input);
    let sorted = engine(&em, staged)?;
    let output_len = sorted.len();
    let output = if lean {
        Vec::new()
    } else {
        sorted.read_all_uncharged(&em)
    };
    sorted.free(&em);
    assert_eq!(em.live_blocks(), 0, "engine leaked disk blocks");
    let stats = em.stats();
    Ok(SortOutcome {
        output,
        output_len,
        stats,
        report: stats.report(spec.omega()),
        parallel: None,
    })
}

/// Run the job described by `spec` over `input` — the one front door. The
/// spec's algorithm picks the engine (its public free function), so the
/// result is cost-identical to calling that engine on the spec's machine.
/// Runtime faults (backend I/O, exceeded leases) surface as [`ModelError`]s.
///
/// [`ModelError`]: asym_model::ModelError
pub fn run(spec: &SortSpec, input: &[Record]) -> Result<SortOutcome> {
    dispatch(spec, input, false)
}

/// [`run`] for a caller that wants only the counts: every sort frees its
/// sorted runs without gathering them into host memory, so the outcome's
/// `output` is empty and `output_len` is the input's length. Every charged
/// transfer, and so every count, is `run`'s.
pub fn run_lean(spec: &SortSpec, input: &[Record]) -> Result<SortOutcome> {
    dispatch(spec, input, true)
}

fn dispatch(spec: &SortSpec, input: &[Record], lean: bool) -> Result<SortOutcome> {
    let k = spec.k();
    match spec.algorithm() {
        Algorithm::Mergesort => run_serial(spec, input, lean, |em, v| aem_mergesort(em, v, k)),
        // The spec's seed drives the splitter sampling, so runs are
        // deterministic in the spec.
        Algorithm::Samplesort => run_serial(spec, input, lean, |em, v| {
            aem_samplesort(em, v, k, &mut StdRng::seed_from_u64(spec.seed()))
        }),
        Algorithm::Heapsort => run_serial(spec, input, lean, |em, v| aem_heapsort(em, v, k)),
        Algorithm::ParSamplesort => {
            let par = spec.par_machine()?;
            let (run, steal_warmup) =
                par_aem_sample_sort(&par, input, k, spec.seed(), spec.steal_charge(), !lean)?;
            assert_eq!(par.live_blocks(), 0, "a run must release every block");
            let stats = run.merged;
            Ok(SortOutcome {
                output: run.output,
                output_len: input.len(),
                stats,
                report: stats.report(spec.omega()),
                parallel: Some(ParData {
                    lane_stats: run.lane_stats,
                    phase_costs: run.phase_costs,
                    cost: run.cost,
                    sched: run.sched,
                    steal_warmup,
                }),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_model::record::assert_sorted_permutation;
    use asym_model::workload::Workload;

    fn spec_for(algorithm: Algorithm) -> SortSpec {
        SortSpec::builder(algorithm, 32, 4, 8)
            .k(2)
            .lanes(if algorithm.is_parallel() { 4 } else { 1 })
            .seed(11)
            .build()
            .expect("valid spec")
    }

    #[test]
    fn every_sorter_sorts_and_reports_costs() {
        let uniform = Workload::UniformRandom.generate(1200, 0x5027);
        for algorithm in Algorithm::ALL {
            let spec = spec_for(algorithm);
            for input in [&uniform[..], &[]] {
                let outcome = run(&spec, input).expect("run");
                assert_sorted_permutation(input, &outcome.output);
                assert_eq!(outcome.output_len, input.len());
                let lean = run_lean(&spec, input).expect("lean run");
                assert!(lean.output.is_empty(), "{algorithm}");
                assert_eq!(lean.output_len, input.len(), "{algorithm}");
                assert_eq!(
                    (lean.stats, lean.report, &lean.parallel),
                    (outcome.stats, outcome.report, &outcome.parallel),
                    "{algorithm}: a lean run pays the same transfers"
                );
                assert_eq!(
                    outcome.stats.block_writes > 0,
                    !input.is_empty(),
                    "{algorithm}"
                );
                assert_eq!(
                    outcome.io_cost(),
                    outcome.stats.block_reads + 8 * outcome.stats.block_writes
                );
                assert_eq!(
                    outcome.parallel.is_some(),
                    algorithm.is_parallel(),
                    "{algorithm}"
                );
                assert_eq!(outcome.base_stats(), outcome.stats, "knob off: no warm-up");
            }
        }
    }
}
