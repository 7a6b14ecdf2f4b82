//! E13 (extension) — the parallel asymmetric sort end-to-end through the
//! unified job API: a `SortSpec` per (ω, lanes) cell, run by the registered
//! `par-aem-samplesort` sorter, with per-lane cost charging, span from the
//! `wd-sim` cost algebra, and a simulated work-stealing execution of the
//! phase DAG.
//!
//! The claim under test is *work preservation*: the merged write total
//! across lanes must equal the one-lane (serial-schedule) write total for
//! every lane count — write-efficiency survives parallelization — while
//! the span and the simulated execution time shrink. The table additionally
//! enables the spec's steal-charging knob, so the §2 cache warm-up charge
//! (`O(M/B)` per steal, `Qp ≤ Q1 + O(p·D·M/B)`) appears as its own column:
//! the *base* counts stay schedule-invariant, the warm-up is the measured
//! price of the stealing schedule on a private-cache machine. The lane
//! sweep honors `ASYM_BENCH_THREADS` (a cap, for the CI thread matrix) and
//! the machines honor `ASYM_BENCH_BACKEND` like every other AEM experiment
//! (both absorbed by `SortSpec::from_env`).

use crate::Scale;
use asym_core::sort::{self, Algorithm, SortOutcome, SortSpec};
use asym_model::table::{f2, Table};
use asym_model::workload::Workload;
use asym_model::Record;

/// Machine geometry shared with the E3/E5 sweeps.
const M: usize = 64;
const B: usize = 8;
const K: usize = 2;

/// The deterministic seed every E13 spec carries (sampling + scheduler).
const SEED: u64 = 0xE13;

/// The lane counts of the sweep, capped by `ASYM_BENCH_THREADS` if set.
pub fn lane_counts() -> Vec<usize> {
    let cap = crate::thread_cap_from_env().unwrap_or(usize::MAX);
    [1usize, 2, 4, 8]
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .collect()
}

/// The job description E13 runs in one cell (backend from
/// `ASYM_BENCH_BACKEND`; `steal_charge` toggles the §2 warm-up accounting).
pub fn spec(omega: u64, lanes: usize, steal_charge: bool) -> SortSpec {
    SortSpec::builder(Algorithm::ParSamplesort, M, B, omega)
        .k(K)
        .lanes(lanes)
        .seed(SEED)
        .steal_charge(steal_charge)
        .from_env()
        .unwrap_or_else(|e| panic!("{e}"))
        .build()
        .unwrap_or_else(|e| panic!("E13 spec: {e}"))
}

/// The deterministic E13 input at size `n` (generate once, outside any
/// timed region — the `par_sort` bench measures the sort, not the setup).
pub fn input_for(n: usize) -> Vec<Record> {
    Workload::UniformRandom.generate(n, SEED)
}

/// One measured run (shared with the `par_sort` bench target): dispatch the
/// spec through `sort::run` and sanity-check the outcome shape.
pub fn run_spec(spec: &SortSpec, input: &[Record]) -> SortOutcome {
    let outcome = sort::run(spec, input).expect("par sample sort");
    assert_eq!(outcome.output.len(), input.len());
    assert!(
        outcome.parallel.is_some(),
        "parallel runs carry lane detail"
    );
    outcome
}

/// Run E13.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = scale.pick(4_000usize, 40_000, 200_000);
    let lanes = lane_counts();
    let input = input_for(n);

    let mut t = Table::new(
        format!("E13: parallel AEM sample sort (M={M}, B={B}, k={K}, n={n})"),
        &[
            "omega",
            "lanes",
            "reads",
            "writes",
            "span",
            "work",
            "sim time",
            "speedup",
            "steals",
            "warmup I/O",
        ],
    );
    for omega in [1u64, 2, 8, 32] {
        let mut serial_writes = 0u64;
        let mut serial_time = 0u64;
        for &p in &lanes {
            let outcome = run_spec(&spec(omega, p, true), &input);
            let base = outcome.base_stats();
            let par = outcome.parallel.as_ref().expect("parallel detail");
            if p == 1 {
                serial_writes = base.block_writes;
                serial_time = par.sched.time;
            }
            // Work preservation: the parallel schedule must not write more
            // than the serial one — the tentpole invariant, asserted here so
            // the tables can't silently drift. The steal warm-up rides in
            // its own column, so the base counts stay schedule-invariant.
            assert_eq!(
                base.block_writes, serial_writes,
                "omega={omega}, lanes={p}: parallel schedule changed the write total"
            );
            let warmup_io = par.steal_warmup.block_reads + omega * par.steal_warmup.block_writes;
            t.row(&[
                omega.to_string(),
                p.to_string(),
                base.block_reads.to_string(),
                base.block_writes.to_string(),
                par.cost.depth.to_string(),
                par.cost.work(omega).to_string(),
                par.sched.time.to_string(),
                f2(serial_time as f64 / par.sched.time as f64),
                par.sched.steals.to_string(),
                warmup_io.to_string(),
            ]);
        }
    }
    t.note("writes are identical across lane counts = the schedule preserves write-efficiency");
    t.note("span = omega-weighted critical path from the wd-sim cost algebra (incl. warm-up)");
    t.note("sim time/steals = randomized work stealing over the measured phase DAG");
    t.note("warmup I/O = the §2 per-steal O(M/B) cache charge (Qp <= Q1 + O(p*D*M/B)),");
    t.note("folded into lane stats by the spec's steal_charge knob; reads/writes are the base");
    t.note("exchange is the paper's block-aligned owner-writes-once idealization (in-flight");
    t.note("records are uncharged host traffic; see par::aem_sample_sort model idealizations)");
    vec![t]
}
