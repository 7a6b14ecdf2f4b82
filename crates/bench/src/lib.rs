//! # asym-bench — the experiment harness
//!
//! One module per experiment (E0–E14); each reproduces one theorem, lemma,
//! or figure of the paper as a measured table. The `tables` bench target
//! (`cargo bench -p asym-bench --bench tables`, see README "Benchmarks")
//! runs them all and prints their tables.
//!
//! Scale is controlled by `ASYM_BENCH_SCALE`:
//! * `smoke` — seconds-fast sanity sizes;
//! * `standard` (default) — the reference sizes (the middle argument of
//!   each experiment's [`Scale::pick`]);
//! * `full` — larger sweeps for sharper asymptotics.
//!
//! Any other value panics, like the backend and thread selectors below.
//!
//! The storage backend of the AEM experiments (E3–E6) is controlled by
//! `ASYM_BENCH_BACKEND`:
//! * `mem` (default) — the zero-alloc slab arena;
//! * `file` — a real temp file, so the modeled transfer schedule is executed
//!   as actual `std::fs` I/O.
//!
//! Modeled `(reads, writes, peak_memory)` are identical across backends by
//! construction; the backend matrix in CI proves the tables don't silently
//! depend on the in-memory store.

use asym_core::sort::{Algorithm, SortSpec};
use asym_model::table::Table;
use asym_model::Record;
use em_sim::{Backend, EmConfig, EmMachine, EmStats};
use std::time::Instant;

pub mod json;

mod e0_ram_sort;
mod e10_matmul_em;
mod e11_matmul_co;
mod e12_scheduler;
pub mod e13_par_sort;
pub mod e14_kv;
mod e1_pram_sort;
mod e2_partition;
mod e3_mergesort;
mod e4_selection;
mod e5_samplesort;
mod e6_heapsort;
mod e7_policies;
mod e8_co_sort;
mod e9_fft;

/// Experiment sweep sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast sanity sizes (CI).
    Smoke,
    /// The reference sizes (the middle argument of [`Scale::pick`]).
    Standard,
    /// Larger sweeps for sharper asymptotics.
    Full,
}

impl Scale {
    /// Read `ASYM_BENCH_SCALE` (unset: standard). Panics on any value
    /// [`Scale::parse`] refuses, so a typo cannot silently run the standard
    /// sweep.
    pub fn from_env() -> Scale {
        let value = match std::env::var("ASYM_BENCH_SCALE") {
            Ok(v) => Some(v),
            Err(std::env::VarError::NotPresent) => None,
            Err(e) => panic!("ASYM_BENCH_SCALE: {e}"),
        };
        Scale::parse(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Interpret an `ASYM_BENCH_SCALE` value (`None`: unset, which means
    /// standard).
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("standard") => Ok(Scale::Standard),
            Some("smoke") => Ok(Scale::Smoke),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!(
                "ASYM_BENCH_SCALE={other:?} is not one of smoke, standard, full"
            )),
        }
    }

    /// Pick a value by scale.
    pub fn pick<T: Copy>(&self, smoke: T, standard: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Standard => standard,
            Scale::Full => full,
        }
    }

    /// The scale's lowercase name (as accepted by `ASYM_BENCH_SCALE`).
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Standard => "standard",
            Scale::Full => "full",
        }
    }
}

/// The storage backend selected by `ASYM_BENCH_BACKEND` (default: `mem`).
///
/// One of two env readers the whole harness uses (the other is
/// [`thread_cap_from_env`]); both route through the typed parsers in
/// `asym_core::sort` — the single place `ASYM_BENCH_*` values are
/// interpreted. Panics on an unrecognized value so a typo can't silently
/// fall back to the in-memory store in a backend-matrix CI run.
pub fn backend_from_env() -> Backend {
    asym_core::sort::env_backend()
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or_default()
}

/// The lane cap selected by `ASYM_BENCH_THREADS` (`None` = uncapped).
///
/// Panics on an unparsable value — like the backend selector, a typo must
/// not silently run the full sweep in a thread-matrix CI job.
pub fn thread_cap_from_env() -> Option<usize> {
    asym_core::sort::env_thread_cap().unwrap_or_else(|e| panic!("{e}"))
}

/// Build an [`EmMachine`] on the backend selected by `ASYM_BENCH_BACKEND`.
///
/// Every AEM experiment constructs its machines through this helper, so one
/// environment variable swaps the whole harness between the slab arena and
/// the file-backed block device. Panics if the file backend cannot create
/// its temp file — an experiment silently measuring the wrong backend would
/// be worse than a crash.
pub fn machine(cfg: EmConfig) -> EmMachine {
    EmMachine::with_backend(cfg, backend_from_env()).expect("create bench machine backend")
}

/// Build a sort-job description on the env-selected backend — the one
/// spec-construction path the sort experiments and bench targets share
/// (experiments with extra knobs, like E13's lanes and steal charging,
/// compose `SortSpec::builder` directly). Panics on an unparsable
/// `ASYM_BENCH_*` value or an invalid spec, like [`machine`] — a harness
/// typo must crash, not silently measure the wrong configuration.
pub fn sort_spec(
    algorithm: Algorithm,
    m: usize,
    b: usize,
    omega: u64,
    k: usize,
    seed: u64,
) -> SortSpec {
    SortSpec::builder(algorithm, m, b, omega)
        .k(k)
        .seed(seed)
        .from_env()
        .unwrap_or_else(|e| panic!("{e}"))
        .build()
        .unwrap_or_else(|e| panic!("{algorithm} bench spec: {e}"))
}

/// Time one bench row — the one timing loop every bench target shares.
///
/// Makes one untimed warm-up call of `run`, then `samples` timed calls,
/// prints min/median/max under `id`, and returns the median seconds with
/// the warm-up's modeled stats. A single run can land anywhere in a ±30%
/// band on a shared host; the median of several moves less. `run` returns
/// the row's modeled [`EmStats`] (`EmStats::default()` for rows that model
/// none), and every timed call must return exactly the warm-up's: modeled
/// counts are deterministic, so a call that moves them panics naming `id`.
pub fn time_row(id: &str, samples: usize, mut run: impl FnMut() -> EmStats) -> (f64, EmStats) {
    assert!(samples > 0, "{id}: a row needs at least one timed sample");
    let stats = run();
    let mut secs: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let moved = run();
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(moved, stats, "{id}: modeled stats moved");
            elapsed
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    let median = secs[samples / 2];
    println!(
        "{id:<40} min {:>9.4}s   median {:>9.4}s   max {:>9.4}s",
        secs[0],
        median,
        secs[samples - 1]
    );
    (median, stats)
}

/// Run `spec` through `sort::run`, assert record conservation, and
/// return the three numbers every sort table tabulates:
/// `(reads, writes, io_cost)`.
pub fn measure_sort(spec: &SortSpec, input: &[Record]) -> (u64, u64, u64) {
    let outcome = asym_core::sort::run(spec, input).expect("sort");
    assert_eq!(outcome.output.len(), input.len());
    (
        outcome.stats.block_reads,
        outcome.stats.block_writes,
        outcome.io_cost(),
    )
}

/// An experiment: an id, the paper claim it reproduces, and a runner.
pub struct Experiment {
    /// Identifier (E0..E14).
    pub id: &'static str,
    /// The theorem / lemma / figure being reproduced.
    pub claim: &'static str,
    /// Produce the result tables.
    pub run: fn(Scale) -> Vec<Table>,
}

/// Every experiment, in presentation order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "E0",
            claim: "§3 RAM: tree sort = O(n log n) reads, O(n) writes",
            run: e0_ram_sort::run,
        },
        Experiment {
            id: "E1",
            claim: "Theorem 3.2: PRAM sample sort, O(n) writes, O(ω log n) depth",
            run: e1_pram_sort::run,
        },
        Experiment {
            id: "E2",
            claim: "Lemma 3.1: m^(1/3) buckets, max bucket < m^(2/3) log m",
            run: e2_partition::run,
        },
        Experiment {
            id: "E3",
            claim: "Theorem 4.3 + Corollary 4.4 + Appendix A: AEM mergesort",
            run: e3_mergesort::run,
        },
        Experiment {
            id: "E4",
            claim: "Lemma 4.2: selection-sort base case exact bounds",
            run: e4_selection::run,
        },
        Experiment {
            id: "E5",
            claim: "Theorem 4.5: AEM sample sort",
            run: e5_samplesort::run,
        },
        Experiment {
            id: "E6",
            claim: "Theorems 4.7/4.10: buffer-tree priority queue + heapsort",
            run: e6_heapsort::run,
        },
        Experiment {
            id: "E7",
            claim: "Lemma 2.1: read-write LRU vs the ideal-cache bracket",
            run: e7_policies::run,
        },
        Experiment {
            id: "E8",
            claim: "Theorem 5.1 + Figure 1: cache-oblivious sort",
            run: e8_co_sort::run,
        },
        Experiment {
            id: "E9",
            claim: "§5.2: cache-oblivious FFT",
            run: e9_fft::run,
        },
        Experiment {
            id: "E10",
            claim: "Theorem 5.2: EM blocked matrix multiply",
            run: e10_matmul_em::run,
        },
        Experiment {
            id: "E11",
            claim: "Theorem 5.3: ω²-way cache-oblivious matrix multiply",
            run: e11_matmul_co::run,
        },
        Experiment {
            id: "E12",
            claim: "§2 scheduler bounds: steals = O(pD) under work stealing",
            run: e12_scheduler::run,
        },
        Experiment {
            id: "E13",
            claim: "§4–§5 parallel sort: lane-sharded AEM machine preserves write totals",
            run: e13_par_sort::run,
        },
        Experiment {
            id: "E14",
            claim: "E-KV: omega-aware LSM frontier, compactions as admitted sort jobs",
            run: e14_kv::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parsing_defaults_to_standard() {
        assert_eq!(Scale::Standard.pick(1, 2, 3), 2);
        assert_eq!(Scale::Smoke.pick(1, 2, 3), 1);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
        assert_eq!(Scale::parse(None), Ok(Scale::Standard));
        for scale in [Scale::Smoke, Scale::Standard, Scale::Full] {
            assert_eq!(Scale::parse(Some(scale.name())), Ok(scale));
        }
        for typo in ["smok", "Smoke", "", " full"] {
            let err = Scale::parse(Some(typo)).unwrap_err();
            assert!(err.contains("ASYM_BENCH_SCALE"), "{err}");
        }
    }

    /// A row that sleeps `plan[i]` ms on call `i` (call 0 is the warm-up)
    /// and models nothing; returns its median seconds and its call count.
    fn sleepy_row(samples: usize, plan: &[u64]) -> (f64, usize) {
        let mut calls = 0;
        let (secs, stats) = time_row("sleepy", samples, || {
            std::thread::sleep(std::time::Duration::from_millis(plan[calls]));
            calls += 1;
            EmStats::default()
        });
        assert_eq!(stats, EmStats::default());
        (secs, calls)
    }

    #[test]
    fn time_row_leaves_the_warm_up_untimed() {
        let (secs, calls) = sleepy_row(1, &[300, 0]);
        assert_eq!(calls, 2, "one warm-up plus one timed call");
        assert!(secs < 0.3, "the warm-up's 300 ms leaked into {secs}s");
    }

    #[test]
    fn time_row_returns_the_median_sample() {
        // Samples of ~200, ~0 and ~20 ms: the median is the 20 ms call,
        // where the mean (~73 ms), min or max would each be far off.
        let (secs, calls) = sleepy_row(3, &[0, 200, 0, 20]);
        assert_eq!(calls, 4);
        assert!((0.02..0.2).contains(&secs), "median {secs}s");
    }

    #[test]
    #[should_panic(expected = "drifting-row: modeled stats moved")]
    fn time_row_panics_naming_a_row_whose_stats_move() {
        let mut reads = 0;
        time_row("drifting-row", 3, || {
            reads += 1;
            EmStats {
                block_reads: reads,
                ..EmStats::default()
            }
        });
    }

    #[test]
    fn every_experiment_runs_at_smoke_scale() {
        for e in experiments() {
            let tables = (e.run)(Scale::Smoke);
            assert!(!tables.is_empty(), "{} produced no tables", e.id);
            for t in &tables {
                assert!(!t.is_empty(), "{} produced an empty table", e.id);
            }
        }
    }
}
