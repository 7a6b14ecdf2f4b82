//! `SortSpec::predict` vs. reality: the pre-run estimates the job server
//! admits on must actually dominate what the sorters then do.
//!
//! The peak-memory prediction is the admission-control currency of
//! `asym-serve`, so it is pinned as a **hard bound** here: for every
//! algorithm, across ω ∈ {1, 8, 32}, several `k` values, and three
//! workloads, `predict(n).peak_memory >= EmStats::peak_memory`. The
//! read/write envelopes are checked as upper bounds too — they are the same
//! theorem constants `tests/cost_bounds.rs` validates, re-expressed through
//! the spec API.

use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::workload::Workload;

const OMEGAS: [u64; 3] = [1, 8, 32];

fn spec_for(algorithm: Algorithm, m: usize, b: usize, omega: u64, k: usize) -> SortSpec {
    SortSpec::builder(algorithm, m, b, omega)
        .k(k)
        .lanes(if algorithm.is_parallel() { 4 } else { 1 })
        .seed(11)
        .build()
        .expect("valid spec")
}

#[test]
fn predicted_peak_memory_is_a_hard_bound_for_every_sorter_and_omega() {
    for algorithm in Algorithm::ALL {
        for omega in OMEGAS {
            for k in [1usize, 2, 4] {
                for (workload, n) in [
                    (Workload::UniformRandom, 2_000usize),
                    (Workload::NearlySorted, 700),
                    (Workload::FewDistinct, 300),
                ] {
                    let spec = spec_for(algorithm, 64, 8, omega, k);
                    let est = spec.predict(n);
                    let input = workload.generate(n, 23);
                    let outcome = sort::run(&spec, &input).expect("sort");
                    assert!(
                        est.peak_memory >= outcome.stats.peak_memory,
                        "{algorithm} omega={omega} k={k} {} n={n}: predicted peak {} < actual {}",
                        workload.name(),
                        est.peak_memory,
                        outcome.stats.peak_memory,
                    );
                    assert_eq!(est.omega, omega);
                }
            }
        }
    }
}

#[test]
fn predicted_transfer_envelopes_dominate_measured_counts() {
    for algorithm in Algorithm::ALL {
        for omega in OMEGAS {
            for k in [1usize, 2, 4] {
                let spec = spec_for(algorithm, 64, 8, omega, k);
                let n = 4_000;
                let est = spec.predict(n);
                let input = Workload::UniformRandom.generate(n, 5);
                let outcome = sort::run(&spec, &input).expect("sort");
                assert!(
                    est.reads >= outcome.stats.block_reads,
                    "{algorithm} omega={omega} k={k}: predicted reads {} < actual {}",
                    est.reads,
                    outcome.stats.block_reads,
                );
                assert!(
                    est.writes >= outcome.stats.block_writes,
                    "{algorithm} omega={omega} k={k}: predicted writes {} < actual {}",
                    est.writes,
                    outcome.stats.block_writes,
                );
                assert!(est.io_cost() >= outcome.io_cost());
            }
        }
    }
}

#[test]
fn prediction_is_deterministic_and_monotone_in_n() {
    for algorithm in Algorithm::ALL {
        let spec = spec_for(algorithm, 64, 8, 8, 2);
        let small = spec.predict(1_000);
        assert_eq!(small, spec.predict(1_000), "{algorithm}: must be pure");
        let big = spec.predict(100_000);
        assert!(
            big.io_cost() > small.io_cost(),
            "{algorithm}: more records must predict more I/O",
        );
        assert_eq!(
            small.peak_memory, big.peak_memory,
            "{algorithm}: peak is geometry-only"
        );
    }
}
