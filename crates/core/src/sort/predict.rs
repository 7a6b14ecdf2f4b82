//! Pre-run cost prediction: the paper's read/write/memory bounds as a
//! scheduling API.
//!
//! The cost model's defining feature is that a sort's resource needs are
//! known *before* it runs: the theorems bound block reads, block writes,
//! and the primary-memory footprint purely in terms of the job description
//! `(algorithm, n, M, B, k, lanes)`. [`SortSpec::predict`] evaluates those
//! bounds into a [`CostEstimate`], which is exactly what a multi-tenant
//! scheduler needs for admission control — `asym-serve` bounds total
//! in-flight [`CostEstimate::peak_memory`] against its budget and rejects
//! over-budget submissions without ever starting them.
//!
//! Two different strengths of guarantee are on offer:
//!
//! * `peak_memory` is a **hard bound**: every machine lease is checked
//!   against `M + slack` (per lane), so the measured
//!   [`EmStats::peak_memory`](em_sim::EmStats) can never exceed the
//!   prediction. `tests/predict_bounds.rs` pins this across every
//!   registered sorter and ω ∈ {1, 8, 32}.
//! * `reads` / `writes` are **envelope bounds** from the theorem statements
//!   (Theorem 4.3 for the mergesort, Theorem 4.5 for the sample sorts,
//!   Theorem 4.10 for the heapsort) with the same constants the
//!   `tests/cost_bounds.rs` suite verifies empirically — safe for capacity
//!   planning, deliberately not tight.

use super::spec::{Algorithm, SortSpec};
use asym_model::stats::ceil_log_base;

/// Predicted resource bounds for one sort job over `n` records (see
/// [`SortSpec::predict`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostEstimate {
    /// Upper bound on modeled block reads.
    pub reads: u64,
    /// Upper bound on modeled block writes (unweighted).
    pub writes: u64,
    /// Hard bound on the peak primary-memory lease, in records, summed
    /// across lanes (each lane's leases are capped at `M + slack`).
    pub peak_memory: usize,
    /// The spec's write cost ω, for weighting.
    pub omega: u64,
}

impl CostEstimate {
    /// Upper bound on the asymmetric I/O cost `reads + ω·writes`.
    pub fn io_cost(&self) -> u64 {
        self.reads + self.omega * self.writes
    }

    /// The peak-memory bound in bytes (records are 16 bytes: key + payload).
    pub fn peak_bytes(&self) -> u64 {
        self.peak_memory as u64 * std::mem::size_of::<asym_model::Record>() as u64
    }
}

impl SortSpec {
    /// Evaluate the paper's cost bounds for this job over `n` records,
    /// before running anything.
    ///
    /// ```
    /// use asym_core::sort::{Algorithm, SortSpec};
    /// let spec = SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
    ///     .k(4)
    ///     .build()
    ///     .unwrap();
    /// let est = spec.predict(100_000);
    /// assert!(est.peak_memory >= 64); // at least one full memory
    /// assert!(est.writes < est.reads); // k > 1 trades reads for writes
    /// ```
    ///
    /// A spec with [`runs`](SortSpec::runs) is priced as the merge of
    /// those runs ([`super::merge`]): exact writes and peak memory, and a
    /// read bound. Its runs name the records, so `n` is their total.
    pub fn predict(&self, n: usize) -> CostEstimate {
        if let Some(runs) = self.runs() {
            return super::merge::predict(self, runs);
        }
        let (m, b, k) = (self.m(), self.b(), self.k());
        let blocks = n.div_ceil(b).max(1) as u64;
        // Merge/distribution levels at the serial fan-in kM/B
        // (ceil_log_base clamps to >= 1).
        let levels = ceil_log_base((k * m) as f64 / b as f64, blocks as f64);
        let (reads, writes) = match self.algorithm() {
            // Theorem 4.3: (n/B)·log_{kM/B}(n/B) writes, k+1 reads per
            // written block.
            Algorithm::Mergesort => ((k as u64 + 1) * blocks * levels, blocks * levels),
            // Theorem 4.5 envelope (constants per tests/cost_bounds.rs):
            // each level re-reads up to k+4 times over a 4x block envelope.
            Algorithm::Samplesort => ((k as u64 + 4) * 4 * blocks * levels, 4 * blocks * levels),
            // Theorem 4.10 amortized per-operation costs over 2n operations
            // (n inserts + n delete-mins), buffer-tree constants included.
            Algorithm::Heapsort => {
                let ops = 2.0 * n.max(1) as f64;
                let tree_levels = 1.0 + (n.max(2) as f64).ln() / ((k * m) as f64 / b as f64).ln();
                let reads = (12.0 * (k as f64 / b as f64) * tree_levels * ops).ceil() as u64;
                let writes = (12.0 * (1.0 / b as f64) * tree_levels * ops).ceil() as u64;
                (reads, writes)
            }
            // The parallel sample sort buckets at fan-in M/B regardless of k
            // (k only reaches the per-bucket serial mergesort), so its level
            // count uses the smaller base; the work bound is the serial
            // sample sort's envelope plus per-lane splitter/scan overhead
            // and, when charged, the §2 steal warm-up (O(M/B) per steal,
            // steals bounded by the per-phase lane count).
            Algorithm::ParSamplesort => {
                let par_levels = ceil_log_base(m as f64 / b as f64, blocks as f64);
                let lanes = self.lanes() as u64;
                let per_lane = lanes * par_levels * (m / b).max(1) as u64;
                let reads = (k as u64 + 4) * 4 * blocks * par_levels + 4 * per_lane;
                let writes = 4 * blocks * par_levels + per_lane;
                (reads, writes)
            }
        };
        CostEstimate {
            reads,
            writes,
            // Hard bound: each lane's leases are capped at M + slack.
            peak_memory: (m + self.slack()) * self.lanes(),
            omega: self.omega(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(algorithm: Algorithm, k: usize) -> SortSpec {
        SortSpec::builder(algorithm, 32, 4, 8)
            .k(k)
            .lanes(if algorithm.is_parallel() { 4 } else { 1 })
            .build()
            .expect("valid spec")
    }

    #[test]
    fn estimate_totals_weigh_writes_by_omega() {
        let est = spec(Algorithm::Mergesort, 2).predict(10_000);
        assert_eq!(est.io_cost(), est.reads + 8 * est.writes);
        assert_eq!(est.peak_bytes(), est.peak_memory as u64 * 16);
        assert!(est.reads > 0 && est.writes > 0);
    }

    #[test]
    fn peak_memory_scales_with_lanes_and_slack() {
        let serial = spec(Algorithm::Samplesort, 2);
        assert_eq!(serial.predict(1000).peak_memory, 32 + serial.slack());
        let par = spec(Algorithm::ParSamplesort, 2);
        assert_eq!(par.predict(1000).peak_memory, (32 + par.slack()) * 4);
    }

    #[test]
    fn raising_k_lowers_the_predicted_write_bound() {
        let w1 = spec(Algorithm::Mergesort, 1).predict(100_000).writes;
        let w4 = spec(Algorithm::Mergesort, 4).predict(100_000).writes;
        assert!(w4 <= w1, "k=4 writes {w4} must not exceed k=1 writes {w1}");
    }

    #[test]
    fn degenerate_sizes_stay_finite() {
        for algorithm in Algorithm::ALL {
            for n in [0usize, 1, 2] {
                let est = spec(algorithm, 1).predict(n);
                assert!(est.reads > 0, "{algorithm} n={n}");
                assert!(est.peak_memory >= 32, "{algorithm} n={n}");
            }
        }
    }
}
