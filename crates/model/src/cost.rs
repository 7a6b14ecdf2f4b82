//! The asymmetric cost model and cost reports.
//!
//! All of the paper's machine models share one parameter: an integer `omega`
//! (written ω) such that a write costs ω and a read costs 1. [`CostModel`]
//! carries that parameter; [`CostReport`] is the standard summary every
//! simulator produces so experiments can tabulate and compare runs.

use crate::counters::MemCounter;

/// The read/write asymmetry parameter of every model in the paper.
///
/// ```
/// use asym_model::CostModel;
/// let pcm = CostModel::new(26); // projected PCM write/read latency ratio
/// assert_eq!(pcm.cost(100, 10), 100 + 26 * 10);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of one write relative to one read (`omega > 1` in the paper;
    /// `omega = 1` gives back the classic symmetric model and is allowed here
    /// so baselines can be run in the same harness).
    pub omega: u64,
}

impl CostModel {
    /// A model charging `omega` per write.
    pub fn new(omega: u64) -> Self {
        assert!(omega >= 1, "omega must be at least 1");
        Self { omega }
    }

    /// The classic symmetric model (writes cost the same as reads).
    pub fn symmetric() -> Self {
        Self { omega: 1 }
    }

    /// Asymmetric cost of a tally: `reads + omega * writes`.
    #[inline]
    pub fn cost(&self, reads: u64, writes: u64) -> u64 {
        reads + self.omega * writes
    }

    /// Asymmetric cost of everything recorded on `counter`.
    pub fn cost_of(&self, counter: &MemCounter) -> u64 {
        self.cost(counter.reads(), counter.writes())
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::symmetric()
    }
}

/// Summary of one measured execution: raw tallies plus the ω-weighted total.
///
/// Simulators with richer accounting (block transfers, cache misses, depth)
/// embed a `CostReport` for the common part and extend it with their own
/// fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Unit-cost operations (element reads or block reads, per model).
    pub reads: u64,
    /// ω-cost operations (element writes or block writes, per model).
    pub writes: u64,
    /// The ω used to weight `total`.
    pub omega: u64,
}

impl CostReport {
    /// Build a report from explicit tallies.
    pub fn new(reads: u64, writes: u64, omega: u64) -> Self {
        Self {
            reads,
            writes,
            omega,
        }
    }

    /// The ω-weighted total cost `reads + omega * writes`.
    pub fn total(&self) -> u64 {
        self.reads + self.omega * self.writes
    }

    /// Element-wise sum of two reports (their ω must agree).
    pub fn merged(&self, other: &CostReport) -> CostReport {
        assert_eq!(self.omega, other.omega, "cannot merge across omegas");
        CostReport {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            omega: self.omega,
        }
    }
}

impl std::fmt::Display for CostReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} writes={} omega={} total={}",
            self.reads,
            self.writes,
            self.omega,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_weighs_writes_by_omega() {
        let m = CostModel::new(8);
        assert_eq!(m.cost(10, 3), 10 + 24);
        let c = MemCounter::new();
        c.add_reads(5);
        c.add_writes(2);
        assert_eq!(m.cost_of(&c), 5 + 16);
    }

    #[test]
    fn symmetric_model_is_unit_weight() {
        let m = CostModel::symmetric();
        assert_eq!(m.omega, 1);
        assert_eq!(m.cost(7, 7), 14);
        assert_eq!(CostModel::default(), CostModel::symmetric());
    }

    #[test]
    #[should_panic(expected = "omega")]
    fn zero_omega_rejected() {
        let _ = CostModel::new(0);
    }

    #[test]
    fn report_totals_and_ratio() {
        let r = CostReport::new(100, 10, 4);
        assert_eq!(r.total(), 140);
    }

    #[test]
    fn report_merge_sums_fields() {
        let a = CostReport::new(1, 2, 3);
        let b = CostReport::new(10, 20, 3);
        let m = a.merged(&b);
        assert_eq!((m.reads, m.writes, m.omega), (11, 22, 3));
    }

    #[test]
    #[should_panic(expected = "omegas")]
    fn report_merge_requires_same_omega() {
        let _ = CostReport::new(0, 0, 2).merged(&CostReport::new(0, 0, 3));
    }

    #[test]
    fn report_display_contains_fields() {
        let s = CostReport::new(3, 4, 5).to_string();
        assert!(s.contains("reads=3"));
        assert!(s.contains("writes=4"));
        assert!(s.contains("total=23"));
    }
}
