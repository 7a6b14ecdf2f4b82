//! The sharded AEM machine: one [`EmMachine`] lane per simulated worker.
//!
//! The paper's parallel results (§4–§5) bound the *work* — total transfer
//! cost across all processors, writes still weighted ω — and the *span* of
//! the schedule. `ParMachine` makes the work side executable: it shards one
//! machine configuration into `p` independent lanes, each a full
//! [`EmMachine`] with its own [`BlockStore`](crate::BlockStore) and its own
//! [`EmStats`], so a parallel algorithm charges every modeled transfer to
//! the lane that performs it. [`ParMachine::merged_stats`] folds the lanes
//! with [`EmStats::merge`] into the work aggregate; span is not a fold over
//! stats and is tracked per phase by `wd_sim::Cost` in the algorithm layer.
//!
//! Lanes are plain sequential machines — the scheduler that interleaves
//! them is simulated (`wd_sim::sched`), so the whole structure stays
//! single-threaded and deterministic. Every lane runs on the same backend,
//! selected exactly like a single machine's ([`Backend::Mem`] slab arenas
//! or one temp file per lane with [`Backend::File`]).
//!
//! ```
//! use em_sim::{EmConfig, ParMachine};
//! use asym_model::Record;
//! let par = ParMachine::new(EmConfig::new(64, 8, 16), 4);
//! par.lane(0).append_block_from(&[Record::keyed(1)]); // ω on lane 0
//! par.lane(3).charge_reads(2);                        // 2 reads on lane 3
//! let merged = par.merged_stats();
//! assert_eq!((merged.block_reads, merged.block_writes), (2, 1));
//! assert_eq!(par.io_work(), 2 + 16);
//! ```

use crate::machine::{EmConfig, EmMachine, EmStats};
use crate::store::Backend;
use asym_model::Result;

/// A bank of per-worker [`EmMachine`] lanes sharing one configuration.
pub struct ParMachine {
    lanes: Vec<EmMachine>,
}

impl ParMachine {
    /// `lanes` independent machines with configuration `cfg` on the default
    /// in-memory backend.
    pub fn new(cfg: EmConfig, lanes: usize) -> Self {
        Self::with_backend(cfg, lanes, Backend::Mem).expect("in-memory lanes cannot fail")
    }

    /// `lanes` independent machines on the given [`Backend`]. The file
    /// backend creates one temp file per lane and can fail cleanly.
    pub fn with_backend(cfg: EmConfig, lanes: usize, backend: Backend) -> Result<Self> {
        assert!(lanes >= 1, "a machine needs at least one lane");
        let lanes = (0..lanes)
            .map(|_| EmMachine::with_backend(cfg, backend))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { lanes })
    }

    /// Assemble a bank from caller-built machines (custom stores, or lanes
    /// whose backing files live in a chosen directory). All lanes must share
    /// one configuration — the parallel algorithms assume a uniform geometry
    /// and read ω off lane 0.
    pub fn from_lanes(lanes: Vec<EmMachine>) -> Self {
        assert!(!lanes.is_empty(), "a machine needs at least one lane");
        let cfg = lanes[0].cfg();
        assert!(
            lanes.iter().all(|l| l.cfg() == cfg),
            "every lane must share one EmConfig"
        );
        Self { lanes }
    }

    /// Number of lanes (simulated workers).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Lane `i`'s machine. Panics on an out-of-range lane — worker indices
    /// are structural, not data-dependent.
    pub fn lane(&self, i: usize) -> &EmMachine {
        &self.lanes[i]
    }

    /// Iterate over the lanes in worker order.
    pub fn iter(&self) -> impl Iterator<Item = &EmMachine> {
        self.lanes.iter()
    }

    /// The shared configuration (every lane has the same geometry and ω).
    pub fn cfg(&self) -> EmConfig {
        self.lanes[0].cfg()
    }

    /// Write cost ω (shared by all lanes).
    pub fn omega(&self) -> u64 {
        self.lanes[0].omega()
    }

    /// Per-lane transfer statistics, in worker order.
    pub fn lane_stats(&self) -> Vec<EmStats> {
        self.lanes.iter().map(EmMachine::stats).collect()
    }

    /// The work aggregate across lanes (see [`EmStats::merge`]).
    pub fn merged_stats(&self) -> EmStats {
        EmStats::merge_all(self.lanes.iter().map(EmMachine::stats))
    }

    /// Total asymmetric I/O work across lanes: `reads + ω·writes`.
    pub fn io_work(&self) -> u64 {
        let s = self.merged_stats();
        s.block_reads + self.omega() * s.block_writes
    }

    /// Live blocks summed over every lane's store.
    pub fn live_blocks(&self) -> usize {
        self.lanes.iter().map(EmMachine::live_blocks).sum()
    }

    /// Reset every lane's counters (disk contents and leases are kept).
    pub fn reset_stats(&self) {
        for lane in &self.lanes {
            lane.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_model::Record;

    fn recs(keys: &[u64]) -> Vec<Record> {
        keys.iter().map(|&k| Record::keyed(k)).collect()
    }

    #[test]
    fn lanes_charge_independently_and_merge_as_work() {
        let par = ParMachine::new(EmConfig::new(16, 4, 8), 3);
        let id = par.lane(0).append_block_from(&recs(&[1, 2]));
        let mut buf = Vec::new();
        par.lane(0).read_block_into(id, &mut buf).unwrap();
        par.lane(2).charge_writes(3);
        let per = par.lane_stats();
        assert_eq!((per[0].block_reads, per[0].block_writes), (1, 1));
        assert_eq!((per[1].block_reads, per[1].block_writes), (0, 0));
        assert_eq!((per[2].block_reads, per[2].block_writes), (0, 3));
        let merged = par.merged_stats();
        assert_eq!((merged.block_reads, merged.block_writes), (1, 4));
        assert_eq!(par.io_work(), 1 + 8 * 4);
    }

    #[test]
    fn merge_sums_peaks_as_simultaneous_upper_bound() {
        let par = ParMachine::new(EmConfig::new(16, 4, 2), 2);
        let a = par.lane(0).lease(10).unwrap();
        let b = par.lane(1).lease(6).unwrap();
        drop((a, b));
        assert_eq!(par.merged_stats().peak_memory, 16);
    }

    #[test]
    fn lanes_have_separate_stores() {
        let par = ParMachine::new(EmConfig::new(16, 4, 2), 2);
        let id = par.lane(0).append_block_from(&recs(&[7]));
        assert_eq!(par.lane(0).live_blocks(), 1);
        assert_eq!(par.lane(1).live_blocks(), 0);
        assert_eq!(par.live_blocks(), 1);
        // The same BlockId is unknown on the other lane's store.
        let mut buf = Vec::new();
        assert!(par.lane(1).read_block_into(id, &mut buf).is_err());
    }

    #[test]
    fn file_backend_builds_one_store_per_lane() {
        let cfg = EmConfig::new(16, 4, 4);
        let par = ParMachine::with_backend(cfg, 2, Backend::File).expect("temp files");
        assert_eq!(par.lanes(), 2);
        for i in 0..2 {
            let id = par.lane(i).append_block_from(&recs(&[i as u64]));
            let mut buf = Vec::new();
            par.lane(i).read_block_into(id, &mut buf).unwrap();
            assert_eq!(buf, recs(&[i as u64]));
        }
        let merged = par.merged_stats();
        assert_eq!((merged.block_reads, merged.block_writes), (2, 2));
    }

    #[test]
    fn reset_clears_every_lane() {
        let par = ParMachine::new(EmConfig::new(16, 4, 2), 2);
        par.lane(0).charge_reads(5);
        par.lane(1).charge_writes(5);
        par.reset_stats();
        assert_eq!(par.merged_stats(), EmStats::default());
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = ParMachine::new(EmConfig::new(16, 4, 2), 0);
    }

    #[test]
    fn from_lanes_accepts_uniform_machines() {
        let cfg = EmConfig::new(16, 4, 4);
        let par = ParMachine::from_lanes(vec![EmMachine::new(cfg), EmMachine::new(cfg)]);
        assert_eq!(par.lanes(), 2);
        assert_eq!(par.cfg(), cfg);
    }

    #[test]
    #[should_panic(expected = "share one EmConfig")]
    fn from_lanes_rejects_mixed_geometry() {
        let _ = ParMachine::from_lanes(vec![
            EmMachine::new(EmConfig::new(16, 4, 4)),
            EmMachine::new(EmConfig::new(32, 4, 4)),
        ]);
    }
}
