//! The AEM machine: a pluggable block store + primary-memory enforcement +
//! cost accounting.

use crate::disk::MemStore;
use crate::file::FileStore;
use crate::store::{Backend, BlockId, BlockStore};
use asym_model::{CostReport, ModelError, Record, Result};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Parameters of an AEM machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmConfig {
    /// Primary memory size, in records.
    pub m: usize,
    /// Block size, in records.
    pub b: usize,
    /// Cost of a block write relative to a block read.
    pub omega: u64,
    /// Extra primary-memory allowance above `m`, in records.
    ///
    /// The paper's algorithms state footprints like `M + 2B + 2αkM/B`
    /// (mergesort, Lemma 4.1) or `M + B + M/B` (sample sort, Theorem 4.5).
    /// Experiments set `slack` to the paper's allowance so the capacity check
    /// verifies the stated footprint, not just "some memory bound".
    pub slack: usize,
}

impl EmConfig {
    /// A machine with `m`-record memory, `b`-record blocks, write cost `omega`
    /// and no slack.
    pub fn new(m: usize, b: usize, omega: u64) -> Self {
        assert!(b >= 1, "B must be at least 1");
        assert!(m >= b, "M must hold at least one block");
        assert!(omega >= 1, "omega must be at least 1");
        Self {
            m,
            b,
            omega,
            slack: 0,
        }
    }

    /// Same machine with an explicit extra allowance.
    pub fn with_slack(mut self, slack: usize) -> Self {
        self.slack = slack;
        self
    }

    /// Total records the machine will allow in primary memory.
    pub fn capacity(&self) -> usize {
        self.m + self.slack
    }
}

/// Transfer statistics of one machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EmStats {
    /// Block reads (secondary → primary), unit cost each.
    pub block_reads: u64,
    /// Block writes (primary → secondary), cost ω each.
    pub block_writes: u64,
    /// Peak primary-memory lease, in records.
    pub peak_memory: usize,
}

impl EmStats {
    /// Render as a [`CostReport`] under the machine's ω.
    pub fn report(&self, omega: u64) -> CostReport {
        CostReport::new(self.block_reads, self.block_writes, omega)
    }

    /// Merge another lane's stats into a *work* aggregate: transfer counts
    /// add (total reads and writes across lanes — the quantity the paper's
    /// work bounds constrain), and `peak_memory` adds too, since each lane
    /// owns a separate primary memory and the aggregate is the machine-wide
    /// footprint if every lane peaked simultaneously (an upper bound).
    ///
    /// Span is *not* a fold over `EmStats` — the critical path depends on
    /// which transfers happen in sequence, which is what `wd_sim::Cost`
    /// tracks per phase.
    #[must_use]
    pub fn merge(self, other: EmStats) -> EmStats {
        EmStats {
            block_reads: self.block_reads + other.block_reads,
            block_writes: self.block_writes + other.block_writes,
            peak_memory: self.peak_memory + other.peak_memory,
        }
    }

    /// Merge many lanes' stats (see [`EmStats::merge`]).
    pub fn merge_all(stats: impl IntoIterator<Item = EmStats>) -> EmStats {
        stats.into_iter().fold(EmStats::default(), EmStats::merge)
    }
}

/// The Asymmetric External Memory machine.
///
/// Shared by handle (`clone` is cheap): the machine, the arrays living on its
/// secondary memory, and the algorithm all reference the same state.
/// Single-threaded by design — the AEM is a sequential model (the parallel
/// variant lives in `asym-core::par` on top of per-thread machines).
///
/// Secondary memory is a pluggable [`BlockStore`]: the zero-alloc in-memory
/// slab ([`MemStore`], the default) or a real temp file ([`FileStore`],
/// selected with [`EmMachine::with_backend`]). Cost accounting happens in
/// the machine *before* the store is touched, so modeled `EmStats` are
/// identical across backends by construction — the backend only changes how
/// long the same transfer schedule takes on real hardware.
///
/// Transfers move records between caller-owned buffers and the store, so the
/// modeled I/O path performs no heap allocation on the in-memory backend:
/// reads fill a reused buffer in place, writes copy out of a borrowed slice.
///
/// ```
/// use em_sim::{EmConfig, EmMachine};
/// use asym_model::Record;
/// let em = EmMachine::new(EmConfig::new(64, 8, 16)); // M=64, B=8, omega=16
/// let id = em.append_block_from(&[Record::keyed(1)]); // one block write
/// let mut buf = Vec::new();
/// em.read_block_into(id, &mut buf).unwrap();          // one block read
/// assert_eq!(em.io_cost(), 1 + 16);
/// ```
#[derive(Clone)]
pub struct EmMachine {
    inner: Rc<MachineInner>,
}

struct MachineInner {
    cfg: EmConfig,
    disk: RefCell<Box<dyn BlockStore>>,
    block_reads: Cell<u64>,
    block_writes: Cell<u64>,
    mem_used: Cell<usize>,
    mem_peak: Cell<usize>,
}

impl EmMachine {
    /// Build a machine from a configuration, on the default in-memory store.
    pub fn new(cfg: EmConfig) -> Self {
        Self::with_store(cfg, Box::new(MemStore::new(cfg.b)))
    }

    /// Build a machine on the given [`Backend`]. The file backend can fail
    /// (temp dir unwritable); the in-memory backend cannot.
    pub fn with_backend(cfg: EmConfig, backend: Backend) -> Result<Self> {
        let store: Box<dyn BlockStore> = match backend {
            Backend::Mem => Box::new(MemStore::new(cfg.b)),
            Backend::File => Box::new(FileStore::new(cfg.b)?),
        };
        Ok(Self::with_store(cfg, store))
    }

    /// Build a machine on a caller-supplied [`BlockStore`]: a file store in
    /// a chosen directory, a fault-injection wrapper around a real store,
    /// or an out-of-tree backend. Every constructor ends here.
    pub fn with_store(cfg: EmConfig, store: Box<dyn BlockStore>) -> Self {
        assert_eq!(
            store.block_size(),
            cfg.b,
            "store block size must match the machine's B"
        );
        Self {
            inner: Rc::new(MachineInner {
                cfg,
                disk: RefCell::new(store),
                block_reads: Cell::new(0),
                block_writes: Cell::new(0),
                mem_used: Cell::new(0),
                mem_peak: Cell::new(0),
            }),
        }
    }

    /// This machine's configuration.
    pub fn cfg(&self) -> EmConfig {
        self.inner.cfg
    }

    /// Block size `B` in records.
    pub fn b(&self) -> usize {
        self.inner.cfg.b
    }

    /// Primary memory size `M` in records.
    pub fn m(&self) -> usize {
        self.inner.cfg.m
    }

    /// Write cost ω.
    pub fn omega(&self) -> u64 {
        self.inner.cfg.omega
    }

    // ---- transfers -------------------------------------------------------

    /// Transfer a block from secondary to primary memory (cost 1), filling
    /// `buf` in place (cleared first). Callers keep one buffer per cursor, so
    /// the steady-state read path performs zero heap allocations.
    ///
    /// The caller must already hold a lease covering the destination buffer;
    /// the machine does not tie leases to specific blocks (the model's primary
    /// memory is a scratchpad), it only enforces the total.
    pub fn read_block_into(&self, id: BlockId, buf: &mut Vec<Record>) -> Result<()> {
        self.inner.block_reads.set(self.inner.block_reads.get() + 1);
        self.inner.disk.borrow_mut().read_into(id, buf)
    }

    /// Transfer a block from primary to secondary memory, overwriting `id`
    /// (cost ω — counted as one block write). The source buffer is borrowed,
    /// not consumed — the caller clears and refills it.
    pub fn write_block_from(&self, id: BlockId, records: &[Record]) -> Result<()> {
        self.inner
            .block_writes
            .set(self.inner.block_writes.get() + 1);
        self.inner.disk.borrow_mut().write(id, records)
    }

    /// Allocate a fresh block on disk and copy `records` into it (cost ω).
    pub fn append_block_from(&self, records: &[Record]) -> BlockId {
        self.inner
            .block_writes
            .set(self.inner.block_writes.get() + 1);
        self.inner.disk.borrow_mut().alloc(records)
    }

    /// Release a disk block (free; deallocation moves no data).
    pub fn release_block(&self, id: BlockId) -> Result<()> {
        self.inner.disk.borrow_mut().release(id)
    }

    /// Uncharged copy of a block's records (test oracles only). Allocates a
    /// fresh vector per call — fine for oracles; modeled transfers go through
    /// [`EmMachine::read_block_into`]. Returns `None` for released or unknown
    /// blocks; a real device failure on the file backend panics rather than
    /// masquerading as a freed block.
    pub fn peek_block(&self, id: BlockId) -> Option<Vec<Record>> {
        let mut out = Vec::new();
        match self.peek_block_into(id, &mut out) {
            Ok(()) => Some(out),
            Err(ModelError::BadBlock(_)) => None,
            Err(e) => panic!("peek_block({}): {e}", id.index()),
        }
    }

    /// Uncharged read of a block into a caller-reused buffer (test
    /// oracles; whole arrays go through `EmVec::read_all_uncharged`).
    pub fn peek_block_into(&self, id: BlockId, buf: &mut Vec<Record>) -> Result<()> {
        self.inner.disk.borrow_mut().peek_into(id, buf)
    }

    /// Charge `n` block reads for transfers that are modeled but not
    /// materialized as disk blocks (e.g. a buffer-tree node's routing table,
    /// which lives in host structures but occupies ⌈c/B⌉ blocks in the model).
    pub fn charge_reads(&self, n: u64) {
        self.inner.block_reads.set(self.inner.block_reads.get() + n);
    }

    /// Charge `n` block writes for modeled-but-not-materialized transfers.
    pub fn charge_writes(&self, n: u64) {
        self.inner
            .block_writes
            .set(self.inner.block_writes.get() + n);
    }

    /// Number of live blocks on disk.
    pub fn live_blocks(&self) -> usize {
        self.inner.disk.borrow().live_blocks()
    }

    // ---- primary-memory accounting ----------------------------------------

    /// Lease `records` of primary memory for the lifetime of the returned
    /// guard. Fails if the lease would exceed `M + slack`.
    pub fn lease(&self, records: usize) -> Result<MemLease> {
        let used = self.inner.mem_used.get();
        let cap = self.inner.cfg.capacity();
        if used + records > cap {
            return Err(ModelError::MemoryExceeded {
                used,
                requested: records,
                capacity: cap,
            });
        }
        self.inner.mem_used.set(used + records);
        self.inner
            .mem_peak
            .set(self.inner.mem_peak.get().max(used + records));
        Ok(MemLease {
            machine: self.clone(),
            records,
        })
    }

    /// Records currently leased.
    pub fn mem_used(&self) -> usize {
        self.inner.mem_used.get()
    }

    // ---- statistics --------------------------------------------------------

    /// Current transfer statistics.
    pub fn stats(&self) -> EmStats {
        EmStats {
            block_reads: self.inner.block_reads.get(),
            block_writes: self.inner.block_writes.get(),
            peak_memory: self.inner.mem_peak.get(),
        }
    }

    /// Cost report under this machine's ω.
    pub fn report(&self) -> CostReport {
        self.stats().report(self.omega())
    }

    /// Reset transfer counters and the peak-memory tracker (disk contents and
    /// current leases are kept).
    pub fn reset_stats(&self) {
        self.inner.block_reads.set(0);
        self.inner.block_writes.set(0);
        self.inner.mem_peak.set(self.inner.mem_used.get());
    }

    /// Convenience: total asymmetric I/O cost so far.
    pub fn io_cost(&self) -> u64 {
        let s = self.stats();
        s.block_reads + self.omega() * s.block_writes
    }

    /// Stage a whole record slice as a block-aligned disk array, uncharged.
    /// Returns the block ids in order. Used to set up problem inputs. The
    /// store takes the whole input in one call ([`BlockStore::stage`],
    /// which the file backend batches); the ids are those of one `alloc`
    /// per chunk.
    pub fn stage_input(&self, records: &[Record]) -> Vec<BlockId> {
        self.inner.disk.borrow_mut().stage(records)
    }

    /// Uncharged bulk copy of the live records of `ids`, in order, appended
    /// to `out` ([`BlockStore::gather`]): the output collection of
    /// `EmVec::read_all_uncharged`.
    pub(crate) fn gather_uncharged(&self, ids: &[BlockId], out: &mut Vec<Record>) -> Result<()> {
        self.inner.disk.borrow_mut().gather(ids, out)
    }
}

/// RAII lease of primary-memory capacity (see [`EmMachine::lease`]).
pub struct MemLease {
    machine: EmMachine,
    records: usize,
}

impl MemLease {
    /// The number of records this lease covers.
    pub fn records(&self) -> usize {
        self.records
    }
}

impl Drop for MemLease {
    fn drop(&mut self) {
        let used = self.machine.inner.mem_used.get();
        debug_assert!(used >= self.records, "lease accounting underflow");
        self.machine.inner.mem_used.set(used - self.records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(m: usize, b: usize, omega: u64) -> EmMachine {
        EmMachine::new(EmConfig::new(m, b, omega))
    }

    fn recs(keys: &[u64]) -> Vec<Record> {
        keys.iter().map(|&k| Record::keyed(k)).collect()
    }

    #[test]
    fn transfers_are_charged_asymmetrically() {
        let em = machine(16, 4, 8);
        let id = em.append_block_from(&recs(&[1, 2]));
        let mut buf = Vec::new();
        em.read_block_into(id, &mut buf).unwrap();
        assert_eq!(buf, recs(&[1, 2]));
        em.write_block_from(id, &recs(&[3])).unwrap();
        let s = em.stats();
        assert_eq!(s.block_reads, 1);
        assert_eq!(s.block_writes, 2); // append + write
        assert_eq!(em.io_cost(), 1 + 8 * 2);
        assert_eq!(em.report().total(), 17);
    }

    #[test]
    fn staging_input_is_uncharged() {
        let em = machine(16, 4, 8);
        let ids = em.stage_input(&recs(&[1, 2, 3, 4, 5]));
        assert_eq!(ids.len(), 2); // 4 + 1 records
        assert_eq!(em.stats().block_reads, 0);
        assert_eq!(em.stats().block_writes, 0);
        assert_eq!(&*em.peek_block(ids[1]).unwrap(), recs(&[5]).as_slice());
    }

    #[test]
    fn lease_enforces_capacity() {
        let em = machine(10, 2, 4);
        let a = em.lease(6).unwrap();
        let b = em.lease(4).unwrap();
        assert_eq!(em.mem_used(), 10);
        assert!(em.lease(1).is_err());
        drop(a);
        assert_eq!(em.mem_used(), 4);
        let c = em.lease(5).unwrap();
        assert_eq!(c.records() + b.records(), 9);
        assert_eq!(em.stats().peak_memory, 10);
    }

    #[test]
    fn slack_extends_capacity() {
        let em = EmMachine::new(EmConfig::new(8, 2, 2).with_slack(4));
        assert_eq!(em.cfg().capacity(), 12);
        let _l = em.lease(12).unwrap();
        assert!(em.lease(1).is_err());
    }

    #[test]
    fn reset_stats_keeps_disk_and_leases() {
        let em = machine(8, 2, 2);
        let _l = em.lease(3).unwrap();
        let id = em.append_block_from(&recs(&[1]));
        em.reset_stats();
        let s = em.stats();
        assert_eq!((s.block_reads, s.block_writes), (0, 0));
        assert_eq!(s.peak_memory, 3);
        assert_eq!(em.mem_used(), 3);
        let mut buf = Vec::new();
        assert!(em.read_block_into(id, &mut buf).is_ok());
    }

    #[test]
    fn release_frees_disk_blocks() {
        let em = machine(8, 2, 2);
        let id = em.append_block_from(&recs(&[1]));
        assert_eq!(em.live_blocks(), 1);
        em.release_block(id).unwrap();
        assert_eq!(em.live_blocks(), 0);
        let mut buf = Vec::new();
        assert!(em.read_block_into(id, &mut buf).is_err());
    }

    #[test]
    fn cost_model_matches_omega() {
        let cfg = EmConfig::new(8, 2, 16);
        assert_eq!(cfg.omega, 16);
        assert_eq!(cfg.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "M must hold")]
    fn m_smaller_than_b_rejected() {
        let _ = EmConfig::new(2, 4, 2);
    }

    #[test]
    fn file_backend_charges_identically_to_mem() {
        let cfg = EmConfig::new(16, 4, 8);
        let mem = EmMachine::new(cfg);
        let file = EmMachine::with_backend(cfg, Backend::File).expect("temp file");
        for em in [&mem, &file] {
            let id = em.append_block_from(&recs(&[1, 2]));
            let mut buf = Vec::new();
            em.read_block_into(id, &mut buf).unwrap();
            assert_eq!(buf, recs(&[1, 2]));
            em.write_block_from(id, &recs(&[3])).unwrap();
            assert_eq!(em.peek_block(id).unwrap(), recs(&[3]));
            em.release_block(id).unwrap();
            assert!(em.peek_block(id).is_none());
        }
        assert_eq!(
            mem.stats(),
            file.stats(),
            "modeled costs must not depend on backend"
        );
        assert_eq!(mem.io_cost(), 1 + 8 * 2);
    }
}
