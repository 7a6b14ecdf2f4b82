//! The pluggable secondary-memory interface.
//!
//! [`BlockStore`] abstracts the block device underneath [`crate::EmMachine`]:
//! an unbounded set of fixed-size block slots addressed by [`BlockId`], with
//! alloc / overwrite / read / release and live-slot accounting. Two backends
//! implement it:
//!
//! * [`crate::MemStore`] — the zero-alloc slab arena (the default). Every
//!   transfer is a `memcpy`; this is what all modeled-cost experiments run on.
//! * [`crate::FileStore`] — a real temp file, one slot per fixed-size byte
//!   range, driven through positioned reads and writes. This backend
//!   actually performs I/O, so wall-clock time through it can be compared
//!   against the modeled `reads + ω·writes` charge.
//!
//! Every *charged* transfer is one block: one `read_into`, `write` or
//! `alloc` per modeled read or write, so a backend's per-call cost is the
//! per-block cost the model prices. Uncharged problem setup and output
//! collection go through [`BlockStore::stage`] and [`BlockStore::gather`],
//! which a backend may batch (the defaults are the per-block loops, and a
//! batched override must hand out the same ids).
//!
//! Modeled costs are **backend-independent by construction**: the machine
//! counts one read per `read_block_into` and ω per block write *before*
//! delegating to the store, so swapping backends can never change
//! `EmStats` — only how long the same transfer schedule takes on real
//! hardware. The backend-parity test suite pins this down for E3/E5/E6.
//!
//! ## Contract
//!
//! Beyond the per-method requirements below, backends must agree on **slot
//! reuse order**: released slots are recycled LIFO (most recently released
//! first), and fresh slots are carved in increasing index order. Algorithms
//! never inspect raw indices, but keeping the allocation schedule identical
//! across backends makes whole-run comparisons (same `BlockId` sequence, same
//! final layout) exact rather than merely equivalent. Both in-tree backends
//! inherit this by construction from the crate-private `SlotTable` they
//! embed — a new backend should embed it too rather than re-implementing
//! the free list.

use asym_model::{ModelError, Record, Result};

/// Handle to one block of secondary memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub(crate) usize);

impl BlockId {
    /// The raw slot index (stable for the life of the block).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A block device: fixed-size slots holding up to `B` records each.
///
/// Stores do no cost accounting — that is [`crate::EmMachine`]'s job. They
/// only hold blocks and recycle freed slots. All I/O-shaped methods take or
/// fill caller-owned buffers, so the in-memory backend's transfer path
/// performs no heap allocation.
pub trait BlockStore {
    /// The block size `B` this store was built with, in records.
    fn block_size(&self) -> usize;

    /// Copy `records` into a fresh slot, returning its id.
    ///
    /// Panics if `records.len() > B` (an overfull block is a caller bug, not
    /// a device condition) or if the backing device fails mid-run.
    fn alloc(&mut self, records: &[Record]) -> BlockId;

    /// Copy a block out of secondary memory into `out` (cleared first). The
    /// caller reuses `out` across reads, so the steady state allocates
    /// nothing.
    fn read_into(&mut self, id: BlockId, out: &mut Vec<Record>) -> Result<()>;

    /// Overwrite a block in place from `records`. Panics if overfull.
    fn write(&mut self, id: BlockId, records: &[Record]) -> Result<()>;

    /// Release a block's slot for reuse.
    fn release(&mut self, id: BlockId) -> Result<()>;

    /// Number of live (allocated, unreleased) blocks.
    fn live_blocks(&self) -> usize;

    /// Total slots ever carved out of the store (live + free).
    fn slots(&self) -> usize;

    /// Uncharged read for test oracles: like [`BlockStore::read_into`] but
    /// semantically "not a modeled transfer". Backends may implement it as a
    /// plain read.
    fn peek_into(&mut self, id: BlockId, out: &mut Vec<Record>) -> Result<()> {
        self.read_into(id, out)
    }

    /// Uncharged bulk staging: copy `records` into fresh slots, `B` at a
    /// time (the last block may be partial), returning the ids in order.
    /// The ids must be exactly those of one [`BlockStore::alloc`] per
    /// chunk; backends override this only to move the bytes in fewer,
    /// larger copies. The default is that per-block loop.
    fn stage(&mut self, records: &[Record]) -> Vec<BlockId> {
        let b = self.block_size();
        records.chunks(b).map(|chunk| self.alloc(chunk)).collect()
    }

    /// Uncharged bulk gather: append the live records of every block in
    /// `ids`, in order, to `out`. Like [`BlockStore::peek_into`] it is not
    /// a modeled transfer; the default is one `peek_into` per block.
    fn gather(&mut self, ids: &[BlockId], out: &mut Vec<Record>) -> Result<()> {
        let mut buf = Vec::with_capacity(self.block_size());
        for &id in ids {
            self.peek_into(id, &mut buf)?;
            out.extend_from_slice(&buf);
        }
        Ok(())
    }
}

/// Shared slot bookkeeping: live lengths, the LIFO free list, and the live
/// counter.
///
/// Both backends embed this one struct, so the "identical `BlockId`
/// schedule" guarantee of the [`BlockStore`] contract is true by
/// construction — there is exactly one implementation of slot acquisition
/// and reuse order to keep correct. Backends only supply the byte/record
/// storage for each slot.
#[derive(Debug, Default)]
pub(crate) struct SlotTable {
    /// Live record count per slot (`FREE` marks a released slot).
    lens: Vec<usize>,
    /// Released slot indices awaiting reuse (LIFO).
    free: Vec<usize>,
    /// Allocated, unreleased slot count (kept so `live` is O(1)).
    live: usize,
}

/// Length sentinel marking a released slot.
const FREE: usize = usize::MAX;

impl SlotTable {
    /// Claim a slot for a block of `len` records: the most recently released
    /// slot if any, else a fresh slot at the end. Returns the slot index.
    pub(crate) fn acquire(&mut self, len: usize) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.lens.push(FREE);
                self.lens.len() - 1
            }
        };
        self.lens[slot] = len;
        self.live += 1;
        slot
    }

    /// The live length of `id`'s slot, or `BadBlock` if released/unknown.
    pub(crate) fn live_len(&self, id: BlockId) -> Result<usize> {
        match self.lens.get(id.0) {
            Some(&len) if len != FREE => Ok(len),
            _ => Err(ModelError::BadBlock(id.0)),
        }
    }

    /// Record a new live length for an (already live) slot.
    pub(crate) fn set_len(&mut self, id: BlockId, len: usize) -> Result<()> {
        self.live_len(id)?;
        self.lens[id.0] = len;
        Ok(())
    }

    /// Release a live slot back onto the free list.
    pub(crate) fn release(&mut self, id: BlockId) -> Result<()> {
        self.live_len(id)?;
        self.lens[id.0] = FREE;
        self.free.push(id.0);
        self.live -= 1;
        Ok(())
    }

    /// Number of live (allocated, unreleased) slots.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever carved out (live + free).
    pub(crate) fn slots(&self) -> usize {
        self.lens.len()
    }
}

/// Which [`BlockStore`] implementation a machine should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The in-memory slab arena ([`crate::MemStore`]) — the default.
    #[default]
    Mem,
    /// A real temp file ([`crate::FileStore`]).
    File,
}

/// The environment variable naming a [`Backend`] (`mem` or `file`), honored
/// by the `asym-bench` harness and the examples. This crate only names the
/// variable; the single parsing point for its value is
/// `asym_core::sort::env_backend` (a typed error, never a silent fallback),
/// which every workspace consumer routes through.
pub const BACKEND_ENV: &str = "ASYM_BENCH_BACKEND";

impl Backend {
    /// Parse a backend name (`"mem"` or `"file"`).
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "mem" => Some(Backend::Mem),
            "file" => Some(Backend::File),
            _ => None,
        }
    }

    /// The backend's lowercase name (as accepted by [`Backend::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Mem => "mem",
            Backend::File => "file",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_table_reuses_lifo_and_tracks_live() {
        let mut t = SlotTable::default();
        assert_eq!(t.acquire(3), 0);
        assert_eq!(t.acquire(1), 1);
        assert_eq!(t.acquire(2), 2);
        assert_eq!((t.live(), t.slots()), (3, 3));
        t.release(BlockId(0)).unwrap();
        t.release(BlockId(2)).unwrap();
        assert_eq!(t.live(), 1);
        // LIFO: most recently released first; fresh slots only after the
        // free list drains.
        assert_eq!(t.acquire(4), 2);
        assert_eq!(t.acquire(4), 0);
        assert_eq!(t.acquire(4), 3);
        assert_eq!(t.live_len(BlockId(1)).unwrap(), 1);
        assert_eq!(t.live_len(BlockId(2)).unwrap(), 4);
        t.set_len(BlockId(1), 0).unwrap();
        assert_eq!(t.live_len(BlockId(1)).unwrap(), 0);
        assert!(t.live_len(BlockId(9)).is_err());
        assert!(t.set_len(BlockId(9), 1).is_err());
        assert!(t.release(BlockId(9)).is_err());
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in [Backend::Mem, Backend::File] {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(Backend::parse("nvme"), None);
        assert_eq!(Backend::default(), Backend::Mem);
    }
}
