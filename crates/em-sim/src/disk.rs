//! The in-memory backend: an unbounded store of fixed-size blocks, backed by
//! one contiguous slab arena.
//!
//! Slot `i` owns the record range `data[i*B .. (i+1)*B]`; a parallel `lens`
//! array records how many of those cells are live (the last block of an
//! array may be partial). Released slots go on a free list and are reused by
//! the next allocation, so a long-running simulation settles into a fixed
//! arena with **zero per-block heap allocations**: every transfer is a
//! `memcpy` into or out of the slab. The uncharged gather copies straight
//! out of the slab. Staging keeps the per-block default: reserving the
//! whole slab up front measured slower, as the gather after it then
//! page-faulted its entire output on every run.

use crate::store::{BlockId, BlockStore, SlotTable};
use asym_model::{Record, Result};

/// Unbounded in-memory secondary memory, block-granular (the default
/// [`BlockStore`] backend).
///
/// `MemStore` does no cost accounting — that is [`crate::EmMachine`]'s job.
/// It only stores blocks and recycles freed slots (through the `SlotTable`
/// shared with every backend, so the slot schedule is identical across
/// backends by construction). All I/O-shaped methods take or fill
/// caller-owned buffers; nothing on the transfer path allocates.
#[derive(Debug, Default)]
pub struct MemStore {
    /// The slab arena: slot `i` owns `data[i*B .. (i+1)*B]`.
    data: Vec<Record>,
    /// Slot bookkeeping (lengths, free list, live count).
    slots: SlotTable,
    block_size: usize,
}

impl MemStore {
    /// An empty store with the given block size `B` (in records).
    pub fn new(block_size: usize) -> Self {
        assert!(block_size >= 1, "block size must be positive");
        Self {
            data: Vec::new(),
            slots: SlotTable::default(),
            block_size,
        }
    }

    /// Borrow a block's live records — the slab window `read_into` copies
    /// from.
    fn slice(&self, id: BlockId) -> Result<&[Record]> {
        let len = self.slots.live_len(id)?;
        let start = id.index() * self.block_size;
        Ok(&self.data[start..start + len])
    }
}

impl BlockStore for MemStore {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn alloc(&mut self, records: &[Record]) -> BlockId {
        assert!(
            records.len() <= self.block_size,
            "block of {} records exceeds B={}",
            records.len(),
            self.block_size
        );
        let slot = self.slots.acquire(records.len());
        let end = (slot + 1) * self.block_size;
        if self.data.len() < end {
            self.data.resize(end, Record::default());
        }
        let start = slot * self.block_size;
        self.data[start..start + records.len()].copy_from_slice(records);
        BlockId(slot)
    }

    /// Copies straight out of the slab, with no per-block buffer.
    fn gather(&mut self, ids: &[BlockId], out: &mut Vec<Record>) -> Result<()> {
        for &id in ids {
            out.extend_from_slice(self.slice(id)?);
        }
        Ok(())
    }

    fn read_into(&mut self, id: BlockId, out: &mut Vec<Record>) -> Result<()> {
        let src = self.slice(id)?;
        out.clear();
        out.extend_from_slice(src);
        Ok(())
    }

    fn write(&mut self, id: BlockId, records: &[Record]) -> Result<()> {
        assert!(
            records.len() <= self.block_size,
            "block of {} records exceeds B={}",
            records.len(),
            self.block_size
        );
        self.slots.set_len(id, records.len())?;
        let start = id.index() * self.block_size;
        self.data[start..start + records.len()].copy_from_slice(records);
        Ok(())
    }

    fn release(&mut self, id: BlockId) -> Result<()> {
        self.slots.release(id)
    }

    fn live_blocks(&self) -> usize {
        self.slots.live()
    }

    fn slots(&self) -> usize {
        self.slots.slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: u64) -> Record {
        Record::keyed(k)
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut d = MemStore::new(4);
        let id = d.alloc(&[rec(1), rec(2)]);
        assert_eq!(d.slice(id).unwrap(), &[rec(1), rec(2)]);
        let mut buf = Vec::new();
        d.read_into(id, &mut buf).unwrap();
        assert_eq!(buf, vec![rec(1), rec(2)]);
        d.write(id, &[rec(9)]).unwrap();
        d.read_into(id, &mut buf).unwrap();
        assert_eq!(buf, vec![rec(9)]);
        assert_eq!(d.block_size(), 4);
    }

    #[test]
    fn read_into_reuses_capacity() {
        let mut d = MemStore::new(4);
        let a = d.alloc(&[rec(1), rec(2), rec(3), rec(4)]);
        let b = d.alloc(&[rec(5)]);
        let mut buf = Vec::with_capacity(4);
        let ptr = buf.as_ptr();
        d.read_into(a, &mut buf).unwrap();
        d.read_into(b, &mut buf).unwrap();
        assert_eq!(buf, vec![rec(5)]);
        assert_eq!(ptr, buf.as_ptr(), "buffer must be reused, not reallocated");
    }

    #[test]
    fn release_recycles_slots() {
        let mut d = MemStore::new(2);
        let a = d.alloc(&[rec(1)]);
        let b = d.alloc(&[rec(2)]);
        assert_eq!(d.live_blocks(), 2);
        d.release(a).unwrap();
        assert_eq!(d.live_blocks(), 1);
        let c = d.alloc(&[rec(3)]);
        assert_eq!(c.index(), a.index(), "freed slot should be reused");
        assert_eq!(d.slice(b).unwrap(), &[rec(2)]);
        assert_eq!(d.slots(), 2, "arena must not grow past two slots");
    }

    #[test]
    fn stale_and_unknown_ids_error() {
        let mut d = MemStore::new(2);
        let a = d.alloc(&[rec(1)]);
        d.release(a).unwrap();
        assert!(d.slice(a).is_err());
        assert!(d.write(a, &[]).is_err());
        assert!(d.release(a).is_err());
        assert!(d.slice(BlockId(99)).is_err());
        let mut buf = Vec::new();
        assert!(d.read_into(BlockId(99), &mut buf).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds B")]
    fn overfull_block_rejected_on_alloc() {
        let mut d = MemStore::new(2);
        d.alloc(&[rec(1), rec(2), rec(3)]);
    }

    #[test]
    #[should_panic(expected = "exceeds B")]
    fn overfull_block_rejected_on_write() {
        let mut d = MemStore::new(2);
        let id = d.alloc(&[rec(1)]);
        let _ = d.write(id, &[rec(1), rec(2), rec(3)]);
    }

    #[test]
    fn partial_blocks_shrink_and_grow_in_place() {
        let mut d = MemStore::new(4);
        let id = d.alloc(&[rec(1), rec(2), rec(3)]);
        d.write(id, &[rec(8)]).unwrap();
        assert_eq!(d.slice(id).unwrap(), &[rec(8)]);
        d.write(id, &[rec(4), rec(5), rec(6), rec(7)]).unwrap();
        assert_eq!(d.slice(id).unwrap(), &[rec(4), rec(5), rec(6), rec(7)]);
    }

    #[test]
    fn trait_object_dispatch_matches_inherent_api() {
        let mut boxed: Box<dyn BlockStore> = Box::new(MemStore::new(3));
        let id = boxed.alloc(&[rec(4), rec(5)]);
        let mut buf = Vec::new();
        boxed.read_into(id, &mut buf).unwrap();
        assert_eq!(buf, vec![rec(4), rec(5)]);
        boxed.peek_into(id, &mut buf).unwrap();
        assert_eq!(buf, vec![rec(4), rec(5)]);
        assert_eq!((boxed.live_blocks(), boxed.slots()), (1, 1));
        boxed.release(id).unwrap();
        assert_eq!(boxed.live_blocks(), 0);
        assert_eq!(boxed.block_size(), 3);
    }
}
