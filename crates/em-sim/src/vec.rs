//! Disk-resident arrays with buffered block-granular cursors.
//!
//! [`EmVec`] is the standard shape of data in the AEM algorithms: a sequence
//! of records stored in consecutive blocks (all full except possibly the
//! last). [`EmReader`] and [`EmWriter`] stream over it one block at a time,
//! holding a one-block primary-memory lease while open — exactly the load
//! buffer / store buffer discipline of Algorithm 2. Each cursor owns one
//! reusable block buffer that is filled (or drained) in place, so streaming
//! I/O allocates nothing after the cursor is opened.

use crate::machine::{EmMachine, MemLease};
use crate::store::BlockId;
use asym_model::{Record, Result};

/// A disk-resident array of records.
#[derive(Debug)]
pub struct EmVec {
    blocks: Vec<BlockId>,
    len: usize,
}

impl EmVec {
    /// An empty array.
    pub fn empty() -> Self {
        Self {
            blocks: Vec::new(),
            len: 0,
        }
    }

    /// Stage `records` onto disk **uncharged** (problem input setup).
    pub fn stage(machine: &EmMachine, records: &[Record]) -> Self {
        Self {
            blocks: machine.stage_input(records),
            len: records.len(),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The block ids, in order.
    pub fn block_ids(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Split into `parts` contiguous sub-arrays at block granularity
    /// (consumes the array; no I/O is charged — this is pointer bookkeeping).
    ///
    /// Fewer than `parts` pieces are returned when there are not enough
    /// blocks. Every piece except possibly the last consists of full blocks.
    pub fn split_blocks(self, parts: usize, b: usize) -> Vec<EmVec> {
        assert!(parts >= 1);
        let nblocks = self.blocks.len();
        if nblocks == 0 {
            return vec![EmVec::empty()];
        }
        let per = nblocks.div_ceil(parts);
        let mut out = Vec::new();
        let mut remaining = self.len;
        for chunk in self.blocks.chunks(per) {
            let full = chunk.len() * b;
            let piece_len = full.min(remaining);
            remaining -= piece_len;
            out.push(EmVec {
                blocks: chunk.to_vec(),
                len: piece_len,
            });
        }
        debug_assert_eq!(remaining, 0);
        out
    }

    /// Charged sequential reader over the records.
    pub fn reader<'a>(&'a self, machine: &EmMachine) -> Result<EmReader<'a>> {
        let lease = machine.lease(machine.b())?;
        Ok(EmReader {
            machine: machine.clone(),
            blocks: &self.blocks,
            len: self.len,
            next_block: 0,
            buf: Vec::with_capacity(machine.b()),
            buf_pos: 0,
            consumed: 0,
            _lease: lease,
        })
    }

    /// Uncharged copy of all records (test oracles and experiment setup only).
    pub fn read_all_uncharged(&self, machine: &EmMachine) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.len);
        let mut buf = Vec::with_capacity(machine.b());
        for id in &self.blocks {
            machine.peek_block_into(*id, &mut buf).expect("live block");
            out.extend_from_slice(&buf);
        }
        out.truncate(self.len);
        out
    }

    /// Release all blocks back to the disk.
    pub fn free(self, machine: &EmMachine) {
        for id in self.blocks {
            machine.release_block(id).expect("double free");
        }
    }
}

/// Buffered sequential reader (holds a one-block lease while open). The load
/// buffer is allocated once at open and refilled in place per block.
pub struct EmReader<'a> {
    machine: EmMachine,
    blocks: &'a [BlockId],
    len: usize,
    next_block: usize,
    buf: Vec<Record>,
    buf_pos: usize,
    consumed: usize,
    _lease: MemLease,
}

impl<'a> EmReader<'a> {
    /// Records remaining.
    pub fn remaining(&self) -> usize {
        self.len - self.consumed
    }

    /// Look at the next record without consuming it (may incur a block read).
    pub fn peek(&mut self) -> Option<Record> {
        if self.consumed == self.len {
            return None;
        }
        if self.buf_pos == self.buf.len() {
            let id = self.blocks[self.next_block];
            // This cursor has no `Result` channel, so an injected device
            // fault unwinds as a typed `StoreIoPanic` a supervisor can
            // downcast and retry; any other failure here is a real bug.
            match self.machine.read_block_into(id, &mut self.buf) {
                Ok(()) => {}
                Err(e @ asym_model::ModelError::Io(_)) => {
                    std::panic::panic_any(crate::fault::StoreIoPanic(e))
                }
                Err(e) => panic!("live block: {e}"),
            }
            self.next_block += 1;
            self.buf_pos = 0;
        }
        Some(self.buf[self.buf_pos])
    }

    /// Consume and return the next record.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Record> {
        let r = self.peek()?;
        self.buf_pos += 1;
        self.consumed += 1;
        Some(r)
    }

    /// Consume and return the rest of the current block (loading the next
    /// one first if the current is used up), so scans can work a block
    /// slice at a time. Charges exactly the reads `next` would.
    pub fn next_slice(&mut self) -> Option<&[Record]> {
        self.peek()?;
        let end = self.buf.len().min(self.buf_pos + self.remaining());
        let start = std::mem::replace(&mut self.buf_pos, end);
        self.consumed += end - start;
        Some(&self.buf[start..end])
    }

    /// Drain everything left into a vector (charges the remaining block reads;
    /// caller is responsible for having leased space for the result).
    pub fn drain(mut self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.remaining());
        while let Some(r) = self.next() {
            out.push(r);
        }
        out
    }
}

/// Buffered sequential writer (holds a one-block lease while open; each flush
/// of the store buffer charges one ω-cost block write). The store buffer is
/// allocated once at open and cleared — never reallocated — on flush.
pub struct EmWriter {
    machine: EmMachine,
    blocks: Vec<BlockId>,
    buf: Vec<Record>,
    len: usize,
    _lease: MemLease,
}

impl EmWriter {
    /// Open a writer on `machine`.
    pub fn new(machine: &EmMachine) -> Result<Self> {
        let lease = machine.lease(machine.b())?;
        Ok(Self {
            machine: machine.clone(),
            blocks: Vec::new(),
            buf: Vec::with_capacity(machine.b()),
            len: 0,
            _lease: lease,
        })
    }

    /// Append one record, flushing the store buffer when it fills.
    pub fn push(&mut self, r: Record) {
        self.buf.push(r);
        self.len += 1;
        if self.buf.len() == self.machine.b() {
            self.flush();
        }
    }

    /// Append many records.
    pub fn extend(&mut self, rs: impl IntoIterator<Item = Record>) {
        for r in rs {
            self.push(r);
        }
    }

    /// Records written so far (including any still in the buffer).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.blocks.push(self.machine.append_block_from(&self.buf));
        self.buf.clear();
    }

    /// Flush the final partial block and return the finished array.
    pub fn finish(mut self) -> EmVec {
        self.flush();
        EmVec {
            blocks: std::mem::take(&mut self.blocks),
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::EmConfig;

    fn machine() -> EmMachine {
        EmMachine::new(EmConfig::new(64, 4, 8))
    }

    fn recs(n: usize) -> Vec<Record> {
        (0..n as u64).map(Record::keyed).collect()
    }

    #[test]
    fn stage_and_read_all_roundtrip() {
        let em = machine();
        let data = recs(11);
        let v = EmVec::stage(&em, &data);
        assert_eq!(v.len(), 11);
        assert_eq!(v.num_blocks(), 3);
        assert_eq!(v.read_all_uncharged(&em), data);
        assert_eq!(em.stats().block_reads, 0, "staging and peeking are free");
    }

    #[test]
    fn reader_charges_one_read_per_block() {
        let em = machine();
        let data = recs(10);
        let v = EmVec::stage(&em, &data);
        let mut r = v.reader(&em).unwrap();
        let mut got = Vec::new();
        while let Some(x) = r.next() {
            got.push(x);
        }
        assert_eq!(got, data);
        assert_eq!(em.stats().block_reads, 3); // ceil(10/4)
        assert_eq!(em.stats().block_writes, 0);
    }

    #[test]
    fn next_slice_hands_out_the_rest_of_each_block() {
        let em = machine();
        let data = recs(10);
        let v = EmVec::stage(&em, &data);
        let mut r = v.reader(&em).unwrap();
        assert_eq!(r.next(), Some(data[0]));
        let mut slices = Vec::new();
        while let Some(s) = r.next_slice() {
            slices.push(s.to_vec());
        }
        let expect = [&data[1..4], &data[4..8], &data[8..]].map(<[Record]>::to_vec);
        assert_eq!(slices, expect);
        assert_eq!(r.remaining(), 0);
        assert_eq!(em.stats().block_reads, 3, "the same reads as `next`");
    }

    #[test]
    fn writer_charges_one_write_per_block() {
        let em = machine();
        let mut w = EmWriter::new(&em).unwrap();
        w.extend(recs(10));
        assert_eq!(w.len(), 10);
        let v = w.finish();
        assert_eq!(v.len(), 10);
        assert_eq!(em.stats().block_writes, 3);
        assert_eq!(v.read_all_uncharged(&em), recs(10));
    }

    #[test]
    fn cursors_do_not_reallocate_their_buffers() {
        let em = machine();
        let v = EmVec::stage(&em, &recs(40)); // 10 full blocks
        let mut r = v.reader(&em).unwrap();
        let mut ptr = None;
        let mut w = EmWriter::new(&em).unwrap();
        let wptr = w.buf.as_ptr();
        while let Some(x) = r.next() {
            let p = r.buf.as_ptr();
            assert_eq!(*ptr.get_or_insert(p), p, "load buffer must be stable");
            w.push(x);
            assert_eq!(w.buf.as_ptr(), wptr, "store buffer must be stable");
        }
        assert_eq!(w.finish().read_all_uncharged(&em), recs(40));
    }

    #[test]
    fn peek_does_not_consume() {
        let em = machine();
        let v = EmVec::stage(&em, &recs(5));
        let mut r = v.reader(&em).unwrap();
        assert_eq!(r.peek(), Some(Record::keyed(0)));
        assert_eq!(r.peek(), Some(Record::keyed(0)));
        assert_eq!(r.next(), Some(Record::keyed(0)));
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.drain(), recs(5)[1..].to_vec());
    }

    #[test]
    fn cursors_hold_block_leases() {
        let em = EmMachine::new(EmConfig::new(8, 4, 2));
        let v = EmVec::stage(&em, &recs(8));
        let _r = v.reader(&em).unwrap();
        assert_eq!(em.mem_used(), 4);
        let _w = EmWriter::new(&em).unwrap();
        assert_eq!(em.mem_used(), 8);
        // Third cursor would exceed M=8.
        assert!(v.reader(&em).is_err());
    }

    #[test]
    fn split_blocks_partitions_at_block_granularity() {
        let em = machine();
        let v = EmVec::stage(&em, &recs(17)); // 5 blocks: 4+4+4+4+1
        let parts = v.split_blocks(2, em.b());
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 12); // 3 full blocks
        assert_eq!(parts[1].len(), 5); // 1 full + 1 partial
        let all: Vec<Record> = parts
            .iter()
            .flat_map(|p| p.read_all_uncharged(&em))
            .collect();
        assert_eq!(all, recs(17));
    }

    #[test]
    fn split_blocks_of_empty_is_single_empty() {
        let em = machine();
        let v = EmVec::stage(&em, &[]);
        let parts = v.split_blocks(3, em.b());
        assert_eq!(parts.len(), 1);
        assert!(parts[0].is_empty());
    }

    #[test]
    fn split_more_parts_than_blocks_gives_per_block_pieces() {
        let em = machine();
        let v = EmVec::stage(&em, &recs(8)); // 2 blocks
        let parts = v.split_blocks(5, em.b());
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(|p| p.len() == 4));
    }

    #[test]
    fn free_releases_blocks() {
        let em = machine();
        let v = EmVec::stage(&em, &recs(9));
        assert_eq!(em.live_blocks(), 3);
        v.free(&em);
        assert_eq!(em.live_blocks(), 0);
    }

    #[test]
    fn empty_writer_finishes_to_empty_vec() {
        let em = machine();
        let w = EmWriter::new(&em).unwrap();
        assert!(w.is_empty());
        let v = w.finish();
        assert!(v.is_empty());
        assert_eq!(v.num_blocks(), 0);
        assert_eq!(em.stats().block_writes, 0);
    }
}
