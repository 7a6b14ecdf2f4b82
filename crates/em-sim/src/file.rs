//! The file-backed backend: block slots mapped to fixed-size byte ranges of
//! a real temp file.
//!
//! `FileStore` performs genuine `std::fs` I/O — every modeled block transfer
//! becomes one positioned read or write (`pread`/`pwrite`, through
//! `FileExt::read_exact_at`/`write_all_at`) of `B * 16` bytes (records
//! serialize as two little-endian `u64`s). Slot `i` owns the byte range
//! `[i * B * 16, (i+1) * B * 16)`; live-length and free-list bookkeeping
//! stays in host memory in the same `SlotTable` type [`crate::MemStore`]
//! uses (LIFO slot reuse, fresh slots in increasing index order), so a run
//! on either backend produces the identical `BlockId` schedule by
//! construction.
//!
//! Uncharged staging and gathering ([`BlockStore::stage`],
//! [`BlockStore::gather`]) are batched: slots are acquired exactly as
//! per-block `alloc` would, then each run of consecutive ascending slots
//! moves with one `pwrite`/`pread` of at most 64 KiB. A run ends at a
//! partial block, since the next slot's bytes do not follow its last
//! record. The cap is measured, not arbitrary: on ext4, staging 3.2 MB
//! with one `pwrite` made the per-block I/O that followed 3–4× slower,
//! while 64 KiB chunks left it as fast as after per-block staging and
//! staged about 5× faster than one `pwrite` per block.
//!
//! The store owns its temp file and deletes it on drop. Construction fails
//! cleanly (no panic) when the target directory is unwritable; mid-run device
//! failures surface as [`ModelError::Io`] from the fallible operations and as
//! panics from the infallible ones (`alloc`, `stage`), matching the in-memory
//! backend's "an overfull block is a caller bug" posture.

use crate::store::{BlockId, BlockStore, SlotTable};
use asym_model::{ModelError, Record, Result};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes per serialized record: `key: u64` + `payload: u64`, little-endian.
const RECORD_BYTES: usize = 16;

/// The byte cap of one batched uncharged transfer (see the module docs).
const BULK_BYTES: usize = 64 * 1024;

/// Per-process counter making temp-file names unique.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(0);

fn io_err(e: std::io::Error) -> ModelError {
    ModelError::Io(e.to_string())
}

/// Block storage in a real temp file (the `file` [`BlockStore`] backend).
///
/// Same slot semantics as [`crate::MemStore`]; the block contents live on
/// disk instead of in a slab. One reused byte buffer carries every transfer,
/// so the steady-state I/O path allocates nothing on the heap (a batched
/// transfer grows it once, to at most 64 KiB).
#[derive(Debug)]
pub struct FileStore {
    file: File,
    path: PathBuf,
    /// Slot bookkeeping — the same `SlotTable` as `MemStore`, so both
    /// backends produce the identical `BlockId` schedule by construction.
    slots: SlotTable,
    block_size: usize,
    /// Reused serialization buffer (one block's worth of bytes, or one
    /// batched run's).
    byte_buf: Vec<u8>,
}

impl FileStore {
    /// A store with block size `B` (in records) backed by a fresh temp file
    /// in [`std::env::temp_dir`]. Fails with [`ModelError::Io`] if the file
    /// cannot be created.
    pub fn new(block_size: usize) -> Result<Self> {
        Self::new_in(std::env::temp_dir(), block_size)
    }

    /// Like [`FileStore::new`], but placing the backing file in `dir`
    /// (which must already exist and be writable).
    pub fn new_in(dir: impl AsRef<Path>, block_size: usize) -> Result<Self> {
        assert!(block_size >= 1, "block size must be positive");
        let seq = NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed);
        let path = dir.as_ref().join(format!(
            "asym-filestore-{}-{}.blocks",
            std::process::id(),
            seq
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(Self {
            file,
            path,
            slots: SlotTable::default(),
            block_size,
            byte_buf: vec![0u8; block_size * RECORD_BYTES],
        })
    }

    /// The path of the backing temp file (deleted when the store drops).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The byte offset of slot `slot` in the backing file.
    fn offset(&self, slot: usize) -> u64 {
        (slot * self.block_size * RECORD_BYTES) as u64
    }

    /// How many blocks one batched transfer may carry: `BULK_BYTES` worth,
    /// and at least one.
    fn blocks_per_run(&self) -> usize {
        (BULK_BYTES / (self.block_size * RECORD_BYTES)).max(1)
    }

    /// Serialize `records` into the reused byte buffer and write them back
    /// to back from `slot`'s offset: one block, or a batched run of
    /// consecutive slots whose blocks before the last are full.
    fn write_slot(&mut self, slot: usize, records: &[Record]) -> Result<()> {
        let nbytes = records.len() * RECORD_BYTES;
        if self.byte_buf.len() < nbytes {
            self.byte_buf.resize(nbytes, 0);
        }
        for (dst, r) in self.byte_buf[..nbytes]
            .chunks_exact_mut(RECORD_BYTES)
            .zip(records)
        {
            dst[..8].copy_from_slice(&r.key.to_le_bytes());
            dst[8..].copy_from_slice(&r.payload.to_le_bytes());
        }
        self.file
            .write_all_at(&self.byte_buf[..nbytes], self.offset(slot))
            .map_err(io_err)
    }

    /// Read `len` records stored back to back from `slot`'s offset and
    /// append them to `out`.
    fn read_slot(&mut self, slot: usize, len: usize, out: &mut Vec<Record>) -> Result<()> {
        let nbytes = len * RECORD_BYTES;
        if self.byte_buf.len() < nbytes {
            self.byte_buf.resize(nbytes, 0);
        }
        let off = self.offset(slot);
        self.file
            .read_exact_at(&mut self.byte_buf[..nbytes], off)
            .map_err(io_err)?;
        out.extend(
            self.byte_buf[..nbytes]
                .chunks_exact(RECORD_BYTES)
                .map(|chunk| {
                    Record::new(
                        u64::from_le_bytes(chunk[..8].try_into().expect("8-byte key")),
                        u64::from_le_bytes(chunk[8..].try_into().expect("8-byte payload")),
                    )
                }),
        );
        Ok(())
    }
}

impl BlockStore for FileStore {
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
        self.write_slot(slot, records)
            .expect("FileStore: block write failed");
        BlockId(slot)
    }

    fn read_into(&mut self, id: BlockId, out: &mut Vec<Record>) -> Result<()> {
        let len = self.slots.live_len(id)?;
        out.clear();
        self.read_slot(id.0, len, out)
    }

    fn write(&mut self, id: BlockId, records: &[Record]) -> Result<()> {
        assert!(
            records.len() <= self.block_size,
            "block of {} records exceeds B={}",
            records.len(),
            self.block_size
        );
        self.slots.live_len(id)?;
        self.write_slot(id.0, records)?;
        self.slots.set_len(id, records.len())
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

    /// Acquires one slot per chunk, as `alloc` does, then writes each run
    /// of consecutive ascending slots with one `pwrite` of at most 64 KiB.
    /// Only the last chunk can be partial, so it always ends its run.
    fn stage(&mut self, records: &[Record]) -> Vec<BlockId> {
        let b = self.block_size;
        let ids: Vec<BlockId> = records
            .chunks(b)
            .map(|chunk| BlockId(self.slots.acquire(chunk.len())))
            .collect();
        let per_run = self.blocks_per_run();
        let mut i = 0;
        while i < ids.len() {
            let mut j = i + 1;
            while j < ids.len() && j - i < per_run && ids[j].0 == ids[j - 1].0 + 1 {
                j += 1;
            }
            let run = &records[i * b..(j * b).min(records.len())];
            self.write_slot(ids[i].0, run)
                .expect("FileStore: staging write failed");
            i = j;
        }
        ids
    }

    /// Reads each run of consecutive ascending slots with one `pread` of
    /// at most 64 KiB. A run ends at a partial block.
    fn gather(&mut self, ids: &[BlockId], out: &mut Vec<Record>) -> Result<()> {
        let b = self.block_size;
        let per_run = self.blocks_per_run();
        let mut i = 0;
        while i < ids.len() {
            let mut len = self.slots.live_len(ids[i])?;
            let mut j = i + 1;
            // Every block so far is full, so the next one's records follow
            // straight on in the file.
            while j < ids.len()
                && j - i < per_run
                && len == (j - i) * b
                && ids[j].0 == ids[j - 1].0 + 1
            {
                len += self.slots.live_len(ids[j])?;
                j += 1;
            }
            self.read_slot(ids[i].0, len, out)?;
            i = j;
        }
        Ok(())
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        // Best-effort cleanup; a vanished temp dir must not turn a drop
        // (possibly during a panic unwind) into an abort.
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: u64) -> Record {
        Record::keyed(k)
    }

    #[test]
    fn alloc_read_write_roundtrip_through_the_file() {
        let mut s = FileStore::new(4).unwrap();
        let id = s.alloc(&[rec(1), rec(2)]);
        let mut buf = Vec::new();
        s.read_into(id, &mut buf).unwrap();
        assert_eq!(buf, vec![rec(1), rec(2)]);
        s.write(id, &[Record::new(9, 7)]).unwrap();
        s.read_into(id, &mut buf).unwrap();
        assert_eq!(buf, vec![Record::new(9, 7)]);
        assert_eq!(s.block_size(), 4);
        assert!(s.path().exists());
    }

    #[test]
    fn release_recycles_slots_lifo_like_memstore() {
        let mut s = FileStore::new(2).unwrap();
        let a = s.alloc(&[rec(1)]);
        let b = s.alloc(&[rec(2)]);
        let c = s.alloc(&[rec(3)]);
        s.release(a).unwrap();
        s.release(c).unwrap();
        assert_eq!(s.live_blocks(), 1);
        // LIFO: the most recently released slot (c) is handed out first.
        assert_eq!(s.alloc(&[rec(4)]).index(), c.index());
        assert_eq!(s.alloc(&[rec(5)]).index(), a.index());
        assert_eq!(s.slots(), 3);
        let mut buf = Vec::new();
        s.read_into(b, &mut buf).unwrap();
        assert_eq!(buf, vec![rec(2)]);
    }

    #[test]
    fn stale_and_unknown_ids_error() {
        let mut s = FileStore::new(2).unwrap();
        let a = s.alloc(&[rec(1)]);
        s.release(a).unwrap();
        let mut buf = Vec::new();
        assert!(s.read_into(a, &mut buf).is_err());
        assert!(s.write(a, &[]).is_err());
        assert!(s.release(a).is_err());
        assert!(s.read_into(BlockId(99), &mut buf).is_err());
    }

    #[test]
    fn partial_blocks_mask_stale_file_bytes() {
        let mut s = FileStore::new(4).unwrap();
        let id = s.alloc(&[rec(1), rec(2), rec(3)]);
        s.write(id, &[rec(8)]).unwrap();
        let mut buf = Vec::new();
        s.read_into(id, &mut buf).unwrap();
        assert_eq!(buf, vec![rec(8)], "shrunk block must hide old records");
        s.write(id, &[rec(4), rec(5), rec(6), rec(7)]).unwrap();
        s.read_into(id, &mut buf).unwrap();
        assert_eq!(buf, vec![rec(4), rec(5), rec(6), rec(7)]);
    }

    #[test]
    fn drop_removes_the_backing_file() {
        let s = FileStore::new(2).unwrap();
        let path = s.path().to_path_buf();
        assert!(path.exists());
        drop(s);
        assert!(!path.exists(), "temp file must be deleted on drop");
    }

    #[test]
    fn unwritable_dir_errors_cleanly_instead_of_panicking() {
        let missing = std::env::temp_dir().join("asym-no-such-dir-xyzzy");
        let err = FileStore::new_in(&missing, 4).unwrap_err();
        assert!(matches!(err, ModelError::Io(_)), "got {err:?}");
    }

    fn recs(n: usize, salt: u64) -> Vec<Record> {
        (0..n as u64).map(|i| Record::new(i ^ salt, i)).collect()
    }

    #[test]
    fn batched_stage_and_gather_match_per_block_transfers() {
        // B = 4 is 64 bytes a block, so 1,024 blocks fill one batched run:
        // 2,500 blocks plus a partial one span three runs.
        let input = recs(4 * 2_500 + 3, 7);
        let mut bulk = FileStore::new(4).unwrap();
        let mut single = FileStore::new(4).unwrap();
        let ids = bulk.stage(&input);
        let per_block: Vec<BlockId> = input.chunks(4).map(|c| single.alloc(c)).collect();
        assert_eq!(ids, per_block, "staging must hand out alloc's ids");
        let mut out = Vec::new();
        bulk.gather(&ids, &mut out).unwrap();
        assert_eq!(out, input);
        let mut buf = Vec::new();
        bulk.read_into(*ids.last().unwrap(), &mut buf).unwrap();
        assert_eq!(buf, input[input.len() - 3..]);
        assert!(bulk.stage(&[]).is_empty());
        bulk.gather(&[], &mut out).unwrap();
        assert_eq!(out.len(), input.len(), "an empty gather appends nothing");
    }

    #[test]
    fn gather_stops_a_run_at_a_partial_block() {
        let mut s = FileStore::new(4).unwrap();
        let ids: Vec<BlockId> = [4, 2, 4].iter().map(|&n| s.alloc(&recs(n, 9))).collect();
        // The shrunk middle block leaves stale bytes behind its live pair.
        s.write(ids[1], &recs(1, 5)).unwrap();
        let mut out = Vec::new();
        s.gather(&ids, &mut out).unwrap();
        let want: Vec<Record> = [recs(4, 9), recs(1, 5), recs(4, 9)].concat();
        assert_eq!(out, want);
    }

    #[test]
    #[should_panic(expected = "exceeds B")]
    fn overfull_block_rejected_on_alloc() {
        let mut s = FileStore::new(2).unwrap();
        s.alloc(&[rec(1), rec(2), rec(3)]);
    }
}
