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
//! The store owns its temp file and deletes it on drop. Construction fails
//! cleanly (no panic) when the target directory is unwritable; mid-run device
//! failures surface as [`ModelError::Io`] from the fallible operations and as
//! panics from the infallible ones (`alloc`), matching the in-memory
//! backend's "an overfull block is a caller bug" posture.

use crate::store::{BlockId, BlockStore, SlotTable};
use asym_model::{ModelError, Record, Result};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes per serialized record: `key: u64` + `payload: u64`, little-endian.
const RECORD_BYTES: usize = 16;

/// Per-process counter making temp-file names unique.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(0);

fn io_err(e: std::io::Error) -> ModelError {
    ModelError::Io(e.to_string())
}

/// Block storage in a real temp file (the `file` [`BlockStore`] backend).
///
/// Same slot semantics as [`crate::MemStore`]; the block contents live on
/// disk instead of in a slab. One reused byte buffer carries every transfer,
/// so the steady-state I/O path allocates nothing on the heap.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    path: PathBuf,
    /// Slot bookkeeping — the same `SlotTable` as `MemStore`, so both
    /// backends produce the identical `BlockId` schedule by construction.
    slots: SlotTable,
    block_size: usize,
    /// Reused serialization buffer (one block's worth of bytes).
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

    /// Serialize `records` into the reused byte buffer and write them at
    /// `slot`'s offset.
    fn write_slot(&mut self, slot: usize, records: &[Record]) -> Result<()> {
        let nbytes = records.len() * RECORD_BYTES;
        for (i, r) in records.iter().enumerate() {
            self.byte_buf[i * RECORD_BYTES..i * RECORD_BYTES + 8]
                .copy_from_slice(&r.key.to_le_bytes());
            self.byte_buf[i * RECORD_BYTES + 8..(i + 1) * RECORD_BYTES]
                .copy_from_slice(&r.payload.to_le_bytes());
        }
        self.file
            .write_all_at(&self.byte_buf[..nbytes], self.offset(slot))
            .map_err(io_err)
    }

    /// Read `len` records from `slot`'s offset into `out` (cleared first).
    fn read_slot(&mut self, slot: usize, len: usize, out: &mut Vec<Record>) -> Result<()> {
        let nbytes = len * RECORD_BYTES;
        let off = self.offset(slot);
        self.file
            .read_exact_at(&mut self.byte_buf[..nbytes], off)
            .map_err(io_err)?;
        out.clear();
        for chunk in self.byte_buf[..nbytes].chunks_exact(RECORD_BYTES) {
            out.push(Record::new(
                u64::from_le_bytes(chunk[..8].try_into().expect("8-byte key")),
                u64::from_le_bytes(chunk[8..].try_into().expect("8-byte payload")),
            ));
        }
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

    #[test]
    #[should_panic(expected = "exceeds B")]
    fn overfull_block_rejected_on_alloc() {
        let mut s = FileStore::new(2).unwrap();
        s.alloc(&[rec(1), rec(2), rec(3)]);
    }
}
