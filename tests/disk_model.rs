//! Property tests: the `BlockStore` backends against a naive
//! `HashMap<BlockId, Vec<Record>>` reference model, under random
//! alloc / write / read / release interleavings (including slot reuse
//! after release).
//!
//! The slab arena's correctness risk is aliasing: a recycled slot must
//! behave exactly like a fresh allocation, a released id must stay dead
//! even after its slot is reused, and writes through one id must never show
//! through another. The file backend adds offset arithmetic and stale-byte
//! masking (a shrunk block must hide the previous occupant's tail) on top.
//! The reference model has none of these hazards by construction; a second
//! proptest drives `FileStore` against it *and* against a lock-step
//! `MemStore` shadow, so the two backends are also pinned to hand out the
//! identical `BlockId` schedule.

use asym_model::Record;
use em_sim::{BlockId, BlockStore, FileStore, MemStore};
use proptest::prelude::*;
use std::collections::HashMap;

/// One scripted operation; block contents derive from (op seed, position).
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Allocate a block of `len % (B+1)` records.
    Alloc(u64),
    /// Overwrite the `i % live`-th live block with new contents.
    Write(u64, u64),
    /// Read the `i % live`-th live block and compare.
    Read(u64),
    /// Release the `i % live`-th live block.
    Release(u64),
    /// Read a released id and expect an error.
    ReadStale(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, 0u64..1_000_000, 0u64..1_000_000).prop_map(|(tag, a, b)| match tag {
        0 => Op::Alloc(a),
        1 => Op::Write(a, b),
        2 => Op::Read(a),
        3 => Op::Release(a),
        _ => Op::ReadStale(a),
    })
}

/// Deterministic block contents from a seed: `len` records keyed off `seed`.
fn block(seed: u64, len: usize) -> Vec<Record> {
    (0..len as u64)
        .map(|i| Record::new(seed.wrapping_mul(31).wrapping_add(i), seed))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn slab_disk_matches_hashmap_reference(
        ops in prop::collection::vec(op_strategy(), 1..300),
        b in 1usize..9,
    ) {
        let mut disk = MemStore::new(b);
        let mut reference: HashMap<usize, Vec<Record>> = HashMap::new();
        let mut live: Vec<BlockId> = Vec::new();
        let mut dead: Vec<BlockId> = Vec::new();
        let mut read_buf: Vec<Record> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(seed) => {
                    let contents = block(seed, (seed as usize) % (b + 1));
                    let id = disk.alloc(&contents);
                    prop_assert!(
                        !reference.contains_key(&id.index()),
                        "arena handed out a live slot twice"
                    );
                    reference.insert(id.index(), contents);
                    live.push(id);
                    dead.retain(|d| d.index() != id.index());
                }
                Op::Write(pick, seed) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live[(pick as usize) % live.len()];
                    let contents = block(seed, (seed as usize) % (b + 1));
                    disk.write(id, &contents).expect("live write");
                    reference.insert(id.index(), contents);
                }
                Op::Read(pick) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live[(pick as usize) % live.len()];
                    disk.read_into(id, &mut read_buf).expect("live read");
                    prop_assert_eq!(&read_buf, &reference[&id.index()]);
                    disk.peek_into(id, &mut read_buf).expect("live peek");
                    prop_assert_eq!(&read_buf, &reference[&id.index()]);
                }
                Op::Release(pick) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = (pick as usize) % live.len();
                    let id = live.swap_remove(idx);
                    disk.release(id).expect("live release");
                    reference.remove(&id.index());
                    dead.push(id);
                }
                Op::ReadStale(pick) => {
                    if dead.is_empty() {
                        continue;
                    }
                    let id = dead[(pick as usize) % dead.len()];
                    // A released id must stay dead until its slot is reused.
                    prop_assert!(disk.read_into(id, &mut read_buf).is_err());
                    prop_assert!(disk.peek_into(id, &mut read_buf).is_err());
                    prop_assert!(disk.write(id, &[]).is_err());
                    prop_assert!(disk.release(id).is_err());
                }
            }
            prop_assert_eq!(disk.live_blocks(), reference.len());
        }
        // Final sweep: every live block still reads back exactly.
        for id in &live {
            disk.peek_into(*id, &mut read_buf).expect("live peek");
            prop_assert_eq!(&read_buf, &reference[&id.index()]);
        }
        // Every slot ever carved out is either live or on the free list.
        prop_assert!(disk.slots() >= disk.live_blocks());
    }

    #[test]
    fn file_store_matches_reference_and_memstore(
        ops in prop::collection::vec(op_strategy(), 1..300),
        b in 1usize..9,
    ) {
        let mut file = FileStore::new(b).expect("temp file");
        let mut mem = MemStore::new(b);
        let mut reference: HashMap<usize, Vec<Record>> = HashMap::new();
        let mut live: Vec<BlockId> = Vec::new();
        let mut dead: Vec<BlockId> = Vec::new();
        let mut buf_file: Vec<Record> = Vec::new();
        let mut buf_mem: Vec<Record> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(seed) => {
                    let contents = block(seed, (seed as usize) % (b + 1));
                    let idf = BlockStore::alloc(&mut file, &contents);
                    let idm = mem.alloc(&contents);
                    prop_assert_eq!(idf, idm, "backends allocated different slots");
                    prop_assert!(!reference.contains_key(&idf.index()));
                    reference.insert(idf.index(), contents);
                    live.push(idf);
                    dead.retain(|d| d.index() != idf.index());
                }
                Op::Write(pick, seed) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live[(pick as usize) % live.len()];
                    let contents = block(seed, (seed as usize) % (b + 1));
                    BlockStore::write(&mut file, id, &contents).expect("live write");
                    mem.write(id, &contents).expect("live write");
                    reference.insert(id.index(), contents);
                }
                Op::Read(pick) => {
                    if live.is_empty() {
                        continue;
                    }
                    let id = live[(pick as usize) % live.len()];
                    file.read_into(id, &mut buf_file).expect("live read");
                    mem.read_into(id, &mut buf_mem).expect("live read");
                    prop_assert_eq!(&buf_file, &reference[&id.index()]);
                    prop_assert_eq!(&buf_file, &buf_mem);
                }
                Op::Release(pick) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = (pick as usize) % live.len();
                    let id = live.swap_remove(idx);
                    BlockStore::release(&mut file, id).expect("live release");
                    mem.release(id).expect("live release");
                    reference.remove(&id.index());
                    dead.push(id);
                }
                Op::ReadStale(pick) => {
                    if dead.is_empty() {
                        continue;
                    }
                    let id = dead[(pick as usize) % dead.len()];
                    prop_assert!(file.read_into(id, &mut buf_file).is_err());
                    prop_assert!(BlockStore::write(&mut file, id, &[]).is_err());
                    prop_assert!(BlockStore::release(&mut file, id).is_err());
                }
            }
            prop_assert_eq!(file.live_blocks(), reference.len());
            prop_assert_eq!(file.live_blocks(), mem.live_blocks());
            prop_assert_eq!(file.slots(), mem.slots());
        }
        // Final sweep: every live block still reads back exactly, through the
        // uncharged peek path too.
        for id in &live {
            file.peek_into(*id, &mut buf_file).expect("live peek");
            prop_assert_eq!(&buf_file, &reference[&id.index()]);
        }
    }
}
