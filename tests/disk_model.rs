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
//!
//! Both scripts also stage whole inputs and gather sets of blocks in one
//! call each: the uncharged bulk paths, which the file backend batches
//! and the slab gathers without a per-block buffer. A `PerBlock` shadow,
//! which keeps the trait's per-block `alloc` and `peek_into` defaults,
//! pins them to the ids and records of the per-block loop: over recycled
//! slots in any order, partial blocks, batches past the file backend's
//! 64 KiB cap, and empty inputs.

use asym_model::{Record, Result};
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
    /// Stage `stage_len(n)` records derived from `seed` in one call.
    Stage(u64, u64),
    /// Gather the live blocks `gather_ids(pick, n)` picks in one call.
    Gather(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..7, 0u64..1_000_000, 0u64..1_000_000).prop_map(|(tag, a, b)| match tag {
        0 => Op::Alloc(a),
        1 => Op::Write(a, b),
        2 => Op::Read(a),
        3 => Op::Release(a),
        4 => Op::ReadStale(a),
        5 => Op::Stage(a, b),
        _ => Op::Gather(a, b),
    })
}

/// How many records a `Stage` op stages: usually up to five blocks,
/// ending in a partial one or empty; one op in sixteen stages more than
/// 4,096 records, the 64 KiB the file backend moves per batched write.
fn stage_len(n: u64, b: usize) -> usize {
    if n.is_multiple_of(16) {
        4_097 + (n / 16 % 2_000) as usize
    } else {
        (n % (5 * b as u64 + 1)) as usize
    }
}

/// The blocks a `Gather` op collects: a window of up to `n % 5_000` live
/// blocks from `pick`, in slot order for even `pick` (runs of adjacent
/// slots, the batched case) and in the script's live-list order for odd
/// `pick`; for `n % 3 == 0` every third block of the window is skipped.
fn gather_ids(live: &[BlockId], pick: u64, n: u64) -> Vec<BlockId> {
    if live.is_empty() {
        return Vec::new();
    }
    let mut ids = live.to_vec();
    if pick.is_multiple_of(2) {
        ids.sort_unstable();
    }
    let start = (pick / 2) as usize % ids.len();
    let end = ids.len().min(start + (n % 5_000) as usize);
    ids[start..end]
        .iter()
        .enumerate()
        .filter(|(i, _)| !n.is_multiple_of(3) || i % 3 != 2)
        .map(|(_, id)| *id)
        .collect()
}

/// The reference gather: the picked blocks' records, concatenated.
fn concat(reference: &HashMap<usize, Vec<Record>>, ids: &[BlockId]) -> Vec<Record> {
    ids.iter()
        .flat_map(|id| reference[&id.index()].iter().copied())
        .collect()
}

/// A `MemStore` that keeps the trait's default `stage` and `gather`: one
/// `alloc` per chunk and one `peek_into` per block.
struct PerBlock(MemStore);

impl BlockStore for PerBlock {
    fn block_size(&self) -> usize {
        self.0.block_size()
    }
    fn alloc(&mut self, records: &[Record]) -> BlockId {
        self.0.alloc(records)
    }
    fn read_into(&mut self, id: BlockId, out: &mut Vec<Record>) -> Result<()> {
        self.0.read_into(id, out)
    }
    fn write(&mut self, id: BlockId, records: &[Record]) -> Result<()> {
        self.0.write(id, records)
    }
    fn release(&mut self, id: BlockId) -> Result<()> {
        self.0.release(id)
    }
    fn live_blocks(&self) -> usize {
        self.0.live_blocks()
    }
    fn slots(&self) -> usize {
        self.0.slots()
    }
}

/// Apply a `Stage` op's records to the reference and the live list.
fn record_stage(
    reference: &mut HashMap<usize, Vec<Record>>,
    live: &mut Vec<BlockId>,
    dead: &mut Vec<BlockId>,
    ids: &[BlockId],
    input: &[Record],
    b: usize,
) {
    assert_eq!(ids.len(), input.len().div_ceil(b));
    for (id, chunk) in ids.iter().zip(input.chunks(b)) {
        assert!(
            reference.insert(id.index(), chunk.to_vec()).is_none(),
            "staging handed out a live slot"
        );
        live.push(*id);
        dead.retain(|d| d.index() != id.index());
    }
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
        let mut single = PerBlock(MemStore::new(b));
        let mut reference: HashMap<usize, Vec<Record>> = HashMap::new();
        let mut live: Vec<BlockId> = Vec::new();
        let mut dead: Vec<BlockId> = Vec::new();
        let mut read_buf: Vec<Record> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(seed) => {
                    let contents = block(seed, (seed as usize) % (b + 1));
                    let id = disk.alloc(&contents);
                    prop_assert_eq!(single.alloc(&contents), id);
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
                    single.write(id, &contents).expect("live write");
                    reference.insert(id.index(), contents);
                }
                Op::Stage(seed, n) => {
                    let input = block(seed, stage_len(n, b));
                    let ids = disk.stage(&input);
                    prop_assert_eq!(&ids, &single.stage(&input), "stage must alloc per block");
                    record_stage(&mut reference, &mut live, &mut dead, &ids, &input, b);
                }
                Op::Gather(pick, n) => {
                    let ids = gather_ids(&live, pick, n);
                    let mut out = vec![Record::keyed(7)];
                    disk.gather(&ids, &mut out).expect("live gather");
                    prop_assert_eq!(out[0], Record::keyed(7), "gather appends");
                    prop_assert_eq!(&out[1..], &concat(&reference, &ids)[..]);
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
                    single.release(id).expect("live release");
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
                    prop_assert!(disk.gather(&[id], &mut read_buf).is_err());
                }
            }
            prop_assert_eq!(disk.live_blocks(), reference.len());
            prop_assert_eq!(disk.slots(), single.slots());
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
        let mut single = PerBlock(MemStore::new(b));
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
                    prop_assert_eq!(single.alloc(&contents), idf);
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
                    single.write(id, &contents).expect("live write");
                    reference.insert(id.index(), contents);
                }
                Op::Stage(seed, n) => {
                    let input = block(seed, stage_len(n, b));
                    let ids = file.stage(&input);
                    prop_assert_eq!(&ids, &mem.stage(&input), "backends staged different slots");
                    prop_assert_eq!(&ids, &single.stage(&input), "stage must alloc per block");
                    record_stage(&mut reference, &mut live, &mut dead, &ids, &input, b);
                }
                Op::Gather(pick, n) => {
                    let ids = gather_ids(&live, pick, n);
                    let want = concat(&reference, &ids);
                    let mut out = vec![Record::keyed(7)];
                    file.gather(&ids, &mut out).expect("live gather");
                    prop_assert_eq!(out[0], Record::keyed(7), "gather appends");
                    prop_assert_eq!(&out[1..], &want[..]);
                    out.clear();
                    mem.gather(&ids, &mut out).expect("live gather");
                    prop_assert_eq!(&out, &want);
                    out.clear();
                    single.gather(&ids, &mut out).expect("live gather");
                    prop_assert_eq!(&out, &want);
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
                    single.release(id).expect("live release");
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
                    prop_assert!(file.gather(&[id], &mut buf_file).is_err());
                }
            }
            prop_assert_eq!(file.live_blocks(), reference.len());
            prop_assert_eq!(file.live_blocks(), mem.live_blocks());
            prop_assert_eq!(file.slots(), mem.slots());
            prop_assert_eq!(file.slots(), single.slots());
        }
        // Final sweep: every live block still reads back exactly, through the
        // uncharged peek path too.
        for id in &live {
            file.peek_into(*id, &mut buf_file).expect("live peek");
            prop_assert_eq!(&buf_file, &reference[&id.index()]);
        }
    }
}
