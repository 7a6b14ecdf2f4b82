//! Block-transfer trace goldens: `cost_golden.rs` pins the totals of the
//! §4 sorts, this file pins the order of every transfer behind them, and
//! of the §4.3.3 priority queue's. [`TraceStore`] folds each store event,
//! in order, into one 64-bit FNV-1a digest: the kind, the slot index and,
//! for `alloc` and `write`, a digest of the block's contents. Uncharged
//! peeks are not traced; the input's staging allocs are, as they fix the
//! slot indices the sort sees.
//!
//! A mismatch names the case and says whether the per-kind counts moved or
//! only the order (or a block's contents) did; a digest keeps no event
//! list, so it cannot name the first differing event. The failure prints
//! the fresh rows. A change meant to reorder transfers re-freezes the rows
//! it moves, with its reason in CHANGES.md, as `cost_golden.rs` does for
//! counts.

use asym_core::em::mergesort::mergesort_slack;
use asym_core::em::pq::pq_slack;
use asym_core::em::samplesort::samplesort_slack;
use asym_core::em::{aem_heapsort, aem_mergesort, aem_samplesort, AemPriorityQueue};
use asym_core::sort::wire::records_digest;
use asym_model::record::assert_sorted_permutation;
use asym_model::workload::Workload;
use asym_model::{Record, Result};
use em_sim::{BlockId, BlockStore, EmConfig, EmMachine, EmVec, FileStore, MemStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::rc::Rc;

/// The running digest and the per-kind event counts.
type Trace = (u64, [u64; 4]);

/// A [`BlockStore`] that passes every call to `inner` and folds the
/// transfers into the shared `trace`.
struct TraceStore<S: BlockStore> {
    inner: S,
    trace: Rc<Cell<Trace>>,
}

impl<S: BlockStore> TraceStore<S> {
    /// Fold one event: the kind (which indexes the counts: alloc, read,
    /// write, release), the slot index and, for a block that moves, a
    /// digest of its contents.
    fn log(&self, kind: u8, id: BlockId, records: Option<&[Record]>) {
        let (mut digest, mut counts) = self.trace.get();
        counts[usize::from(kind)] += 1;
        let mut bytes = [kind; 17];
        bytes[1..9].copy_from_slice(&(id.index() as u64).to_le_bytes());
        let len = match records {
            Some(records) => {
                bytes[9..].copy_from_slice(&records_digest(records).to_le_bytes());
                17
            }
            None => 9,
        };
        for &byte in &bytes[..len] {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        self.trace.set((digest, counts));
    }
}

impl<S: BlockStore> BlockStore for TraceStore<S> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn alloc(&mut self, records: &[Record]) -> BlockId {
        let id = self.inner.alloc(records);
        self.log(0, id, Some(records));
        id
    }

    fn read_into(&mut self, id: BlockId, out: &mut Vec<Record>) -> Result<()> {
        self.log(1, id, None);
        self.inner.read_into(id, out)
    }

    fn write(&mut self, id: BlockId, records: &[Record]) -> Result<()> {
        self.log(2, id, Some(records));
        self.inner.write(id, records)
    }

    fn release(&mut self, id: BlockId) -> Result<()> {
        self.log(3, id, None);
        self.inner.release(id)
    }

    fn live_blocks(&self) -> usize {
        self.inner.live_blocks()
    }

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn peek_into(&mut self, id: BlockId, out: &mut Vec<Record>) -> Result<()> {
        self.inner.peek_into(id, out)
    }
}

/// A machine (ω = 8) on a traced `store`, with the handle to its trace.
fn traced(
    m: usize,
    b: usize,
    slack: usize,
    inner: impl BlockStore + 'static,
) -> (EmMachine, Rc<Cell<Trace>>) {
    let trace = Rc::new(Cell::new((0xcbf2_9ce4_8422_2325, [0; 4])));
    let store = Box::new(TraceStore {
        inner,
        trace: Rc::clone(&trace),
    });
    (
        EmMachine::with_store(EmConfig::new(m, b, 8).with_slack(slack), store),
        trace,
    )
}

/// `(case, [allocs, reads, writes, releases], digest, reads, writes,
/// peak_memory)`: the trace, then the machine's modeled `EmStats`.
type Row = (&'static str, [u64; 4], u64, u64, u64, usize);

fn row(case: String, trace: &Cell<Trace>, em: &EmMachine) -> Row {
    let ((digest, counts), s) = (trace.get(), em.stats());
    (
        case.leak(),
        counts,
        digest,
        s.block_reads,
        s.block_writes,
        s.peak_memory,
    )
}

/// Compare fresh rows with the golden table. On a mismatch, panic with
/// what moved in each moved case and its fresh row.
fn check(fresh: &[Row]) {
    let mut moved = String::new();
    for row @ (case, counts, digest, reads, writes, peak) in fresh {
        let why: String = match GOLDEN.iter().find(|g| g.0 == *case) {
            None => "no golden row".into(),
            Some(g) if g == row => continue,
            Some(g) if g.1 != *counts => format!("per-kind counts moved from {:?}", g.1),
            Some(g) if g.2 != *digest => {
                "per-kind counts unchanged; order or contents moved".into()
            }
            Some(_) => "trace unchanged; modeled EmStats moved".into(),
        };
        let now = format!("({case:?}, {counts:?}, {digest:#018x}, {reads}, {writes}, {peak})");
        moved += &format!("    // {case}: {why}\n    {now},\n");
    }
    assert!(moved.is_empty(), "traces moved:\n{moved}");
}

/// The (sorter, k) pairs every geometry runs.
const PAIRS: [(&str, usize); 8] = [
    ("heapsort", 1),
    ("heapsort", 2),
    ("heapsort", 4),
    ("mergesort", 1),
    ("mergesort", 4),
    ("mergesort", 16),
    ("samplesort", 1),
    ("samplesort", 4),
];

const WORKLOADS: [Workload; 4] = [
    Workload::UniformRandom,
    Workload::Sorted,
    Workload::DuplicateHeavy,
    Workload::AllIdentical,
];

/// Stage `wl`'s input on a traced `store` and sort it. The output must be
/// the sorted input, and freeing it must leave the store empty.
fn trace_sort(
    (sorter, k): (&str, usize),
    wl: Workload,
    (m, b, n): (usize, usize, usize),
    store: impl BlockStore + 'static,
) -> Row {
    let slack = match sorter {
        "heapsort" => pq_slack(m, b, k),
        "mergesort" => mergesort_slack(m, b, k),
        _ => samplesort_slack(m, b, k),
    };
    let (em, trace) = traced(m, b, slack, store);
    let input = wl.generate(n, 0x7ACE);
    let v = EmVec::stage(&em, &input);
    let sorted = match sorter {
        "heapsort" => aem_heapsort(&em, v, k),
        "mergesort" => aem_mergesort(&em, v, k),
        _ => aem_samplesort(&em, v, k, &mut StdRng::seed_from_u64(0xE5)),
    }
    .expect("sort");
    let case = format!("{sorter} k={k} {} m={m} b={b} n={n}", wl.name());
    let row = row(case, &trace, &em);
    assert_sorted_permutation(&input, &sorted.read_all_uncharged(&em));
    sorted.free(&em);
    assert_eq!(em.live_blocks(), 0, "{}: blocks leaked", row.0);
    row
}

/// Every (sorter, k) pair on each of `workloads` at one geometry.
fn sort_grid(geometry: (usize, usize, usize), workloads: &[Workload]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &wl in workloads {
        for pair in PAIRS {
            rows.push(trace_sort(pair, wl, geometry, MemStore::new(geometry.1)));
        }
    }
    rows
}

#[test]
fn sort_traces_at_m16_b2_match_golden() {
    check(&sort_grid((16, 2, 3000), &WORKLOADS));
}

// (64, 8, 20k) is the slowest geometry, so its workloads are split over
// two tests that the harness runs side by side.
#[test]
fn sort_traces_at_m64_b8_match_golden() {
    check(&sort_grid((64, 8, 20_000), &WORKLOADS[..2]));
}

#[test]
fn sort_traces_at_m64_b8_on_duplicates_match_golden() {
    check(&sort_grid((64, 8, 20_000), &WORKLOADS[2..]));
}

/// The sort-bulk geometry (M=1024, B=32), with n cut so the debug build
/// stays fast.
#[test]
fn sort_traces_at_m1024_b32_match_golden() {
    check(&sort_grid((1024, 32, 40_000), &[Workload::UniformRandom]));
}

/// The `BlockStore` contract promises one `BlockId` schedule on every
/// backend, so a real file must see the slab arena's transfers.
#[test]
fn file_store_traces_match_the_mem_golden() {
    let (geometry, wl) = ((16, 2, 3000), Workload::UniformRandom);
    let file = || FileStore::new(geometry.1).expect("file store");
    check(&PAIRS.map(|pair| trace_sort(pair, wl, geometry, file())));
}

/// A seeded script of 2,500 steps (13 inserts : 5 delete-mins : 2
/// peek-mins) over one record shape (unique-ish, 16 distinct records, or
/// all identical), then a drain and a drop; the dropped queue must leave
/// no block behind.
fn trace_pq(m: usize, b: usize, k: usize, shape: u64) -> Row {
    let (em, trace) = traced(m, b, pq_slack(m, b, k), MemStore::new(b));
    let mut pq = AemPriorityQueue::new(em.clone(), k).expect("queue");
    let mut rng = StdRng::seed_from_u64((m * 1000 + b * 100 + k * 10) as u64 + shape);
    for _ in 0..2500 {
        let x = rng.gen_range(0..1_000_000u64);
        let r = [
            Record::new(x, x % 7),
            Record::new(x % 8, x % 2),
            Record::new(3, 3),
        ];
        match rng.gen_range(0..20u8) {
            0..13 => pq.insert(r[shape as usize]).expect("insert"),
            13..18 => drop(pq.delete_min().expect("delete-min")),
            _ => drop(pq.peek_min().expect("peek-min")),
        }
    }
    while pq.delete_min().expect("drain").is_some() {}
    drop(pq);
    let row = row(format!("pq k={k} shape={shape} m={m} b={b}"), &trace, &em);
    assert_eq!(em.live_blocks(), 0, "{}: blocks leaked", row.0);
    row
}

/// The queue property test's geometries and record shapes, with k in
/// 1..=4: 60 fixed scripts.
#[test]
fn pq_script_traces_match_golden() {
    let mut rows = Vec::new();
    for (m, b) in [(16, 2), (32, 4), (64, 8), (32, 2), (64, 4)] {
        for k in 1..5 {
            for shape in 0..3 {
                rows.push(trace_pq(m, b, k, shape));
            }
        }
    }
    check(&rows);
}

/// No golden row goes unchecked: the table holds exactly as many distinct
/// cases as the tests above run (8 pairs × 4 workloads × 2 geometries, 8
/// pairs at the sort-bulk geometry, 60 queue scripts: 132), and every case
/// run must find its row.
#[test]
fn golden_rows_are_the_cases_run() {
    let mut names: Vec<&str> = GOLDEN.iter().map(|g| g.0).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!((names.len(), GOLDEN.len()), (132, 132));
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("heapsort k=1 uniform m=16 b=2 n=3000", [20672, 21663, 0, 19172], 0x6324d202a2191983, 23253, 21359, 24),
    ("heapsort k=2 uniform m=16 b=2 n=3000", [18420, 25060, 0, 16920], 0xdea35b025788eaca, 26431, 18464, 24),
    ("heapsort k=4 uniform m=16 b=2 n=3000", [17225, 34220, 0, 15725], 0xbd14c598cf8ad790, 36920, 16775, 24),
    ("mergesort k=1 uniform m=16 b=2 n=3000", [7500, 6000, 0, 6000], 0x0dc333c1805886bd, 6000, 6000, 28),
    ("mergesort k=4 uniform m=16 b=2 n=3000", [6000, 12422, 0, 4500], 0x32dfacb0443d5521, 12422, 4500, 52),
    ("mergesort k=16 uniform m=16 b=2 n=3000", [4500, 26276, 0, 3000], 0x37cc0df18f59c291, 26276, 3000, 145),
    ("samplesort k=1 uniform m=16 b=2 n=3000", [22698, 27138, 0, 21198], 0xd14e3603327cbd9c, 27138, 21198, 30),
    ("samplesort k=4 uniform m=16 b=2 n=3000", [11465, 21124, 0, 9965], 0x2d0f7e1818317ecc, 21124, 9965, 30),
    ("heapsort k=1 duplicate-heavy m=16 b=2 n=3000", [20594, 21538, 0, 19094], 0xd1f0017859898b45, 23133, 21286, 24),
    ("heapsort k=2 duplicate-heavy m=16 b=2 n=3000", [18382, 25233, 0, 16882], 0x3d48cacef1d3507f, 26600, 18394, 24),
    ("heapsort k=4 duplicate-heavy m=16 b=2 n=3000", [17160, 33584, 0, 15660], 0xfc5d448c94f24711, 36271, 16899, 24),
    ("mergesort k=1 duplicate-heavy m=16 b=2 n=3000", [7500, 6000, 0, 6000], 0x00a8ece0db898a93, 6000, 6000, 28),
    ("mergesort k=4 duplicate-heavy m=16 b=2 n=3000", [6000, 12365, 0, 4500], 0x204e1b70cd885eae, 12365, 4500, 52),
    ("mergesort k=16 duplicate-heavy m=16 b=2 n=3000", [4500, 26124, 0, 3000], 0x7e98d62ab7412840, 26124, 3000, 145),
    ("samplesort k=1 duplicate-heavy m=16 b=2 n=3000", [23258, 27534, 0, 21758], 0xdaa96f77b2cd5c12, 27534, 21758, 30),
    ("samplesort k=4 duplicate-heavy m=16 b=2 n=3000", [11640, 21370, 0, 10140], 0xac64517f2619004f, 21370, 10140, 30),
    ("heapsort k=1 all-identical m=16 b=2 n=3000", [17424, 18174, 0, 15924], 0x86a29492064143cc, 19909, 18881, 24),
    ("heapsort k=2 all-identical m=16 b=2 n=3000", [15732, 20112, 0, 14232], 0xff406c6bd5598520, 21103, 16296, 24),
    ("heapsort k=4 all-identical m=16 b=2 n=3000", [15049, 26842, 0, 13549], 0xb56fb8a364384b61, 27392, 15062, 24),
    ("mergesort k=1 all-identical m=16 b=2 n=3000", [7500, 6000, 0, 6000], 0x2d78da51168ec1f7, 6000, 6000, 28),
    ("mergesort k=4 all-identical m=16 b=2 n=3000", [6000, 5312, 0, 4500], 0x4da1696d31cdcbb0, 5312, 4500, 52),
    ("mergesort k=16 all-identical m=16 b=2 n=3000", [4500, 5415, 0, 3000], 0x5304cdee25232c50, 5415, 3000, 145),
    ("samplesort k=1 all-identical m=16 b=2 n=3000", [10984, 10984, 0, 9484], 0x7edcd7b001b2d9fe, 10984, 9484, 30),
    ("samplesort k=4 all-identical m=16 b=2 n=3000", [10968, 16286, 0, 9468], 0x83d59c20ba91d737, 16286, 9468, 54),
    ("heapsort k=1 sorted m=16 b=2 n=3000", [17728, 18478, 0, 16228], 0xedbb2a0a01a7a78b, 20507, 19439, 24),
    ("heapsort k=2 sorted m=16 b=2 n=3000", [15844, 20224, 0, 14344], 0xc3dec3e452adab7d, 21271, 16429, 24),
    ("heapsort k=4 sorted m=16 b=2 n=3000", [15049, 26842, 0, 13549], 0x6c932dec2f8ed22f, 27404, 15106, 24),
    ("mergesort k=1 sorted m=16 b=2 n=3000", [7500, 6000, 0, 6000], 0xa383907647e0ef46, 6000, 6000, 28),
    ("mergesort k=4 sorted m=16 b=2 n=3000", [6000, 5312, 0, 4500], 0x640bcb11eab7e6e2, 5312, 4500, 52),
    ("mergesort k=16 sorted m=16 b=2 n=3000", [4500, 5415, 0, 3000], 0x2859af480913f06f, 5415, 3000, 145),
    ("samplesort k=1 sorted m=16 b=2 n=3000", [22449, 26824, 0, 20949], 0xa5c8e9a3d2e866f2, 26824, 20949, 30),
    ("samplesort k=4 sorted m=16 b=2 n=3000", [11175, 21025, 0, 9675], 0xe2678bf2709fecdb, 21025, 9675, 30),
    ("heapsort k=1 uniform m=64 b=8 n=20000", [37725, 39060, 0, 35225], 0x5d4b6066be9bad1b, 40142, 37198, 96),
    ("heapsort k=2 uniform m=64 b=8 n=20000", [32539, 44558, 0, 30039], 0xcabbfddf5d44d65c, 45754, 31089, 96),
    ("heapsort k=4 uniform m=64 b=8 n=20000", [30343, 60625, 0, 27843], 0x92c3347c15807136, 63576, 28433, 96),
    ("mergesort k=1 uniform m=64 b=8 n=20000", [12500, 10000, 0, 10000], 0x00f0fab09dec04a2, 10000, 10000, 88),
    ("mergesort k=4 uniform m=64 b=8 n=20000", [10000, 22577, 0, 7500], 0xb265a5eed4756313, 22577, 7500, 112),
    ("mergesort k=16 uniform m=64 b=8 n=20000", [7500, 47603, 0, 5000], 0xdcb837afcbbb57ca, 47603, 5000, 205),
    ("samplesort k=1 uniform m=64 b=8 n=20000", [27141, 34389, 0, 24641], 0x53ea1ae3ef101296, 34389, 24641, 96),
    ("samplesort k=4 uniform m=64 b=8 n=20000", [15690, 33368, 0, 13190], 0x372075b52d23394d, 33368, 13190, 96),
    ("heapsort k=1 duplicate-heavy m=64 b=8 n=20000", [37699, 38853, 0, 35199], 0x00051b30a15b831a, 39922, 37256, 96),
    ("heapsort k=2 duplicate-heavy m=64 b=8 n=20000", [31855, 43740, 0, 29355], 0x5894d84c5b4e26ba, 44927, 30321, 96),
    ("heapsort k=4 duplicate-heavy m=64 b=8 n=20000", [30475, 61121, 0, 27975], 0xd84931f8f7355c6e, 64085, 28557, 96),
    ("mergesort k=1 duplicate-heavy m=64 b=8 n=20000", [12500, 10000, 0, 10000], 0xdb1d661bd9ea3acb, 10000, 10000, 88),
    ("mergesort k=4 duplicate-heavy m=64 b=8 n=20000", [10000, 22606, 0, 7500], 0xfbb359ac6ee80ea2, 22606, 7500, 112),
    ("mergesort k=16 duplicate-heavy m=64 b=8 n=20000", [7500, 47490, 0, 5000], 0xe5d8851b032ac1ec, 47490, 5000, 205),
    ("samplesort k=1 duplicate-heavy m=64 b=8 n=20000", [26464, 33544, 0, 23964], 0x0b4d2032d895a697, 33544, 23964, 96),
    ("samplesort k=4 duplicate-heavy m=64 b=8 n=20000", [16010, 33461, 0, 13510], 0xe6a38d459cfd6d2f, 33461, 13510, 96),
    ("heapsort k=1 all-identical m=64 b=8 n=20000", [29799, 31049, 0, 27299], 0xf2e1dbced2bd4db9, 32162, 30057, 96),
    ("heapsort k=2 all-identical m=64 b=8 n=20000", [27173, 34509, 0, 24673], 0x6585bd2c4e126f34, 35137, 25942, 96),
    ("heapsort k=4 all-identical m=64 b=8 n=20000", [25529, 45275, 0, 23029], 0x67ca3d1b74ac316e, 45589, 23800, 96),
    ("mergesort k=1 all-identical m=64 b=8 n=20000", [12500, 10000, 0, 10000], 0xa5c6013fdeee2375, 10000, 10000, 88),
    ("mergesort k=4 all-identical m=64 b=8 n=20000", [10000, 8601, 0, 7500], 0xf2f63d70e696b633, 8601, 7500, 112),
    ("mergesort k=16 all-identical m=64 b=8 n=20000", [7500, 10915, 0, 5000], 0xe358d3a01e0b1a70, 10915, 5000, 205),
    ("samplesort k=1 all-identical m=64 b=8 n=20000", [17606, 17606, 0, 15106], 0x7eb3915c66c9174d, 17606, 15106, 96),
    ("samplesort k=4 all-identical m=64 b=8 n=20000", [15600, 24207, 0, 13100], 0x7d16e441b20de0a3, 24207, 13100, 120),
    ("heapsort k=1 sorted m=64 b=8 n=20000", [30209, 31459, 0, 27709], 0xc66e2fe9e54eb1b2, 32624, 30661, 96),
    ("heapsort k=2 sorted m=64 b=8 n=20000", [27285, 34621, 0, 24785], 0x1a4cfea0a0d954a3, 35284, 26071, 96),
    ("heapsort k=4 sorted m=64 b=8 n=20000", [25529, 45275, 0, 23029], 0x094d6930da092187, 45598, 23814, 96),
    ("mergesort k=1 sorted m=64 b=8 n=20000", [12500, 10000, 0, 10000], 0x701deff942b00b37, 10000, 10000, 88),
    ("mergesort k=4 sorted m=64 b=8 n=20000", [10000, 8601, 0, 7500], 0x9856d17256ab590d, 8601, 7500, 112),
    ("mergesort k=16 sorted m=64 b=8 n=20000", [7500, 10915, 0, 5000], 0x7835c73fa8fd5ac2, 10915, 5000, 205),
    ("samplesort k=1 sorted m=64 b=8 n=20000", [26589, 33675, 0, 24089], 0x3cc07adf23559e7c, 33675, 24089, 96),
    ("samplesort k=4 sorted m=64 b=8 n=20000", [15674, 33403, 0, 13174], 0x794c5e1e5d725a71, 33403, 13174, 96),
    ("heapsort k=1 uniform m=1024 b=32 n=40000", [14161, 14781, 0, 12911], 0x562bb407e70f037f, 15151, 13059, 1344),
    ("heapsort k=2 uniform m=1024 b=32 n=40000", [13624, 18159, 0, 12374], 0xd2b1fe389280d8a6, 19712, 12420, 1344),
    ("heapsort k=4 uniform m=1024 b=32 n=40000", [13151, 25043, 0, 11901], 0xcdba98bd6f6a85e6, 30426, 11922, 1344),
    ("mergesort k=1 uniform m=1024 b=32 n=40000", [4990, 3740, 0, 3740], 0x529245b6c1c198df, 3740, 3740, 1120),
    ("mergesort k=4 uniform m=1024 b=32 n=40000", [3750, 6617, 0, 2500], 0x2530bdcd1fea39f9, 6617, 2500, 1213),
    ("mergesort k=16 uniform m=1024 b=32 n=40000", [3750, 17884, 0, 2500], 0xa2008ee3b2fcbc6c, 17884, 2500, 1505),
    ("samplesort k=1 uniform m=1024 b=32 n=40000", [5259, 6411, 0, 4009], 0xd9bba6f8f2587a91, 6411, 4009, 1141),
    ("samplesort k=4 uniform m=1024 b=32 n=40000", [4719, 8376, 0, 3469], 0x2175b4bcb639e926, 8376, 3469, 1120),
    ("pq k=1 shape=0 m=16 b=2", [6418, 7727, 0, 6418], 0xbe14c746bc1c654e, 8238, 7187, 22),
    ("pq k=1 shape=1 m=16 b=2", [6067, 7595, 0, 6067], 0xc2362974bc3a7f56, 8077, 7097, 22),
    ("pq k=1 shape=2 m=16 b=2", [7441, 8695, 0, 7441], 0xf736531b7483f99c, 9604, 8726, 22),
    ("pq k=2 shape=0 m=16 b=2", [5477, 9561, 0, 5477], 0x9b3bda5a45d8a258, 10026, 5932, 22),
    ("pq k=2 shape=1 m=16 b=2", [5019, 8294, 0, 5019], 0x14378057e7e8bac5, 8591, 5632, 22),
    ("pq k=2 shape=2 m=16 b=2", [6720, 10014, 0, 6720], 0xee74afbc75df4cc9, 10475, 7579, 22),
    ("pq k=3 shape=0 m=16 b=2", [5059, 11535, 0, 5059], 0x81da277193cbf4a3, 12624, 5327, 22),
    ("pq k=3 shape=1 m=16 b=2", [5227, 11865, 0, 5227], 0x5e8d7f29eadae5cf, 12464, 5721, 22),
    ("pq k=3 shape=2 m=16 b=2", [6247, 11323, 0, 6247], 0xff5c6ef04ffe9c89, 11663, 6955, 22),
    ("pq k=4 shape=0 m=16 b=2", [5170, 13913, 0, 5170], 0xc84ce97bc7732356, 15340, 5403, 22),
    ("pq k=4 shape=1 m=16 b=2", [5123, 13701, 0, 5123], 0xcdd5203889aec783, 15145, 5507, 22),
    ("pq k=4 shape=2 m=16 b=2", [6172, 13397, 0, 6172], 0x244aa67b0fc7e657, 13708, 6774, 22),
    ("pq k=1 shape=0 m=32 b=4", [2729, 3268, 0, 2729], 0xd85221dd17b5a24d, 3418, 2953, 44),
    ("pq k=1 shape=1 m=32 b=4", [2788, 3440, 0, 2788], 0x1dd06ce6b85a4cb7, 3599, 3103, 44),
    ("pq k=1 shape=2 m=32 b=4", [3394, 3954, 0, 3394], 0x0bdd0477a9200398, 4168, 3785, 44),
    ("pq k=2 shape=0 m=32 b=4", [2444, 4106, 0, 2444], 0x6933e2b0397f24eb, 4431, 2553, 44),
    ("pq k=2 shape=1 m=32 b=4", [2507, 4277, 0, 2507], 0xa027f72a401000d3, 4604, 2651, 44),
    ("pq k=2 shape=2 m=32 b=4", [3188, 4684, 0, 3188], 0x942f7a06230cc9eb, 4795, 3405, 44),
    ("pq k=3 shape=0 m=32 b=4", [2403, 5188, 0, 2403], 0x8b3d474926b313a6, 5925, 2439, 44),
    ("pq k=3 shape=1 m=32 b=4", [2290, 4917, 0, 2290], 0xb2afbc8c0c2fe25d, 5418, 2375, 44),
    ("pq k=3 shape=2 m=32 b=4", [2955, 5493, 0, 2955], 0x965203cfc7e969fd, 5554, 3106, 44),
    ("pq k=4 shape=0 m=32 b=4", [2195, 5449, 0, 2195], 0x54f0f45797db0f37, 6801, 2220, 44),
    ("pq k=4 shape=1 m=32 b=4", [2425, 6143, 0, 2425], 0xf39576ec0386ee63, 7049, 2469, 44),
    ("pq k=4 shape=2 m=32 b=4", [2746, 6280, 0, 2746], 0xa34b05c81dfc9455, 6310, 2813, 44),
    ("pq k=1 shape=0 m=64 b=8", [1333, 1586, 0, 1333], 0x97402219495b0391, 1672, 1405, 88),
    ("pq k=1 shape=1 m=64 b=8", [1245, 1525, 0, 1245], 0xc3377fe6dabc6302, 1595, 1348, 88),
    ("pq k=1 shape=2 m=64 b=8", [1609, 1894, 0, 1609], 0x87ef134cd0f39f82, 1947, 1751, 88),
    ("pq k=2 shape=0 m=64 b=8", [1153, 1868, 0, 1153], 0xb72f54050c3f68ab, 2161, 1172, 88),
    ("pq k=2 shape=1 m=64 b=8", [1154, 1966, 0, 1154], 0x09ee60c75e59110c, 2166, 1177, 88),
    ("pq k=2 shape=2 m=64 b=8", [1414, 2205, 0, 1414], 0x747421f8cfadd29c, 2225, 1460, 88),
    ("pq k=3 shape=0 m=64 b=8", [1005, 2123, 0, 1005], 0xffd8057b39efc6c6, 2605, 1013, 88),
    ("pq k=3 shape=1 m=64 b=8", [889, 2329, 0, 889], 0x65a84b0d35311db1, 2570, 893, 88),
    ("pq k=3 shape=2 m=64 b=8", [1453, 2642, 0, 1453], 0x4c83910e01528889, 2655, 1485, 88),
    ("pq k=4 shape=0 m=64 b=8", [831, 2581, 0, 831], 0xac3343c6f7ada61f, 3029, 835, 88),
    ("pq k=4 shape=1 m=64 b=8", [991, 2846, 0, 991], 0x5b51966846f7b172, 3295, 995, 88),
    ("pq k=4 shape=2 m=64 b=8", [1415, 3086, 0, 1415], 0x88b2cb60c11ed400, 3092, 1430, 88),
    ("pq k=1 shape=0 m=32 b=2", [5486, 6690, 0, 5486], 0xbc63cafc6880ca2e, 7039, 5951, 42),
    ("pq k=1 shape=1 m=32 b=2", [4682, 5794, 0, 4682], 0x1e7d05757386ab16, 6054, 5276, 42),
    ("pq k=1 shape=2 m=32 b=2", [6696, 7979, 0, 6696], 0x484737659bfea0a0, 8454, 7591, 42),
    ("pq k=2 shape=0 m=32 b=2", [4690, 8048, 0, 4690], 0xc4f2e2fb9c54eb56, 8702, 4916, 42),
    ("pq k=2 shape=1 m=32 b=2", [4533, 7956, 0, 4533], 0xd2dc8f43dbd9d741, 8440, 4887, 42),
    ("pq k=2 shape=2 m=32 b=2", [5987, 9060, 0, 5987], 0x59bfada8023b0c08, 9349, 6633, 42),
    ("pq k=3 shape=0 m=32 b=2", [4129, 9552, 0, 4129], 0xb18aa0909ff3f0a5, 10532, 4163, 42),
    ("pq k=3 shape=1 m=32 b=2", [5027, 10994, 0, 5027], 0xacf4392ed26a63c7, 12000, 5200, 42),
    ("pq k=3 shape=2 m=32 b=2", [5950, 11387, 0, 5950], 0xa681be1f2d1d2acc, 11497, 6214, 42),
    ("pq k=4 shape=0 m=32 b=2", [4352, 11354, 0, 4352], 0xcc1d7f37e1125d51, 13162, 4382, 42),
    ("pq k=4 shape=1 m=32 b=2", [4597, 11746, 0, 4597], 0xadefed3b93e8f985, 13561, 4682, 42),
    ("pq k=4 shape=2 m=32 b=2", [5853, 12797, 0, 5853], 0xa958ed5afad12738, 12868, 6001, 42),
    ("pq k=1 shape=0 m=64 b=4", [2435, 2959, 0, 2435], 0x7c5c388872254345, 3121, 2546, 84),
    ("pq k=1 shape=1 m=64 b=4", [2423, 2922, 0, 2423], 0x1952af2479fbeea6, 3059, 2585, 84),
    ("pq k=1 shape=2 m=64 b=4", [3171, 3785, 0, 3171], 0xf74cdd6e745809e8, 3885, 3388, 84),
    ("pq k=2 shape=0 m=64 b=4", [2099, 3551, 0, 2099], 0x237140655814d92f, 3943, 2120, 84),
    ("pq k=2 shape=1 m=64 b=4", [2394, 4041, 0, 2394], 0x87c779dfc5c6a1b7, 4436, 2444, 84),
    ("pq k=2 shape=2 m=64 b=4", [2960, 4490, 0, 2960], 0x0938f923e72b09ec, 4531, 3052, 84),
    ("pq k=3 shape=0 m=64 b=4", [2180, 4304, 0, 2180], 0xfbff8115050be535, 5268, 2193, 84),
    ("pq k=3 shape=1 m=64 b=4", [2224, 4907, 0, 2224], 0x6daedd0301aa3918, 5871, 2235, 84),
    ("pq k=3 shape=2 m=64 b=4", [2723, 5421, 0, 2723], 0x0486f83498addcbc, 5436, 2750, 84),
    ("pq k=4 shape=0 m=64 b=4", [1721, 4882, 0, 1721], 0x7f59f7eb70291c77, 5779, 1725, 84),
    ("pq k=4 shape=1 m=64 b=4", [1969, 5774, 0, 1969], 0xf0ca481efa7eabd4, 6671, 1973, 84),
    ("pq k=4 shape=2 m=64 b=4", [2768, 6159, 0, 2768], 0xd4f2847ec48fe110, 6168, 2789, 84),
];
