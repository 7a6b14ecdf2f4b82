//! Algorithm 2's queue Q, stored in the one shape it ever has.
//!
//! Q is never a general priority queue: for each run it holds an ascending
//! contiguous slice of that run's *current* block. Q is empty when a round
//! starts; a run's next block is loaded only when its block-final record is
//! popped as the minimum (so the run's slice is empty then); pops take a
//! run's prefix and ejections take a run's suffix. So each run keeps the
//! block it holds, the slice bounds within it, and whether the slice still
//! ends the block, and two winner trees over the l runs give the smallest
//! head and the largest tail. Peek-max is O(1); pop-min and pop-max replay
//! one tree path, O(log l) comparisons of `(Record, run)`. A record's
//! provenance is implicit (its run is the tree leaf, its offset the slice
//! position), and "last in block" means the slice ended the block and is now
//! empty.
//!
//! Phase 1 is one selection rather than a stream of bounded inserts: with Q
//! empty and no bar, inserting the candidates one by one leaves Q holding
//! the M smallest keys above `lastV` and sets the bar to the smallest key
//! it did not keep — the (M+1)-th smallest, or none. (A key the bar skips
//! or the full queue rejects already has M smaller keys queued; an ejected
//! key likewise; so the queue keeps the M smallest and the smallest key it
//! turns away is the (M+1)-th.) [`SliceQueue::fill`] therefore finds that
//! cutoff with the Lemma 4.2 kernel (`selection::Smallest` with cap M+1)
//! and slices each run's block at `lastV` and the bar. Phase 2's per-record
//! insert, bar and eject logic is sequential, as in the paper. Every
//! decision, and so every block transfer, lease and output record of the
//! merge, is the one a record-by-record queue makes. Host scratch beyond
//! the modeled leases: the l current blocks (l·B = kM records) and the
//! selection's 2(M+1) keys.

use super::selection::{Key, Smallest};
use asym_model::Record;
use std::cmp::Reverse;

/// The merge keys a record by the Lemma 4.2 kernel's [`Key`], tie-broken
/// by its provenance packed as `run << RUN_SHIFT | offset`, which keeps the
/// order of `(Record, run, offset)` (see `em/mergesort.rs`).
pub(super) const RUN_SHIFT: u32 = 40;

fn merge_key(rec: Record, run: usize, offset: usize) -> Key {
    (rec, run << RUN_SHIFT | offset)
}

/// One run's share of Q: `recs[head..]`, an ascending slice of the run's
/// current block, whose record `recs[i]` sits at offset `base + i` in the
/// run.
#[derive(Default)]
struct Slice {
    recs: Vec<Record>,
    head: usize,
    base: usize,
    /// The slice still reaches the end of the block (no suffix of it was
    /// ejected), so popping its last record moves the run to its next block.
    ends_block: bool,
}

impl Slice {
    /// The first index of the block whose key fails `below`, which holds on
    /// a prefix of the (ascending) block.
    fn first(&self, run: usize, below: impl Fn(Key) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.recs.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if below(merge_key(self.recs[mid], run, self.base + mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// A winner tree over a power-of-two number of leaves: `win[1]` is the leaf
/// with the smallest key, `win[v]` the winner of node v's subtree, and leaf
/// i sits at node `leaves + i`.
struct WinnerTree {
    win: Vec<u32>,
}

impl WinnerTree {
    fn new(leaves: usize) -> Self {
        let win = (0..2 * leaves).map(|v| v.saturating_sub(leaves) as u32);
        Self { win: win.collect() }
    }

    fn top(&self) -> usize {
        self.win[1] as usize
    }

    /// The winner of node `v`'s two children.
    fn play<K: Ord>(&self, keys: &[K], v: usize) -> u32 {
        let (a, b) = (self.win[2 * v], self.win[2 * v + 1]);
        if keys[b as usize] < keys[a as usize] {
            b
        } else {
            a
        }
    }

    /// Replay leaf `i`'s path to the root after its key changed.
    fn update<K: Ord>(&mut self, keys: &[K], i: usize) {
        let mut v = (keys.len() + i) / 2;
        while v > 0 {
            self.win[v] = self.play(keys, v);
            v /= 2;
        }
    }

    /// Replay every node after many keys changed.
    fn rebuild<K: Ord>(&mut self, keys: &[K]) {
        for v in (1..keys.len()).rev() {
            self.win[v] = self.play(keys, v);
        }
    }
}

/// The tree keys of an empty slice (or a padding leaf): the min tree's is
/// above every live `(record, run)`, the max tree's below every live
/// `(record, run + 1)`.
const EMPTY_HEAD: (Record, u32) = (
    Record {
        key: u64::MAX,
        payload: u64::MAX,
    },
    u32::MAX,
);
const EMPTY_TAIL: Reverse<(Record, u32)> = Reverse((Record { key: 0, payload: 0 }, 0));

/// Algorithm 2's queue Q (see the module docs): one [`Slice`] per run,
/// under a min tree over the slices' heads and a max tree over their tails.
/// The head and tail records are cached flat so the trees compare without
/// chasing into the slices.
pub(super) struct SliceQueue {
    slices: Vec<Slice>,
    /// `(head record, run)` per leaf.
    heads: Vec<(Record, u32)>,
    /// `(tail record, run + 1)` per leaf, reversed so that the tree's
    /// smallest key is the largest tail.
    tails: Vec<Reverse<(Record, u32)>>,
    min: WinnerTree,
    max: WinnerTree,
    len: usize,
}

impl SliceQueue {
    pub(super) fn new(runs: usize) -> Self {
        let leaves = runs.next_power_of_two();
        Self {
            slices: (0..runs).map(|_| Slice::default()).collect(),
            heads: vec![EMPTY_HEAD; leaves],
            tails: vec![EMPTY_TAIL; leaves],
            min: WinnerTree::new(leaves),
            max: WinnerTree::new(leaves),
            len: 0,
        }
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Run `r`'s buffer, emptied, to read the block at run offset `base`
    /// into. The run's slice must be empty; the block joins Q through
    /// [`Self::fill`] or [`Self::insert_block`].
    pub(super) fn block_mut(&mut self, r: usize, base: usize) -> &mut Vec<Record> {
        let s = &mut self.slices[r];
        s.recs.clear();
        s.head = 0;
        s.base = base;
        &mut s.recs
    }

    /// Queue `recs[lo..hi]` of run `r`'s block and refresh its cached head
    /// and tail; the trees are the caller's to replay.
    fn keep(&mut self, r: usize, lo: usize, hi: usize) {
        let s = &mut self.slices[r];
        s.ends_block = hi == s.recs.len();
        s.recs.truncate(hi);
        s.head = lo;
        self.len += hi - lo;
        self.cache(r);
    }

    fn cache(&mut self, r: usize) {
        let s = &self.slices[r];
        match (s.recs.get(s.head), s.recs.last()) {
            (Some(&head), Some(&tail)) => {
                self.heads[r] = (head, r as u32);
                self.tails[r] = Reverse((tail, r as u32 + 1));
            }
            _ => {
                self.heads[r] = EMPTY_HEAD;
                self.tails[r] = EMPTY_TAIL;
            }
        }
    }

    fn update(&mut self, r: usize) {
        self.min.update(&self.heads, r);
        self.max.update(&self.tails, r);
    }

    /// Phase 1, once every run's current block is loaded into the empty
    /// queue (an exhausted run's buffer is empty): keep the `m` smallest
    /// keys above `last_v` and return the bar, the smallest key not kept.
    pub(super) fn fill(&mut self, m: usize, last_v: Option<Key>) -> Option<Key> {
        debug_assert!(self.is_empty(), "a round starts with Q empty");
        let mut candidates = 0;
        for (r, s) in self.slices.iter_mut().enumerate() {
            s.head = s.first(r, |key| last_v.is_some_and(|lv| key <= lv));
            candidates += s.recs.len() - s.head;
        }
        let bar = if candidates > m {
            let mut best = Smallest::new(m + 1);
            for (r, s) in self.slices.iter().enumerate() {
                for (i, &rec) in s.recs.iter().enumerate().skip(s.head) {
                    best.offer(merge_key(rec, r, s.base + i));
                }
            }
            best.cutoff()
        } else {
            None
        };
        for r in 0..self.slices.len() {
            let s = &self.slices[r];
            let hi = s.first(r, |key| bar.is_none_or(|b| key < b));
            self.keep(r, s.head, hi);
        }
        self.min.rebuild(&self.heads);
        self.max.rebuild(&self.tails);
        bar
    }

    /// Phase 2's insert of run `r`'s freshly loaded block, record by record
    /// as in the paper: skip keys up to `last_v`, stop at the bar, and into
    /// a full queue of capacity `m` either eject the maximum or reject the
    /// key; the key turned away becomes the bar.
    pub(super) fn insert_block(&mut self, r: usize, m: usize, last_v: Key, bar: &mut Option<Key>) {
        let s = &self.slices[r];
        let lo = s.first(r, |key| key <= last_v);
        let mut hi = lo;
        while let Some(&rec) = self.slices[r].recs.get(hi) {
            let key = merge_key(rec, r, self.slices[r].base + hi);
            if bar.is_some_and(|b| key >= b) {
                break;
            }
            if self.len + (hi - lo) >= m {
                // The block's records queued so far are below `key`, so Q's
                // maximum is the other runs' when that is above `key`. Q lies
                // below the bar, so whatever is turned away is the new bar.
                match self.peek_max() {
                    Some(qmax) if key < qmax => {
                        self.pop_max();
                        *bar = Some(qmax);
                    }
                    _ => {
                        *bar = Some(key);
                        break;
                    }
                }
            }
            hi += 1;
        }
        self.keep(r, lo, hi);
        self.update(r);
    }

    /// Pop the smallest key, and whether it was the last record of its
    /// block.
    pub(super) fn pop_min(&mut self) -> Option<(Key, bool)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let r = self.min.top();
        let s = &mut self.slices[r];
        let key = merge_key(s.recs[s.head], r, s.base + s.head);
        s.head += 1;
        if let Some(&next) = s.recs.get(s.head) {
            self.heads[r] = (next, r as u32);
            self.min.update(&self.heads, r);
            Some((key, false))
        } else {
            let last_in_block = s.ends_block;
            self.cache(r);
            self.update(r);
            Some((key, last_in_block))
        }
    }

    fn peek_max(&self) -> Option<Key> {
        (self.len > 0).then(|| {
            let r = self.max.top();
            let s = &self.slices[r];
            let i = s.recs.len() - 1;
            merge_key(s.recs[i], r, s.base + i)
        })
    }

    fn pop_max(&mut self) -> Option<Key> {
        let key = self.peek_max()?;
        self.len -= 1;
        let r = self.max.top();
        let s = &mut self.slices[r];
        s.recs.pop();
        s.ends_block = false;
        match s.recs.last() {
            Some(&tail) if s.head < s.recs.len() => {
                self.tails[r] = Reverse((tail, r as u32 + 1));
                self.max.update(&self.tails, r);
            }
            _ => {
                self.cache(r);
                self.update(r);
            }
        }
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    type Reference = BTreeMap<(Record, usize, usize), bool>;

    fn unpack(key: Key) -> (Record, usize, usize) {
        (key.0, key.1 >> RUN_SHIFT, key.1 & ((1 << RUN_SHIFT) - 1))
    }

    /// `stream` dealt round-robin into `l` runs, each sorted.
    fn runs_of(stream: &[Record], l: usize) -> Vec<Vec<Record>> {
        let mut runs = vec![Vec::new(); l];
        for (i, &r) in stream.iter().enumerate() {
            runs[i % l].push(r);
        }
        for run in &mut runs {
            run.sort();
        }
        runs
    }

    /// Records from a tiny space when `dup` (4 keys × 3 payloads, so most
    /// are duplicates of one another), distinct records otherwise.
    fn stream(dup: bool) -> impl Strategy<Value = Vec<Record>> {
        prop::collection::vec((0u64..1000, 0u64..3), 0..600).prop_map(move |draws| {
            let record = |(i, (k, p)): (usize, (u64, u64))| {
                if dup {
                    Record::new(k % 4, p)
                } else {
                    Record::new(k, i as u64)
                }
            };
            draws.into_iter().enumerate().map(record).collect()
        })
    }

    /// A queue over `runs` split into blocks of `b`, with every run's first
    /// block queued whole, and the `BTreeMap` reference holding the same
    /// keys, each mapped to whether it ends its block.
    fn queue_and_reference(runs: &[Vec<Record>], b: usize) -> (SliceQueue, Reference) {
        let mut queue = SliceQueue::new(runs.len());
        let mut reference = BTreeMap::new();
        for (r, run) in runs.iter().enumerate() {
            let block = &run[..run.len().min(b)];
            queue.block_mut(r, 0).extend_from_slice(block);
            for (i, &rec) in block.iter().enumerate() {
                reference.insert((rec, r, i), i + 1 == block.len());
            }
        }
        assert_eq!(queue.fill(usize::MAX, None), None);
        (queue, reference)
    }

    /// Load run `r`'s block at `base` after its block-final record popped:
    /// into the queue through the phase-2 insert (capacity never binds), and
    /// into the reference.
    fn load_next(
        queue: &mut SliceQueue,
        reference: &mut Reference,
        run: &[Record],
        (r, b, base): (usize, usize, usize),
        last_v: Key,
    ) {
        let block = &run[base.min(run.len())..(base + b).min(run.len())];
        queue.block_mut(r, base).extend_from_slice(block);
        let mut bar = None;
        queue.insert_block(r, usize::MAX, last_v, &mut bar);
        assert_eq!(bar, None);
        for (i, &rec) in block.iter().enumerate() {
            reference.insert((rec, r, base + i), i + 1 == block.len());
        }
    }

    /// Random interleavings of pop-min, pop-max and peek-max (`ops`, cycled)
    /// agree with the reference's pop_first, pop_last and last key, and lose
    /// no record: what is popped plus what is left is every record loaded.
    fn interleave(runs: &[Vec<Record>], b: usize, ops: &[u8]) {
        let (mut q, mut reference) = queue_and_reference(runs, b);
        let (mut loaded, mut popped) = (reference.len(), 0);
        let total: usize = runs.iter().map(Vec::len).sum();
        for op in ops.iter().cycle().take(2 * total + 1) {
            match op {
                0 => {
                    let got = q.pop_min();
                    let want = reference.pop_first();
                    prop_assert_eq!(got.map(|(k, last)| (unpack(k), last)), want);
                    if let Some((key, last)) = got {
                        popped += 1;
                        if last {
                            let (_, r, offset) = unpack(key);
                            let before = reference.len();
                            let at = (r, b, offset + 1);
                            load_next(&mut q, &mut reference, &runs[r], at, key);
                            loaded += reference.len() - before;
                        }
                    }
                }
                1 => {
                    let got = q.pop_max();
                    prop_assert_eq!(got.map(unpack), reference.pop_last().map(|(k, _)| k));
                    popped += usize::from(got.is_some());
                }
                _ => {
                    let want = reference.last_key_value().map(|(&k, _)| k);
                    prop_assert_eq!(q.peek_max().map(unpack), want);
                }
            }
            prop_assert_eq!(q.len, reference.len());
        }
        prop_assert_eq!(loaded, popped + q.len);
    }

    #[test]
    fn min_and_max_of_small_queues() {
        let rec = Record::keyed;
        let runs = vec![vec![rec(2), rec(5)], vec![], vec![rec(1), rec(5), rec(9)]];
        let (mut q, _) = queue_and_reference(&runs, 4);
        assert_eq!(q.len, 5);
        assert_eq!(q.peek_max(), Some(merge_key(rec(9), 2, 2)));
        assert_eq!(q.pop_max(), Some(merge_key(rec(9), 2, 2)));
        // Equal records: the higher run is the larger key.
        assert_eq!(q.pop_max(), Some(merge_key(rec(5), 2, 1)));
        // Run 2 lost its block's tail, so its last record no longer ends
        // the block; run 0's still does.
        assert_eq!(q.pop_min(), Some((merge_key(rec(1), 2, 0), false)));
        assert_eq!(q.pop_min(), Some((merge_key(rec(2), 0, 0), false)));
        assert_eq!(q.pop_min(), Some((merge_key(rec(5), 0, 1), true)));
        assert!(q.is_empty());
        assert_eq!((q.pop_min(), q.peek_max(), q.pop_max()), (None, None, None));
    }

    /// Pop-max over the first blocks of three runs yields exactly the
    /// queued records, largest first, and then leaves nothing to pop-min.
    #[test]
    fn descending_drain_matches_reverse_sorted_input() {
        let keys = [9u64, 2, 40, 17, 1, 33, 25, 8, 16, 4];
        let stream: Vec<Record> = keys.iter().map(|&k| Record::keyed(k)).collect();
        let runs = runs_of(&stream, 3);
        for b in [1, 2, 4] {
            let (mut q, _) = queue_and_reference(&runs, b);
            let mut expect: Vec<u64> = runs
                .iter()
                .flat_map(|run| &run[..b.min(run.len())])
                .map(|r| r.key)
                .collect();
            expect.sort_unstable_by(|x, y| y.cmp(x));
            let mut drained = Vec::new();
            while let Some(key) = q.pop_max() {
                drained.push(key.0.key);
            }
            assert_eq!(drained, expect, "b={b}");
            assert_eq!(q.pop_min(), None);
        }
    }

    /// Every popped key's implicit provenance (run, offset) names the slot
    /// its record came from, and a pop-min flags the last record of a block
    /// only at a block end — never once an ejection cut the block's tail.
    #[test]
    fn payloads_travel_with_their_records() {
        let b = 4;
        let runs: Vec<Vec<Record>> = (0..3)
            .map(|r| {
                let mut run: Vec<Record> = (0..10)
                    .map(|i| Record::new((7 * i + 3 * r) % 13, 100 * r + i))
                    .collect();
                run.sort();
                run
            })
            .collect();
        let (mut q, mut reference) = queue_and_reference(&runs, b);
        let mut ejected = [false; 3];
        for step in 0.. {
            let (key, last) = if step % 3 == 2 {
                let Some(key) = q.pop_max() else { break };
                ejected[unpack(key).1] = true;
                (key, false)
            } else {
                let Some(popped) = q.pop_min() else { break };
                popped
            };
            let (rec, r, offset) = unpack(key);
            assert_eq!(runs[r][offset], rec, "step {step}: provenance");
            let block_end = (offset + 1) % b == 0 || offset + 1 == runs[r].len();
            assert_eq!(
                last,
                block_end && !ejected[r],
                "step {step}: last-in-block of {rec:?}"
            );
            if last {
                ejected[r] = false;
                load_next(&mut q, &mut reference, &runs[r], (r, b, offset + 1), key);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Draining mins pops the reference's keys in order — the stable
        /// sort — and flags exactly the block-final records, loading each
        /// run's next block on them, until every record is out.
        #[test]
        fn ascending_drain_matches_sorted_input(
            dup in any::<bool>(),
            distinct in stream(false),
            geom in (1usize..9, 1usize..9),
        ) {
            let (l, b) = geom;
            let stream: Vec<Record> = if dup {
                distinct.iter().map(|r| Record::new(r.key % 4, r.key / 4 % 3)).collect()
            } else {
                distinct
            };
            let runs = runs_of(&stream, l);
            let (mut q, mut reference) = queue_and_reference(&runs, b);
            let mut drained = Vec::new();
            while let Some((key, last)) = q.pop_min() {
                let (want, want_last) = reference.pop_first().expect("reference non-empty");
                prop_assert_eq!((unpack(key), last), (want, want_last));
                drained.push(key.0);
                if last {
                    let (_, r, offset) = unpack(key);
                    load_next(&mut q, &mut reference, &runs[r], (r, b, offset + 1), key);
                }
            }
            prop_assert!(reference.is_empty());
            let mut expect = stream.clone();
            expect.sort();
            prop_assert_eq!(drained, expect);
        }

        /// Distinct records: the queue agrees with the `BTreeMap` reference
        /// operation for operation.
        #[test]
        fn matches_btreemap_reference_under_random_interleavings(
            stream in stream(false),
            ops in prop::collection::vec(0u8..3, 1..600),
            geom in (1usize..9, 1usize..9),
        ) {
            interleave(&runs_of(&stream, geom.0), geom.1, &ops);
        }

        /// Duplicate-heavy records: only the implicit `(run, offset)` keeps
        /// the keys distinct, and the queue still agrees with the reference
        /// and loses no record.
        #[test]
        fn duplicate_records_with_seq_keys_match_btreemap_reference(
            stream in stream(true),
            ops in prop::collection::vec(0u8..3, 1..600),
            geom in (1usize..9, 1usize..9),
        ) {
            interleave(&runs_of(&stream, geom.0), geom.1, &ops);
        }
    }
}
