//! Algorithm 2's queue Q, stored in the one shape it ever has.
//!
//! Q is never a general priority queue: for each run it holds an ascending
//! contiguous slice of that run's *current* block. Q is empty when a round
//! starts; a run's next block is loaded only when its block-final record is
//! popped as the minimum (so the run's slice is empty then); pops take a
//! run's prefix and ejections take a run's suffix. So each run keeps the
//! block it holds, the slice bounds within it, and whether the slice still
//! ends the block, and two tournament trees over the l runs give the
//! smallest head and the largest tail. A record's provenance is implicit
//! (its run is the tree leaf, its offset the slice position), and "last in
//! block" means the slice ended the block and is now empty.
//!
//! The min side is popped once per record, so it is a loser tree: each
//! inner node keeps the loser of the match there, key and all, and a pop
//! replays only the champion's path, comparing the rising winner with one
//! stored loser per level. The nodes it reads are fixed by the path, not by
//! the comparisons, and each compare is one branch-free `u128` test; the
//! swap keeps one branch, since a masked swap measured slower on uniform
//! merges. Two states of a leaf are settled lazily, since only the
//! champion's path can be replayed:
//!
//! * a *pending champion*: a pop that empties the champion's slice does
//!   not replay it. [`SliceQueue::insert_block`] replays it once the run's
//!   next block is in (the run is still the champion then), and the next
//!   pop replays it as empty if no block comes (the run is exhausted, or an
//!   ejection had cut its block's tail);
//! * a *stale head*: a phase-2 ejection that empties a slice leaves the
//!   slice's last head cached in the tree. The slice gets no block for the
//!   rest of the round, so the head stays until it surfaces as champion,
//!   and that pop drops it then.
//!
//! A pop therefore takes the first champion whose slice is non-empty; every
//! non-empty slice's head is cached exactly, so that champion is Q's
//! minimum (a `debug_assert` checks it against every slice). The max side
//! is touched once per block or ejection, not once per record, and stays a
//! winner tree: peek-max is its top, and pop-max replays one path.
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
    /// The min-tree key of the slice's head.
    fn entry(&self, run: usize) -> Entry {
        self.recs
            .get(self.head)
            .map_or(Entry::empty(run), |&h| Entry::live(h, run))
    }

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

/// A min-tree key: `(head record, run)` of a slice, as one `u128` of key
/// and payload and a `tie` holding the run. An empty slice (or a padding
/// leaf) also sets bit 32 of `tie`, so it loses to every live key, a
/// `(u64::MAX, u64::MAX)` record included, and still names its run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    wide: u128,
    tie: u64,
}

impl Entry {
    fn live(rec: Record, run: usize) -> Self {
        Self {
            wide: u128::from(rec.key) << 64 | u128::from(rec.payload),
            tie: run as u64,
        }
    }

    fn empty(run: usize) -> Self {
        Self {
            wide: u128::MAX,
            tie: 1 << 32 | run as u64,
        }
    }

    /// The record of a live entry.
    fn record(self) -> Record {
        Record::new((self.wide >> 64) as u64, self.wide as u64)
    }

    /// The run, which is the entry's leaf.
    fn run(self) -> usize {
        self.tie as u32 as usize
    }

    /// `self < other` in `(record, run)` order, without branches.
    #[inline(always)]
    fn less(self, other: Entry) -> bool {
        (self.wide < other.wide) | ((self.wide == other.wide) & (self.tie < other.tie))
    }
}

/// A loser tree over a power-of-two number of leaves, each node holding an
/// entry, key and all: `node[0]` is the champion (the smallest entry), and
/// `node[v]` for an inner node v the loser of the match there. Leaf i sits
/// below node `(leaves + i) / 2`. Only the champion's path is ever
/// replayed.
struct LoserTree {
    node: Vec<Entry>,
    /// Scratch for [`Self::rebuild`]: the winner of each node's subtree,
    /// leaf i's entry at `leaves + i`.
    win: Vec<Entry>,
}

impl LoserTree {
    fn new(leaves: usize) -> Self {
        Self {
            node: (0..leaves).map(Entry::empty).collect(),
            win: vec![Entry::empty(0); 2 * leaves],
        }
    }

    fn champion(&self) -> Entry {
        self.node[0]
    }

    /// Play every match, bottom up, over the leaves' entries `leaf(i)`.
    fn rebuild(&mut self, leaf: impl Fn(usize) -> Entry) {
        let leaves = self.node.len();
        for i in 0..leaves {
            self.win[leaves + i] = leaf(i);
        }
        for v in (1..leaves).rev() {
            let (a, b) = (self.win[2 * v], self.win[2 * v + 1]);
            let (winner, loser) = if b.less(a) { (b, a) } else { (a, b) };
            self.win[v] = winner;
            self.node[v] = loser;
        }
        self.node[0] = self.win[1];
    }

    /// Replay the champion's path with its new entry `win` (same run): at
    /// each node the rising winner meets the stored loser, and the larger
    /// stays. The nodes read are fixed by the path, and the compare is
    /// one branch-free `u128` test.
    #[inline(always)]
    fn replay(&mut self, mut win: Entry) {
        debug_assert_eq!(
            win.run(),
            self.champion().run(),
            "only the champion replays"
        );
        let mut v = (self.node.len() + win.run()) / 2;
        while v > 0 {
            let other = self.node[v];
            if other.less(win) {
                self.node[v] = win;
                win = other;
            }
            v /= 2;
        }
        self.node[0] = win;
    }
}

/// The max tree's key of an empty slice (or a padding leaf): below every
/// live `(record, run + 1)`.
const EMPTY_TAIL: Reverse<(Record, u32)> = Reverse((Record { key: 0, payload: 0 }, 0));

/// Algorithm 2's queue Q (see the module docs): one [`Slice`] per run,
/// under a min loser tree over the slices' heads and a max winner tree over
/// their tails. The loser tree holds the heads in its nodes, and the tails
/// are cached flat, so neither tree chases into the slices.
pub(super) struct SliceQueue {
    slices: Vec<Slice>,
    /// `(tail record, run + 1)` per leaf, reversed so that the tree's
    /// smallest key is the largest tail.
    tails: Vec<Reverse<(Record, u32)>>,
    min: LoserTree,
    max: WinnerTree,
    len: usize,
}

impl SliceQueue {
    pub(super) fn new(runs: usize) -> Self {
        let leaves = runs.next_power_of_two();
        Self {
            slices: (0..runs).map(|_| Slice::default()).collect(),
            tails: vec![EMPTY_TAIL; leaves],
            min: LoserTree::new(leaves),
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

    /// Queue `recs[lo..hi]` of run `r`'s block and refresh its cached
    /// tail; the trees are the caller's to replay.
    fn keep(&mut self, r: usize, lo: usize, hi: usize) {
        let s = &mut self.slices[r];
        s.ends_block = hi == s.recs.len();
        s.recs.truncate(hi);
        s.head = lo;
        self.len += hi - lo;
        self.tails[r] = match s.recs.last() {
            Some(&tail) if lo < hi => Reverse((tail, r as u32 + 1)),
            _ => EMPTY_TAIL,
        };
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
        let slices = &self.slices;
        self.min
            .rebuild(|r| slices.get(r).map_or(Entry::empty(r), |s| s.entry(r)));
        self.max.rebuild(&self.tails);
        bar
    }

    /// Phase 2's insert of run `r`'s freshly loaded block, record by record
    /// as in the paper: skip keys up to `last_v`, stop at the bar, and into
    /// a full queue of capacity `m` either eject the maximum or reject the
    /// key; the key turned away becomes the bar. Run `r` is the pending
    /// champion: its block-final record was the last pop.
    pub(super) fn insert_block(&mut self, r: usize, m: usize, last_v: Key, bar: &mut Option<Key>) {
        debug_assert_eq!(
            self.min.champion().run(),
            r,
            "only the champion's run loads a block"
        );
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
        self.min.replay(self.slices[r].entry(r));
        self.max.update(&self.tails, r);
    }

    /// Pop the smallest key, and whether it was the last record of its
    /// block. A pop that empties the slice leaves the run the pending
    /// champion (see the module docs).
    pub(super) fn pop_min(&mut self) -> Option<(Key, bool)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let top = self.live_champion();
        let r = top.run();
        let s = &mut self.slices[r];
        let key = merge_key(top.record(), r, s.base + s.head);
        s.head += 1;
        if let Some(&next) = s.recs.get(s.head) {
            self.min.replay(Entry::live(next, r));
            Some((key, false))
        } else {
            let last_in_block = s.ends_block;
            self.tails[r] = EMPTY_TAIL;
            self.max.update(&self.tails, r);
            Some((key, last_in_block))
        }
    }

    /// The champion once every empty slice that surfaces is dropped: a
    /// pending champion whose block never came, or a stale head. Q must
    /// not be empty; every non-empty slice's head is in the tree exactly,
    /// so one of them surfaces.
    fn live_champion(&mut self) -> Entry {
        loop {
            let top = self.min.champion();
            let r = top.run();
            let s = &self.slices[r];
            if s.head < s.recs.len() {
                debug_assert!(self.champion_is_min(r), "run {r} is not Q's minimum");
                return top;
            }
            self.min.replay(Entry::empty(r));
        }
    }

    /// The champion invariant: the champion is run `r`'s slice head, and no
    /// other non-empty slice's head is smaller.
    fn champion_is_min(&self, r: usize) -> bool {
        let top = self.min.champion();
        top == self.slices[r].entry(r)
            && self
                .slices
                .iter()
                .enumerate()
                .all(|(i, s)| !s.entry(i).less(top))
    }

    fn peek_max(&self) -> Option<Key> {
        (self.len > 0).then(|| {
            let r = self.max.top();
            let s = &self.slices[r];
            let i = s.recs.len() - 1;
            merge_key(s.recs[i], r, s.base + i)
        })
    }

    /// Eject the largest key. A slice this empties keeps its head in the
    /// min tree, stale, until it surfaces as champion.
    fn pop_max(&mut self) -> Option<Key> {
        let key = self.peek_max()?;
        self.len -= 1;
        let r = self.max.top();
        let s = &mut self.slices[r];
        s.recs.pop();
        s.ends_block = false;
        self.tails[r] = match s.recs.last() {
            Some(&tail) if s.head < s.recs.len() => Reverse((tail, r as u32 + 1)),
            _ => EMPTY_TAIL,
        };
        self.max.update(&self.tails, r);
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

    /// Run `ops` on a queue over `runs` (blocks of `b`) and on the
    /// reference, checking every result: `n` pops the minimum and, when it
    /// ends its block, loads the run's next block, or none if the run is
    /// exhausted (as the merge does); `x` pops the maximum. Returns the
    /// keys popped, in order.
    fn script(runs: &[Vec<Record>], b: usize, ops: &str) -> Vec<u64> {
        let (mut q, mut reference) = queue_and_reference(runs, b);
        let mut popped = Vec::new();
        for op in ops.chars() {
            let key = match op {
                'n' => {
                    let got = q.pop_min();
                    let want = reference.pop_first();
                    assert_eq!(got.map(|(k, last)| (unpack(k), last)), want, "{ops}");
                    let (key, last) = got.expect("script pops a non-empty queue");
                    let (_, r, offset) = unpack(key);
                    if last && offset + 1 < runs[r].len() {
                        load_next(&mut q, &mut reference, &runs[r], (r, b, offset + 1), key);
                    }
                    key
                }
                'x' => {
                    let got = q.pop_max();
                    assert_eq!(got.map(unpack), reference.pop_last().map(|(k, _)| k));
                    got.expect("script pops a non-empty queue")
                }
                _ => unreachable!("unknown op {op}"),
            };
            popped.push(key.0.key);
            assert_eq!(q.len, reference.len());
        }
        popped
    }

    /// Ejections empty run 0's slice, whose stale head (10) stays in the
    /// min tree; run 1's next block lies above it, so the stale head
    /// surfaces as champion and is dropped rather than popped.
    #[test]
    fn an_ejected_slice_surfaces_as_champion_and_is_dropped() {
        let rec = Record::keyed;
        let runs = vec![
            vec![rec(10), rec(11)],
            vec![rec(1), rec(2), rec(20), rec(21)],
        ];
        assert_eq!(script(&runs, 2, "xxnnnn"), [11, 10, 1, 2, 20, 21]);
        // The same with the stale run below a pending champion, and three
        // runs so the stale leaf is not the champion's sibling.
        let runs = vec![
            vec![rec(1), rec(2), rec(30)],
            vec![rec(10), rec(12)],
            vec![rec(5), rec(6), rec(40)],
        ];
        assert_eq!(script(&runs, 2, "xxnnnnn"), [12, 10, 1, 2, 5, 6, 30]);
    }

    /// A block-final pop of an exhausted run loads nothing: the run stays
    /// the pending champion until the next pop replays it as empty, with
    /// an ejection in between or not.
    #[test]
    fn an_exhausted_champion_is_replayed_at_the_next_pop() {
        let rec = Record::keyed;
        let runs = vec![
            vec![rec(1), rec(2)],
            vec![rec(3), rec(4), rec(5), rec(6)],
            vec![],
        ];
        assert_eq!(script(&runs, 2, "nnnnnn"), [1, 2, 3, 4, 5, 6]);
        assert_eq!(script(&runs, 2, "nnxn"), [1, 2, 4, 3]);
        // An ejection cut run 0's tail, so its last pop ends no block and
        // loads nothing either.
        let runs = vec![vec![rec(1), rec(9), rec(10)], vec![rec(3), rec(4)]];
        assert_eq!(script(&runs, 2, "xnnn"), [9, 1, 3, 4]);
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
