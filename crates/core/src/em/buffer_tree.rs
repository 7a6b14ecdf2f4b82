//! §4.3.1–2 — the buffer tree with branching factor l = kM/B.
//!
//! An (a, b)-tree with a = l/4, b = l whose every node carries an unsorted
//! *buffer* of partially-inserted records. Inserts append to the root's
//! buffer (the last partial block stays in memory, per Theorem 4.7); a full
//! buffer (≥ lB = kM records) is *emptied*: its first ≤ lB records are
//! sorted with the Lemma 4.2 selection sort, merged with the sorted suffix
//! left by the most recent parent distribution, and distributed to the
//! children — cascading while any child is full. Full leaves then absorb
//! their buffers and split, with (a, b) splits cascading upward.
//!
//! For the priority queue (§4.3.3) the tree supports two extra operations:
//! emptying every buffer on the root-to-leftmost-leaf path and *deleting the
//! leftmost leaf*, returning its records. Deleting a leaf can underflow its
//! ancestors; the standard (a, b) repair (borrow from or fuse with the right
//! sibling — whose buffer is emptied first so routing stays consistent)
//! restores the invariants. General deletions are out of scope, exactly as
//! in the paper.
//!
//! Node routing tables (≤ l−1 separator records plus child pointers) are
//! held in host memory and their transfers charged explicitly at ⌈c/B⌉
//! blocks per load/store, matching the model's accounting.
//!
//! The record loops (the full-buffer scan, the distribution, the leaf merge
//! and the chop) read runs a block at a time: `RunsReader` exposes the
//! unread rest of the current block as a slice, and each loop writes
//! through one `RunWriter` whose store buffer serves every run it emits.
//! Their reads, writes and releases come in the same order as a
//! record-at-a-time loop's; `tests/trace_golden.rs` pins that order.
//! Dropping the tree releases every block it still holds.
//!
//! **Duplicate records.** Records need not be unique: routing is
//! equal-goes-left (a record equal to a separator routes to the child left
//! of it), separators may repeat when a duplicate-heavy run is chopped
//! mid-twin, and the buffer selection sort is the shared Lemma 4.2 kernel
//! (`em/selection.rs`), whose scan-index tie-break keeps identical
//! records through multi-pass extraction. Every path is count-preserving.

use super::selection::selection_passes;
use asym_model::{ModelError, Record, Result};
use em_sim::{BlockId, EmMachine};

/// A contiguous sequence of records stored in dense blocks (the last block
/// may be partial). `sorted` records whether the run is known to be sorted.
#[derive(Debug, Default)]
pub struct Run {
    blocks: Vec<BlockId>,
    len: usize,
    sorted: bool,
}

impl Run {
    fn empty() -> Run {
        Run::default()
    }

    /// Number of records in the run.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn free(self, machine: &EmMachine) {
        for b in self.blocks {
            machine.release_block(b).expect("live run block");
        }
    }

    /// Charged sequential read of all records (one reused load buffer).
    fn read_all(&self, machine: &EmMachine) -> Result<Vec<Record>> {
        let mut out = Vec::with_capacity(self.len);
        let mut buf = Vec::with_capacity(machine.b());
        for &b in &self.blocks {
            machine.read_block_into(b, &mut buf)?;
            out.extend_from_slice(&buf);
        }
        out.truncate(self.len);
        Ok(out)
    }
}

/// A node's buffer: a list of appended runs.
#[derive(Debug, Default)]
struct Buffer {
    runs: Vec<Run>,
    total: usize,
}

impl Buffer {
    fn push_run(&mut self, run: Run) {
        if run.len == 0 {
            return;
        }
        self.total += run.len;
        self.runs.push(run);
    }

    fn take(&mut self) -> Vec<Run> {
        self.total = 0;
        std::mem::take(&mut self.runs)
    }
}

type NodeId = usize;

#[derive(Debug)]
enum NodeKind {
    Internal {
        children: Vec<NodeId>,
        /// `seps[i]` separates `children[i]` (keys ≤ sep) from
        /// `children[i+1]`; length = children.len() − 1.
        seps: Vec<Record>,
    },
    Leaf {
        /// Sorted resident records.
        data: Run,
    },
}

#[derive(Debug)]
struct Node {
    kind: NodeKind,
    buffer: Buffer,
}

/// The AEM buffer tree.
pub struct BufferTree {
    machine: EmMachine,
    /// Branching factor l = kM/B.
    l: usize,
    /// Buffer-full and leaf-max threshold lB = kM records.
    cap: usize,
    nodes: Vec<Option<Node>>,
    free_ids: Vec<NodeId>,
    root: NodeId,
    len: usize,
    /// In-memory tail of the root buffer: fewer than B records between
    /// calls. It takes no lease; its one block is budgeted by `pq_slack`.
    /// An insert that fills it flushes it to the root buffer before any
    /// cascade, and `pop_leftmost_leaf` flushes it first, so it is empty
    /// whenever a buffer is emptied.
    root_tail: Vec<Record>,
}

impl BufferTree {
    /// An empty tree on `machine` with write-saving factor `k`. Requires
    /// kM/B ≥ 8 so that a = l/4 ≥ 2.
    pub fn new(machine: EmMachine, k: usize) -> Result<Self> {
        let l = k * machine.m() / machine.b();
        if l < 8 {
            return Err(ModelError::Invariant(format!(
                "buffer tree needs branching factor kM/B >= 8, got {l}"
            )));
        }
        let cap = l * machine.b(); // = kM
        let root_node = Node {
            kind: NodeKind::Leaf { data: Run::empty() },
            buffer: Buffer::default(),
        };
        let root_tail = Vec::with_capacity(machine.b());
        Ok(Self {
            machine,
            l,
            cap,
            nodes: vec![Some(root_node)],
            free_ids: Vec::new(),
            root: 0,
            len: 0,
            root_tail,
        })
    }

    /// Total records stored (buffered or resident).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn node(&self, id: NodeId) -> &Node {
        self.nodes[id].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id].as_mut().expect("live node")
    }

    fn alloc_node(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free_ids.pop() {
            self.nodes[id] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    fn free_node(&mut self, id: NodeId) {
        self.nodes[id] = None;
        self.free_ids.push(id);
    }

    /// Charge the model cost of loading or storing a node's routing table.
    fn charge_routing(&self, children: usize, write: bool) {
        let blocks = children.div_ceil(self.machine.b()) as u64;
        if write {
            self.machine.charge_writes(blocks);
        } else {
            self.machine.charge_reads(blocks);
        }
    }

    // ---- insertion ------------------------------------------------------------

    /// Insert a record: append to the root buffer; empty cascades when full.
    pub fn insert(&mut self, r: Record) -> Result<()> {
        self.len += 1;
        self.root_tail.push(r);
        if self.root_tail.len() == self.machine.b() {
            self.flush_root_tail()?;
            if self.node(self.root).buffer.total >= self.cap {
                self.empty_full_cascade(self.root)?;
            }
        }
        Ok(())
    }

    /// Write the in-memory root-buffer tail out as a block.
    fn flush_root_tail(&mut self) -> Result<()> {
        if self.root_tail.is_empty() {
            return Ok(());
        }
        let len = self.root_tail.len();
        let sorted = self.root_tail.windows(2).all(|w| w[0] <= w[1]);
        let block = self.machine.append_block_from(&self.root_tail);
        self.root_tail.clear();
        let run = Run {
            blocks: vec![block],
            len,
            sorted,
        };
        let root = self.root;
        self.node_mut(root).buffer.push_run(run);
        Ok(())
    }

    /// Empty `start`'s buffer and cascade through all full descendants
    /// (phase 1), then absorb and split all full leaves (phase 2).
    fn empty_full_cascade(&mut self, start: NodeId) -> Result<()> {
        let mut full_internal = vec![start];
        let mut full_leaves: Vec<NodeId> = Vec::new();
        // A leaf passed directly (start may be the root leaf).
        if matches!(self.node(start).kind, NodeKind::Leaf { .. }) {
            full_internal.clear();
            full_leaves.push(start);
        }
        while let Some(x) = full_internal.pop() {
            self.empty_internal(x, &mut full_internal, &mut full_leaves)?;
        }
        // Phase 2: leaves. Absorbing a leaf can split ancestors but never
        // creates new full buffers (splits move resident data, not buffers).
        while let Some(leaf) = full_leaves.pop() {
            self.absorb_leaf_buffer(leaf)?;
        }
        Ok(())
    }

    /// Sort and distribute one internal node's buffer to its children.
    fn empty_internal(
        &mut self,
        x: NodeId,
        full_internal: &mut Vec<NodeId>,
        full_leaves: &mut Vec<NodeId>,
    ) -> Result<()> {
        debug_assert!(matches!(self.node(x).kind, NodeKind::Internal { .. }));
        let runs = self.node_mut(x).buffer.take();
        if runs.is_empty() {
            return Ok(());
        }
        let merged = self.sort_runs(runs)?;
        // Load the routing table.
        let (children, seps) = match &self.node(x).kind {
            NodeKind::Internal { children, seps } => (children.clone(), seps.clone()),
            NodeKind::Leaf { .. } => unreachable!(),
        };
        self.charge_routing(children.len(), false);
        // Distribute, merging the (≤ 2) sorted runs on the fly: records
        // ≤ seps[i] go to children[i]. One writer serves every child in turn.
        let machine = &self.machine;
        let mut per_child: Vec<Run> = Vec::with_capacity(children.len());
        let mut writer = RunWriter::new(machine);
        merge_sorted(machine, &merged, |r| {
            while seps.get(per_child.len()).is_some_and(|sep| r > *sep) {
                per_child.push(writer.take_run(machine));
            }
            writer.push(machine, r);
        })?;
        per_child.push(writer.take_run(machine));
        while per_child.len() < children.len() {
            per_child.push(Run::empty());
        }
        for run in merged {
            run.free(&self.machine);
        }
        // Append each child's new run and enqueue newly full children.
        for (i, run) in per_child.into_iter().enumerate() {
            let child = children[i];
            self.node_mut(child).buffer.push_run(run);
            if self.node(child).buffer.total >= self.cap {
                match self.node(child).kind {
                    NodeKind::Internal { .. } => {
                        if !full_internal.contains(&child) {
                            full_internal.push(child);
                        }
                    }
                    NodeKind::Leaf { .. } => {
                        if !full_leaves.contains(&child) {
                            full_leaves.push(child);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Turn a buffer's runs into one or two sorted runs: the trailing sorted
    /// run (left by the most recent distribution) is kept as-is; everything
    /// before it is selection-sorted (Lemma 4.2: ⌈n/M⌉ scan passes, one
    /// write pass) into a single run.
    fn sort_runs(&mut self, mut runs: Vec<Run>) -> Result<Vec<Run>> {
        let suffix = match runs.last() {
            Some(r) if r.sorted && runs.len() > 1 => runs.pop(),
            Some(r) if r.sorted && runs.len() == 1 => {
                // A single sorted run needs no sorting at all.
                return Ok(vec![runs.pop().unwrap()]);
            }
            _ => None,
        };
        let machine = &self.machine;
        let n = runs.iter().map(Run::len).sum();
        let _set_lease = machine.lease(machine.m())?;
        let mut writer = RunWriter::new(machine);
        let prefix: &[Run] = &runs;
        let scan = |visit: &mut dyn FnMut(&[Record])| {
            let mut reader = RunsReader::new(machine, prefix);
            loop {
                let block = reader.fill()?;
                if block.is_empty() {
                    return Ok(());
                }
                visit(block);
                reader.pos += block.len();
            }
        };
        selection_passes(machine.m(), n, scan, |sorted| {
            writer.extend(machine, sorted)
        })?;
        let prefix_sorted = writer.take_run(machine);
        for r in runs {
            r.free(machine);
        }
        let mut out = vec![prefix_sorted];
        if let Some(s) = suffix {
            out.push(s);
        }
        Ok(out)
    }

    /// Phase 2 for one leaf: sort its buffer, merge into the resident data,
    /// split if over capacity, and cascade (a,b) splits upward.
    fn absorb_leaf_buffer(&mut self, leaf: NodeId) -> Result<()> {
        let runs = self.node_mut(leaf).buffer.take();
        if runs.is_empty() {
            return Ok(());
        }
        let sorted = self.sort_runs(runs)?;
        // Merge the (≤2) sorted buffer runs with the resident data.
        let data = match &mut self.node_mut(leaf).kind {
            NodeKind::Leaf { data } => std::mem::take(data),
            NodeKind::Internal { .. } => unreachable!("phase 2 operates on leaves"),
        };
        let mut streams = sorted;
        streams.push(data);
        let merged = self.merge_runs(&streams)?;
        for s in streams {
            s.free(&self.machine);
        }
        if merged.len <= self.cap {
            match &mut self.node_mut(leaf).kind {
                NodeKind::Leaf { data } => *data = merged,
                NodeKind::Internal { .. } => unreachable!(),
            }
            return Ok(());
        }
        self.split_leaf(leaf, merged)
    }

    /// K-way merge of sorted runs into one run (streams one block per run;
    /// run counts here are ≤ 3, well within memory).
    fn merge_runs(&self, runs: &[Run]) -> Result<Run> {
        let machine = &self.machine;
        let _lease = machine.lease(runs.len() * machine.b())?;
        let mut writer = RunWriter::new(machine);
        merge_sorted(machine, runs, |r| writer.push(machine, r))?;
        Ok(writer.take_run(machine))
    }

    /// Split an over-full leaf into pieces of ≈ lB/2 records and insert the
    /// new leaves into the parent chain, splitting internal nodes as needed.
    fn split_leaf(&mut self, leaf: NodeId, merged: Run) -> Result<()> {
        let pieces = self.chop_run(merged)?;
        debug_assert!(pieces.len() >= 2);
        // Collect (separator, node) for the replacement leaves. The
        // separator after piece i is its largest record.
        let mut new_leaves: Vec<(Record, NodeId)> = Vec::with_capacity(pieces.len());
        for (max_rec, run) in pieces {
            let id = self.alloc_node(Node {
                kind: NodeKind::Leaf { data: run },
                buffer: Buffer::default(),
            });
            new_leaves.push((max_rec, id));
        }
        // Reuse the original leaf id for the first piece so the parent's
        // child pointer stays valid.
        let (_, first_new) = new_leaves[0];
        let first_node = self.nodes[first_new].take().expect("fresh node");
        self.free_ids.push(first_new);
        *self.node_mut(leaf) = first_node;
        new_leaves[0].1 = leaf;

        self.replace_in_parent(leaf, new_leaves)
    }

    /// Chop a sorted run into pieces of between lB/4 and lB records,
    /// returning (max record, run) per piece. Costs one read+write pass.
    fn chop_run(&self, merged: Run) -> Result<Vec<(Record, Run)>> {
        let total = merged.len;
        let half = (self.cap / 2).max(1);
        let num = total.div_ceil(half).max(2);
        let base = total / num;
        let extra = total % num;
        let machine = &self.machine;
        let mut out = Vec::with_capacity(num);
        let mut reader = RunsReader::new(machine, std::slice::from_ref(&merged));
        let mut writer = RunWriter::new(machine);
        for i in 0..num {
            let mut need = base + usize::from(i < extra);
            let mut last = None;
            while need > 0 {
                let block = reader.fill()?;
                let take = need.min(block.len());
                assert!(take > 0, "size accounting");
                writer.extend(machine, &block[..take]);
                last = Some(block[take - 1]);
                reader.pos += take;
                need -= take;
            }
            out.push((last.expect("non-empty piece"), writer.take_run(machine)));
        }
        drop(reader);
        merged.free(&self.machine);
        Ok(out)
    }

    /// Replace child `old` of its parent with `replacements` (in key order),
    /// splitting ancestors whose child counts exceed l.
    fn replace_in_parent(
        &mut self,
        old: NodeId,
        replacements: Vec<(Record, NodeId)>,
    ) -> Result<()> {
        let parent = self.find_parent(self.root, old);
        match parent {
            None => {
                // `old` is the root: build a new internal root.
                let children: Vec<NodeId> = replacements.iter().map(|&(_, id)| id).collect();
                let seps: Vec<Record> = replacements[..replacements.len() - 1]
                    .iter()
                    .map(|&(sep, _)| sep)
                    .collect();
                self.charge_routing(children.len(), true);
                let new_root = self.alloc_node(Node {
                    kind: NodeKind::Internal { children, seps },
                    buffer: Buffer::default(),
                });
                self.root = new_root;
                self.maybe_split_internal(new_root)
            }
            Some(p) => {
                let (children, seps) = match &mut self.node_mut(p).kind {
                    NodeKind::Internal { children, seps } => (children, seps),
                    NodeKind::Leaf { .. } => unreachable!("parent must be internal"),
                };
                let pos = children.iter().position(|&c| c == old).expect("child");
                children.splice(pos..=pos, replacements.iter().map(|&(_, id)| id));
                // New separators go between the replacement pieces.
                let new_seps: Vec<Record> = replacements[..replacements.len() - 1]
                    .iter()
                    .map(|&(sep, _)| sep)
                    .collect();
                seps.splice(pos..pos, new_seps);
                let count = children.len();
                self.charge_routing(count, true);
                self.maybe_split_internal(p)?;
                Ok(())
            }
        }
    }

    /// Split `x` while it has more than l children, cascading upward.
    fn maybe_split_internal(&mut self, x: NodeId) -> Result<()> {
        let count = match &self.node(x).kind {
            NodeKind::Internal { children, .. } => children.len(),
            NodeKind::Leaf { .. } => return Ok(()),
        };
        if count <= self.l {
            return Ok(());
        }
        debug_assert!(
            self.node(x).buffer.total == 0,
            "splitting nodes have empty buffers in phase 2"
        );
        let (mut children, mut seps) = match &mut self.node_mut(x).kind {
            NodeKind::Internal { children, seps } => {
                (std::mem::take(children), std::mem::take(seps))
            }
            NodeKind::Leaf { .. } => unreachable!(),
        };
        let half = children.len() / 2;
        let right_children = children.split_off(half);
        let mid_sep = seps[half - 1];
        let right_seps = seps.split_off(half);
        seps.pop(); // drop mid separator; it moves to the parent
        self.charge_routing(children.len(), true);
        self.charge_routing(right_children.len(), true);
        match &mut self.node_mut(x).kind {
            NodeKind::Internal {
                children: c,
                seps: s,
            } => {
                *c = children;
                *s = seps;
            }
            NodeKind::Leaf { .. } => unreachable!(),
        }
        let right = self.alloc_node(Node {
            kind: NodeKind::Internal {
                children: right_children,
                seps: right_seps,
            },
            buffer: Buffer::default(),
        });
        self.replace_with_pair(x, mid_sep, right)
    }

    /// After splitting `x`, register `right` as its new sibling under the
    /// parent (or grow a new root).
    fn replace_with_pair(&mut self, x: NodeId, sep: Record, right: NodeId) -> Result<()> {
        match self.find_parent(self.root, x) {
            None => {
                let new_root = self.alloc_node(Node {
                    kind: NodeKind::Internal {
                        children: vec![x, right],
                        seps: vec![sep],
                    },
                    buffer: Buffer::default(),
                });
                self.charge_routing(2, true);
                self.root = new_root;
                Ok(())
            }
            Some(p) => {
                match &mut self.node_mut(p).kind {
                    NodeKind::Internal { children, seps } => {
                        let pos = children.iter().position(|&c| c == x).expect("child");
                        children.insert(pos + 1, right);
                        seps.insert(pos, sep);
                    }
                    NodeKind::Leaf { .. } => unreachable!(),
                }
                let count = match &self.node(p).kind {
                    NodeKind::Internal { children, .. } => children.len(),
                    NodeKind::Leaf { .. } => unreachable!(),
                };
                self.charge_routing(count, true);
                self.maybe_split_internal(p)
            }
        }
    }

    /// Parent lookup by descent. The model keeps parent pointers as free
    /// bookkeeping; the host-side search is uncharged.
    fn find_parent(&self, cur: NodeId, target: NodeId) -> Option<NodeId> {
        if cur == target {
            return None;
        }
        match &self.node(cur).kind {
            NodeKind::Leaf { .. } => None,
            NodeKind::Internal { children, .. } => {
                for &c in children {
                    if c == target {
                        return Some(cur);
                    }
                    if let Some(p) = self.find_parent(c, target) {
                        return Some(p);
                    }
                }
                None
            }
        }
    }

    // ---- priority-queue support -------------------------------------------------

    /// Empty every buffer on the root-to-leftmost-leaf path (processing any
    /// cascaded full nodes too), then remove the leftmost leaf and return its
    /// sorted records. Returns None when the tree stores no records.
    pub fn pop_leftmost_leaf(&mut self) -> Result<Option<Vec<Record>>> {
        if self.len == 0 {
            // Reset any stray structure (root may be a bare leaf already).
            return Ok(None);
        }
        self.flush_root_tail()?;
        // Empty buffers down the left spine. Splits may restructure the
        // spine, so we re-descend from the root each step.
        loop {
            let mut x = self.root;
            // Empty internal buffers top-down along the spine.
            loop {
                if self.node(x).buffer.total > 0 {
                    self.empty_full_cascade(x)?;
                    break; // restructuring possible: re-descend
                }
                match &self.node(x).kind {
                    NodeKind::Leaf { .. } => break,
                    NodeKind::Internal { children, .. } => x = children[0],
                }
            }
            // Done when the whole spine (including the leaf) has no buffers.
            let mut y = self.root;
            let clean = loop {
                if self.node(y).buffer.total > 0 {
                    break false;
                }
                match &self.node(y).kind {
                    NodeKind::Leaf { .. } => break true,
                    NodeKind::Internal { children, .. } => y = children[0],
                }
            };
            if clean {
                break;
            }
        }
        // The leftmost leaf now holds the globally smallest resident records.
        let mut leaf = self.root;
        while let NodeKind::Internal { children, .. } = &self.node(leaf).kind {
            leaf = children[0];
        }
        let data = match &mut self.node_mut(leaf).kind {
            NodeKind::Leaf { data } => std::mem::take(data),
            NodeKind::Internal { .. } => unreachable!(),
        };
        let records = data.read_all(&self.machine)?;
        data.free(&self.machine);
        self.len -= records.len();
        self.remove_leftmost_leaf(leaf)?;
        debug_assert!(!records.is_empty() || self.len == 0);
        Ok(Some(records))
    }

    /// Detach the (now empty) leftmost leaf and repair underflow.
    fn remove_leftmost_leaf(&mut self, leaf: NodeId) -> Result<()> {
        if leaf == self.root {
            // Single-leaf tree: keep the (empty) leaf as root.
            return Ok(());
        }
        let parent = self.find_parent(self.root, leaf).expect("non-root leaf");
        match &mut self.node_mut(parent).kind {
            NodeKind::Internal { children, seps } => {
                debug_assert_eq!(children[0], leaf);
                children.remove(0);
                if !seps.is_empty() {
                    seps.remove(0);
                }
            }
            NodeKind::Leaf { .. } => unreachable!(),
        }
        self.free_node(leaf);
        self.charge_routing(self.child_count(parent), true);
        self.repair_underflow(parent)
    }

    fn child_count(&self, x: NodeId) -> usize {
        match &self.node(x).kind {
            NodeKind::Internal { children, .. } => children.len(),
            NodeKind::Leaf { .. } => 0,
        }
    }

    /// Restore the (a,b) minimum-degree invariant for `x` (on the left
    /// spine) by borrowing from or fusing with its right sibling.
    fn repair_underflow(&mut self, x: NodeId) -> Result<()> {
        let a = self.l / 4;
        if self.child_count(x) >= a {
            return Ok(());
        }
        if x == self.root {
            // Root is exempt from the minimum; collapse single-child roots.
            if self.child_count(x) == 1 {
                let child = match &self.node(x).kind {
                    NodeKind::Internal { children, .. } => children[0],
                    NodeKind::Leaf { .. } => return Ok(()),
                };
                // The root buffer must migrate to the new root.
                let buf = self.node_mut(x).buffer.take();
                for run in buf {
                    self.node_mut(child).buffer.push_run(run);
                }
                self.free_node(x);
                self.root = child;
            }
            return Ok(());
        }
        let parent = self.find_parent(self.root, x).expect("non-root");
        let (sibling, sep) = match &self.node(parent).kind {
            NodeKind::Internal { children, seps } => {
                let pos = children.iter().position(|&c| c == x).expect("child");
                debug_assert_eq!(pos, 0, "underflow only on the left spine");
                (children[1], seps[0])
            }
            NodeKind::Leaf { .. } => unreachable!(),
        };
        // Empty the sibling's buffer first so no buffered record's routing
        // changes under it.
        if self.node(sibling).buffer.total > 0 {
            self.empty_full_cascade(sibling)?;
        }
        if self.child_count(sibling) > a {
            // Borrow the sibling's first child.
            let (moved, new_sep) = match &mut self.node_mut(sibling).kind {
                NodeKind::Internal { children, seps } => (children.remove(0), seps.remove(0)),
                NodeKind::Leaf { .. } => unreachable!(),
            };
            match &mut self.node_mut(x).kind {
                NodeKind::Internal { children, seps } => {
                    children.push(moved);
                    seps.push(sep);
                }
                NodeKind::Leaf { .. } => unreachable!(),
            }
            match &mut self.node_mut(parent).kind {
                NodeKind::Internal { seps, .. } => seps[0] = new_sep,
                NodeKind::Leaf { .. } => unreachable!(),
            }
            self.charge_routing(self.child_count(x), true);
            self.charge_routing(self.child_count(sibling), true);
            Ok(())
        } else {
            // Fuse x with the sibling (≤ a-1 + a ≤ l/2 children).
            let (sib_children, sib_seps) = match &mut self.node_mut(sibling).kind {
                NodeKind::Internal { children, seps } => {
                    (std::mem::take(children), std::mem::take(seps))
                }
                NodeKind::Leaf { .. } => unreachable!(),
            };
            match &mut self.node_mut(x).kind {
                NodeKind::Internal { children, seps } => {
                    seps.push(sep);
                    seps.extend(sib_seps);
                    children.extend(sib_children);
                }
                NodeKind::Leaf { .. } => unreachable!(),
            }
            match &mut self.node_mut(parent).kind {
                NodeKind::Internal { children, seps } => {
                    children.remove(1);
                    seps.remove(0);
                }
                NodeKind::Leaf { .. } => unreachable!(),
            }
            self.free_node(sibling);
            self.charge_routing(self.child_count(x), true);
            self.charge_routing(self.child_count(parent).max(1), true);
            self.repair_underflow(parent)
        }
    }

    // ---- test oracles -----------------------------------------------------------

    /// Uncharged: collect every record in the tree (buffers + leaves),
    /// unsorted. Test oracle only.
    #[cfg(test)]
    fn collect_all_uncharged(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(&self.root_tail);
        self.collect_rec(self.root, &mut out);
        out
    }

    #[cfg(test)]
    fn collect_rec(&self, x: NodeId, out: &mut Vec<Record>) {
        let node = self.node(x);
        for run in &node.buffer.runs {
            for &b in &run.blocks {
                let blk = self.machine.peek_block(b).expect("live block");
                out.extend_from_slice(&blk);
            }
        }
        // Runs store exact lengths; partial blocks are exact by construction.
        match &node.kind {
            NodeKind::Leaf { data } => {
                for &b in &data.blocks {
                    out.extend_from_slice(&self.machine.peek_block(b).expect("live block"));
                }
            }
            NodeKind::Internal { children, .. } => {
                for &c in children {
                    self.collect_rec(c, out);
                }
            }
        }
    }

    /// Uncharged structural invariant check (test oracle): (a,b) degrees off
    /// the left spine, separator ordering, leaf data sortedness and sizes.
    pub fn validate(&self) {
        self.validate_rec(self.root, None, None, true, true);
    }

    fn validate_rec(
        &self,
        x: NodeId,
        lo: Option<Record>,
        hi: Option<Record>,
        is_root: bool,
        on_left_spine: bool,
    ) {
        let node = self.node(x);
        match &node.kind {
            NodeKind::Leaf { data } => {
                if !is_root {
                    assert!(
                        data.len <= self.cap,
                        "leaf overflow: {} > {}",
                        data.len,
                        self.cap
                    );
                }
                let mut recs: Vec<Record> = Vec::with_capacity(data.len);
                for &b in &data.blocks {
                    recs.extend_from_slice(&self.machine.peek_block(b).expect("live"));
                }
                assert!(recs.windows(2).all(|w| w[0] <= w[1]), "leaf unsorted");
                for r in &recs {
                    if let Some(lo) = lo {
                        // `>=`, not `>`: duplicate-heavy leaves can split
                        // mid-twin, leaving copies of the separator record on
                        // both sides (routing still sends *new* equal records
                        // to the leftmost such child, which is in range).
                        assert!(*r >= lo, "leaf record below separator range");
                    }
                    if let Some(hi) = hi {
                        assert!(*r <= hi, "leaf record above separator range");
                    }
                }
            }
            NodeKind::Internal { children, seps } => {
                assert_eq!(seps.len() + 1, children.len(), "separator count");
                assert!(children.len() <= self.l, "node too wide");
                if !is_root && !on_left_spine {
                    assert!(
                        children.len() >= self.l / 4,
                        "internal underflow off the spine: {} < {}",
                        children.len(),
                        self.l / 4
                    );
                }
                // Weak inequality: chopping a duplicate-heavy run can give
                // adjacent pieces the same max record, hence equal separators
                // (the child between two equal separators simply owns no new
                // routed records).
                assert!(seps.windows(2).all(|w| w[0] <= w[1]), "separators unsorted");
                for (i, &c) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(seps[i - 1]) };
                    let chi = if i == children.len() - 1 {
                        hi
                    } else {
                        Some(seps[i])
                    };
                    self.validate_rec(c, clo, chi, false, on_left_spine && i == 0);
                }
            }
        }
    }
}

/// Dropping the tree releases every block its buffers and leaves still
/// hold. Releasing moves no data, so modeled costs do not change.
impl Drop for BufferTree {
    fn drop(&mut self) {
        for node in self.nodes.iter_mut().flatten() {
            let leaf = match &mut node.kind {
                NodeKind::Leaf { data } => Some(std::mem::take(data)),
                NodeKind::Internal { .. } => None,
            };
            for run in node.buffer.take().into_iter().chain(leaf) {
                run.free(&self.machine);
            }
        }
    }
}

// ---- streaming helpers ----------------------------------------------------------

/// Sequential charged reader over a list of runs, one block at a time:
/// `fill` exposes the unread rest of the current block as a slice.
struct RunsReader<'a> {
    machine: &'a EmMachine,
    runs: &'a [Run],
    run_idx: usize,
    block_idx: usize,
    /// Records of the current run not yet loaded into `buf`.
    unloaded: usize,
    buf: Vec<Record>,
    /// Records of `buf` already consumed.
    pos: usize,
}

impl<'a> RunsReader<'a> {
    fn new(machine: &'a EmMachine, runs: &'a [Run]) -> Self {
        Self {
            machine,
            runs,
            run_idx: 0,
            block_idx: 0,
            unloaded: runs.first().map_or(0, Run::len),
            buf: Vec::with_capacity(machine.b()),
            pos: 0,
        }
    }

    /// The unread rest of the current block, loading the next block (one
    /// charged read) when the current one is used up; empty at the end.
    fn fill(&mut self) -> Result<&[Record]> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            while self.unloaded == 0 {
                self.run_idx += 1;
                let Some(run) = self.runs.get(self.run_idx) else {
                    return Ok(&[]);
                };
                self.block_idx = 0;
                self.unloaded = run.len;
            }
            let run = &self.runs[self.run_idx];
            self.machine
                .read_block_into(run.blocks[self.block_idx], &mut self.buf)?;
            self.block_idx += 1;
            self.buf.truncate(self.unloaded);
            self.unloaded -= self.buf.len();
        }
        Ok(&self.buf[self.pos..])
    }
}

/// Merge sorted runs, handing `sink` each record in merged order; ties go
/// to the earlier run. A run's next block is read just after the record
/// that used up its current block reaches `sink`.
fn merge_sorted(machine: &EmMachine, runs: &[Run], mut sink: impl FnMut(Record)) -> Result<()> {
    let mut readers: Vec<RunsReader> = runs
        .iter()
        .map(|r| RunsReader::new(machine, std::slice::from_ref(r)))
        .collect();
    for rd in &mut readers {
        rd.fill()?;
    }
    loop {
        let mut src: Option<(usize, Record)> = None;
        for (i, rd) in readers.iter().enumerate() {
            if let Some(&h) = rd.buf.get(rd.pos) {
                if src.is_none_or(|(_, s)| h < s) {
                    src = Some((i, h));
                }
            }
        }
        let Some((i, r)) = src else {
            return Ok(());
        };
        let rd = &mut readers[i];
        rd.pos += 1;
        let used_up = rd.pos == rd.buf.len();
        sink(r);
        if used_up {
            rd.fill()?;
        }
    }
}

/// Buffered run writer (one block write per filled block). `take_run`
/// hands back what was written since the last take, and the store buffer
/// is reused for the next run.
struct RunWriter {
    blocks: Vec<BlockId>,
    buf: Vec<Record>,
    len: usize,
}

impl RunWriter {
    fn new(machine: &EmMachine) -> Self {
        Self {
            blocks: Vec::new(),
            buf: Vec::with_capacity(machine.b()),
            len: 0,
        }
    }

    fn extend(&mut self, machine: &EmMachine, mut records: &[Record]) {
        while !records.is_empty() {
            let take = (machine.b() - self.buf.len()).min(records.len());
            self.buf.extend_from_slice(&records[..take]);
            records = &records[take..];
            self.len += take;
            if self.buf.len() == machine.b() {
                self.flush(machine);
            }
        }
    }

    fn push(&mut self, machine: &EmMachine, r: Record) {
        self.buf.push(r);
        self.len += 1;
        if self.buf.len() == machine.b() {
            self.flush(machine);
        }
    }

    /// Write the store buffer out as one block.
    fn flush(&mut self, machine: &EmMachine) {
        self.blocks.push(machine.append_block_from(&self.buf));
        self.buf.clear();
    }

    /// Flush the partial block and return the (sorted) run written since
    /// the last take.
    fn take_run(&mut self, machine: &EmMachine) -> Run {
        if !self.buf.is_empty() {
            self.flush(machine);
        }
        Run {
            blocks: std::mem::take(&mut self.blocks),
            len: std::mem::take(&mut self.len),
            sorted: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_model::workload::Workload;
    use em_sim::EmConfig;

    fn machine(m: usize, b: usize, k: usize) -> EmMachine {
        // Generous slack: selection-sort set (M), streams, routing tables.
        let slack = m + 8 * b + k * m / b;
        EmMachine::new(EmConfig::new(m, b, 8).with_slack(slack))
    }

    #[test]
    fn inserts_are_conserved() {
        let em = machine(16, 2, 1);
        let mut t = BufferTree::new(em.clone(), 1).unwrap();
        let input = Workload::UniformRandom.generate(500, 3);
        for &r in &input {
            t.insert(r).unwrap();
        }
        assert_eq!(t.len(), 500);
        let mut all = t.collect_all_uncharged();
        all.sort();
        let mut expect = input.clone();
        expect.sort();
        assert_eq!(all, expect);
        t.validate();
    }

    #[test]
    fn pop_leftmost_returns_sorted_prefixes() {
        let em = machine(16, 2, 1);
        let mut t = BufferTree::new(em.clone(), 1).unwrap();
        let input = Workload::UniformRandom.generate(800, 7);
        for &r in &input {
            t.insert(r).unwrap();
        }
        let mut expect = input.clone();
        expect.sort();
        let mut drained: Vec<Record> = Vec::new();
        while let Some(batch) = t.pop_leftmost_leaf().unwrap() {
            assert!(batch.windows(2).all(|w| w[0] <= w[1]), "batch sorted");
            drained.extend(batch);
            t.validate();
        }
        assert_eq!(drained, expect, "leaves must come off in global order");
        assert!(t.is_empty());
    }

    #[test]
    fn interleaved_inserts_and_pops() {
        let em = machine(16, 2, 1);
        let mut t = BufferTree::new(em.clone(), 1).unwrap();
        let input = Workload::UniformRandom.generate(1200, 9);
        let (first, second) = input.split_at(700);
        for &r in first {
            t.insert(r).unwrap();
        }
        let batch1 = t.pop_leftmost_leaf().unwrap().unwrap();
        let max1 = *batch1.last().unwrap();
        for &r in second {
            // Only insert records above the already-extracted range (the
            // tree is used below a working set that guarantees this).
            if r > max1 {
                t.insert(r).unwrap();
            }
        }
        let mut drained = batch1.clone();
        while let Some(batch) = t.pop_leftmost_leaf().unwrap() {
            drained.extend(batch);
        }
        let mut expect: Vec<Record> = first
            .iter()
            .copied()
            .chain(second.iter().copied().filter(|r| *r > max1))
            .collect();
        expect.sort();
        assert_eq!(drained, expect);
    }

    #[test]
    fn duplicate_heavy_streams_are_conserved() {
        // All-identical and 90%-duplicate streams: leaf splits produce equal
        // separators and the selection sort sees nothing but twins — the old
        // record-keyed disciplines lost records or spun forever here.
        let identical = vec![Record::new(5, 5); 900];
        let few_distinct: Vec<Record> = (0..900).map(|i| Record::new(i % 9, 0)).collect();
        for input in [identical, few_distinct] {
            let em = machine(16, 2, 1);
            let mut t = BufferTree::new(em.clone(), 1).unwrap();
            for &r in &input {
                t.insert(r).unwrap();
            }
            assert_eq!(t.len(), input.len());
            t.validate();
            let mut drained: Vec<Record> = Vec::new();
            while let Some(batch) = t.pop_leftmost_leaf().unwrap() {
                assert!(batch.windows(2).all(|w| w[0] <= w[1]), "batch sorted");
                drained.extend(batch);
                t.validate();
            }
            let mut expect = input.clone();
            expect.sort();
            assert_eq!(drained, expect, "records lost or reordered");
            assert!(t.is_empty());
        }
    }

    #[test]
    fn larger_k_reduces_write_blocks() {
        let input = Workload::UniformRandom.generate(6000, 5);
        let writes = |k: usize| {
            let em = machine(16, 2, k);
            let mut t = BufferTree::new(em.clone(), k).unwrap();
            for &r in &input {
                t.insert(r).unwrap();
            }
            while t.pop_leftmost_leaf().unwrap().is_some() {}
            em.stats().block_writes
        };
        let w1 = writes(1);
        let w4 = writes(4);
        assert!(
            w4 < w1,
            "k=4 buffer tree should write less than k=1: {w4} vs {w1}"
        );
    }

    #[test]
    fn rejects_tiny_branching() {
        let em = EmMachine::new(EmConfig::new(8, 4, 2).with_slack(64));
        assert!(BufferTree::new(em, 1).is_err()); // l = 2 < 8
    }

    #[test]
    fn empty_tree_pops_none() {
        let em = machine(16, 2, 1);
        let mut t = BufferTree::new(em, 1).unwrap();
        assert!(t.pop_leftmost_leaf().unwrap().is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn sorted_input_stays_valid() {
        let em = machine(16, 2, 1);
        let mut t = BufferTree::new(em.clone(), 1).unwrap();
        for &r in &Workload::Sorted.generate(600, 2) {
            t.insert(r).unwrap();
        }
        t.validate();
        let mut prev: Option<Record> = None;
        while let Some(batch) = t.pop_leftmost_leaf().unwrap() {
            if let (Some(p), Some(f)) = (prev, batch.first()) {
                assert!(p < *f, "batches must be globally ordered");
            }
            prev = batch.last().copied();
        }
    }
}
