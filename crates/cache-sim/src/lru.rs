//! An intrusive fixed-capacity LRU pool with dirty bits.
//!
//! Shared by the unified-LRU and read-write-LRU policies. Slots live in a
//! slab with intrusive prev/next links; `slot_of` (block id → slot) lives in
//! the owning policy so the read-write policy can keep one map per pool.

/// Sentinel for "no slot / no link".
pub(crate) const NIL: u32 = u32::MAX;

/// A fixed-capacity LRU pool over block ids.
#[derive(Debug)]
pub(crate) struct LruPool {
    cap: usize,
    block: Vec<u32>,
    dirty: Vec<bool>,
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32, // MRU
    tail: u32, // LRU
    free: Vec<u32>,
    len: usize,
}

impl LruPool {
    /// A pool that can hold up to `cap` blocks (cap >= 1).
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap >= 1, "cache pool needs at least one block");
        Self {
            cap,
            block: vec![NIL; cap],
            dirty: vec![false; cap],
            prev: vec![NIL; cap],
            next: vec![NIL; cap],
            head: NIL,
            tail: NIL,
            free: (0..cap as u32).rev().collect(),
            len: 0,
        }
    }

    /// Number of resident blocks.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool holds no blocks.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the pool is at capacity.
    pub(crate) fn is_full(&self) -> bool {
        self.len == self.cap
    }

    /// The block stored in `slot`.
    #[cfg(test)]
    fn block_at(&self, slot: u32) -> u32 {
        self.block[slot as usize]
    }

    /// Whether `slot` holds a dirty block.
    #[cfg(test)]
    fn is_dirty(&self, slot: u32) -> bool {
        self.dirty[slot as usize]
    }

    /// Mark `slot` dirty.
    pub(crate) fn set_dirty(&mut self, slot: u32) {
        self.dirty[slot as usize] = true;
    }

    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
    }

    fn link_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Move `slot` to the MRU position.
    pub(crate) fn touch(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.link_front(slot);
    }

    /// Evict the LRU block, returning `(block, was_dirty)`.
    pub(crate) fn evict_lru(&mut self) -> (u32, bool) {
        let slot = self.tail;
        assert_ne!(slot, NIL, "evict from empty pool");
        let blk = self.block[slot as usize];
        let dirty = self.dirty[slot as usize];
        self.remove(slot);
        (blk, dirty)
    }

    /// Insert `block` at the MRU position; the pool must not be full.
    /// Returns the slot used.
    pub(crate) fn insert_mru(&mut self, block: u32, dirty: bool) -> u32 {
        let slot = self.free.pop().expect("insert into full pool");
        self.block[slot as usize] = block;
        self.dirty[slot as usize] = dirty;
        self.link_front(slot);
        self.len += 1;
        slot
    }

    /// Remove `slot` from the pool, returning `(block, was_dirty)`.
    pub(crate) fn remove(&mut self, slot: u32) -> (u32, bool) {
        self.unlink(slot);
        let blk = self.block[slot as usize];
        let dirty = self.dirty[slot as usize];
        self.block[slot as usize] = NIL;
        self.dirty[slot as usize] = false;
        self.free.push(slot);
        self.len -= 1;
        (blk, dirty)
    }

    /// Drain all resident blocks, returning `(block, was_dirty)` pairs
    /// (used by flush).
    pub(crate) fn drain(&mut self) -> Vec<(u32, bool)> {
        let mut out = Vec::with_capacity(self.len);
        while self.tail != NIL {
            out.push(self.evict_lru());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_touch_evict_order() {
        let mut p = LruPool::new(3);
        let s1 = p.insert_mru(10, false);
        let _s2 = p.insert_mru(20, false);
        let _s3 = p.insert_mru(30, false);
        assert!(p.is_full());
        // LRU order is 10; touching 10 makes 20 the LRU.
        p.touch(s1);
        let (blk, dirty) = p.evict_lru();
        assert_eq!(blk, 20);
        assert!(!dirty);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn dirty_bit_travels_with_block() {
        let mut p = LruPool::new(2);
        let s = p.insert_mru(5, false);
        p.set_dirty(s);
        assert!(p.is_dirty(s));
        p.insert_mru(6, false);
        let (blk, dirty) = p.evict_lru();
        assert_eq!(blk, 5);
        assert!(dirty);
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut p = LruPool::new(1);
        let s = p.insert_mru(1, true);
        let (blk, dirty) = p.remove(s);
        assert_eq!((blk, dirty), (1, true));
        assert!(p.is_empty());
        let s2 = p.insert_mru(2, false);
        assert_eq!(p.block_at(s2), 2);
    }

    #[test]
    fn drain_returns_everything_lru_first() {
        let mut p = LruPool::new(3);
        p.insert_mru(1, false);
        p.insert_mru(2, true);
        p.insert_mru(3, false);
        let drained = p.drain();
        assert_eq!(drained, vec![(1, false), (2, true), (3, false)]);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn evict_from_empty_panics() {
        let mut p = LruPool::new(1);
        p.evict_lru();
    }

    #[test]
    fn touch_mru_is_noop() {
        let mut p = LruPool::new(2);
        p.insert_mru(1, false);
        let s2 = p.insert_mru(2, false);
        p.touch(s2);
        assert_eq!(p.evict_lru().0, 1);
    }
}
