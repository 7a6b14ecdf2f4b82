//! The access tracker: address allocation + policy dispatch.

use crate::policy::{LruCache, RwLruCache};
use crate::stats::CacheStats;
use std::cell::RefCell;
use std::rc::Rc;

/// Parameters of a simulated cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache size in cells (one cell per array element).
    pub m: usize,
    /// Block (cache line) size in cells.
    pub b: usize,
    /// Write (dirty-eviction) cost relative to a block read.
    pub omega: u64,
}

impl CacheConfig {
    /// A cache of `m` cells in blocks of `b` cells with write cost `omega`.
    pub fn new(m: usize, b: usize, omega: u64) -> Self {
        assert!(b >= 1, "B must be positive");
        assert!(m >= b, "M must hold at least one block");
        assert!(omega >= 1, "omega must be at least 1");
        Self { m, b, omega }
    }

    /// Number of blocks the cache holds.
    pub fn capacity_blocks(&self) -> usize {
        self.m / self.b
    }
}

/// Which replacement policy a [`Tracker`] drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyChoice {
    /// Classic unified LRU with dirty bits.
    Lru,
    /// The paper's read-write LRU: two pools of `M/B` blocks **each**
    /// (Lemma 2.1's M_L is the per-pool size).
    RwLru,
    /// Record the block trace; replay it later through
    /// [`simulate_min`](crate::simulate_min).
    Record,
    /// No accounting at all (fast correctness mode).
    Null,
}

enum PolicyImpl {
    Lru(LruCache),
    RwLru(RwLruCache),
    Record(Vec<(u32, bool)>),
    Null,
}

struct TrackerInner {
    cfg: CacheConfig,
    next_addr: usize,
    policy: PolicyImpl,
}

/// Shared handle to a simulated cache. All [`crate::SimArray`]s created from
/// one tracker live in the same address space and contend for the same cache.
#[derive(Clone)]
pub struct Tracker {
    inner: Rc<RefCell<TrackerInner>>,
}

impl Tracker {
    /// Build a tracker with the given policy.
    pub fn new(cfg: CacheConfig, choice: PolicyChoice) -> Self {
        let policy = match choice {
            PolicyChoice::Lru => PolicyImpl::Lru(LruCache::new(cfg.capacity_blocks())),
            PolicyChoice::RwLru => PolicyImpl::RwLru(RwLruCache::new(cfg.capacity_blocks())),
            PolicyChoice::Record => PolicyImpl::Record(Vec::new()),
            PolicyChoice::Null => PolicyImpl::Null,
        };
        Self {
            inner: Rc::new(RefCell::new(TrackerInner {
                cfg,
                next_addr: 0,
                policy,
            })),
        }
    }

    /// A tracker that does no accounting (fast correctness runs).
    pub fn null() -> Self {
        Self::new(CacheConfig::new(1, 1, 1), PolicyChoice::Null)
    }

    /// This tracker's cache parameters.
    pub fn cfg(&self) -> CacheConfig {
        self.inner.borrow().cfg
    }

    /// Allocate `cells` block-aligned cells of simulated address space.
    ///
    /// Alignment matters: the paper's layouts assume arrays start on block
    /// boundaries, so a B-cell chunk of an array occupies one cache block.
    pub fn alloc(&self, cells: usize) -> usize {
        let mut inner = self.inner.borrow_mut();
        let b = inner.cfg.b;
        let base = inner.next_addr.div_ceil(b) * b;
        inner.next_addr = base + cells;
        base
    }

    /// Drive one access to cell `addr`.
    #[inline]
    pub fn access(&self, addr: usize, is_write: bool) {
        let mut inner = self.inner.borrow_mut();
        let block = (addr / inner.cfg.b) as u32;
        match &mut inner.policy {
            PolicyImpl::Lru(c) => c.access(block, is_write),
            PolicyImpl::RwLru(c) => c.access(block, is_write),
            PolicyImpl::Record(t) => t.push((block, is_write)),
            PolicyImpl::Null => {}
        }
    }

    /// Write back all dirty blocks (end-of-run charge). No-op for
    /// record/null trackers.
    pub fn flush(&self) {
        let mut inner = self.inner.borrow_mut();
        match &mut inner.policy {
            PolicyImpl::Lru(c) => c.flush(),
            PolicyImpl::RwLru(c) => c.flush(),
            _ => {}
        }
    }

    /// Current tallies (zeroes for record/null trackers).
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.borrow();
        match &inner.policy {
            PolicyImpl::Lru(c) => c.stats(),
            PolicyImpl::RwLru(c) => c.stats(),
            PolicyImpl::Record(t) => CacheStats {
                accesses: t.len() as u64,
                ..CacheStats::default()
            },
            PolicyImpl::Null => CacheStats::default(),
        }
    }

    /// Asymmetric cost so far under this cache's ω.
    pub fn cost(&self) -> u64 {
        let omega = self.cfg().omega;
        self.stats().cost(omega)
    }

    /// Take the recorded trace (empties it). Panics for non-record trackers.
    pub fn take_trace(&self) -> Vec<(u32, bool)> {
        let mut inner = self.inner.borrow_mut();
        match &mut inner.policy {
            PolicyImpl::Record(t) => std::mem::take(t),
            _ => panic!("take_trace on a non-recording tracker"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::min::{simulate_min, MinVariant};

    #[test]
    fn alloc_is_block_aligned() {
        let t = Tracker::new(CacheConfig::new(64, 8, 4), PolicyChoice::Lru);
        let a = t.alloc(5);
        let b = t.alloc(3);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn lru_tracker_counts_accesses() {
        let t = Tracker::new(CacheConfig::new(16, 4, 2), PolicyChoice::Lru);
        let base = t.alloc(8);
        t.access(base, false); // miss
        t.access(base + 1, false); // hit (same block)
        t.access(base + 4, true); // miss (next block)
        t.flush();
        let s = t.stats();
        assert_eq!(s.loads, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.writebacks, 1);
        assert_eq!(t.cost(), 2 + 2);
    }

    #[test]
    fn record_tracker_captures_block_trace() {
        let t = Tracker::new(CacheConfig::new(16, 4, 2), PolicyChoice::Record);
        let base = t.alloc(8);
        t.access(base, false);
        t.access(base + 5, true);
        let trace = t.take_trace();
        assert_eq!(
            trace,
            vec![(base as u32 / 4, false), (base as u32 / 4 + 1, true)]
        );
        assert!(t.take_trace().is_empty(), "trace was taken");
    }

    #[test]
    #[should_panic(expected = "non-recording")]
    fn take_trace_panics_on_lru() {
        let t = Tracker::new(CacheConfig::new(16, 4, 2), PolicyChoice::Lru);
        let _ = t.take_trace();
    }

    #[test]
    fn null_tracker_is_free() {
        let t = Tracker::null();
        let base = t.alloc(4);
        for i in 0..4 {
            t.access(base + i, true);
        }
        t.flush();
        assert_eq!(t.stats(), CacheStats::default());
    }

    #[test]
    fn rwlru_tracker_routes_to_split_pools() {
        let t = Tracker::new(CacheConfig::new(8, 4, 4), PolicyChoice::RwLru);
        let base = t.alloc(16);
        t.access(base, false);
        t.access(base + 4, true);
        t.access(base, false); // still resident in read pool
        let s = t.stats();
        assert_eq!(s.loads, 2);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn min_replay_through_tracker() {
        let t = Tracker::new(CacheConfig::new(8, 4, 2), PolicyChoice::Record);
        let base = t.alloc(16);
        for _ in 0..3 {
            for i in 0..4 {
                t.access(base + i * 4, false);
            }
        }
        let trace = t.take_trace();
        let s = simulate_min(&trace, t.cfg().capacity_blocks(), MinVariant::Classic);
        assert!(s.loads >= 4, "4 distinct blocks must each load once");
        assert!(s.loads < 12, "MIN should retain some blocks across rounds");
    }
}
