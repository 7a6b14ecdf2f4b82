//! Read/write instrumentation counters.
//!
//! The paper's models charge every *write* `omega` and every *read* 1. To
//! measure algorithms rather than trust their analyses, the RAM and PRAM
//! algorithms tally their element accesses on a [`MemCounter`], and a
//! [`CostReport`](crate::CostReport) prices the tally.
//!
//! Counters use `Cell<u64>` rather than atomics: every counted execution is
//! a deterministic single-threaded interpretation (the PRAM algorithms are
//! interpreted too), so the hot path stays a single add.

use std::cell::Cell;
use std::rc::Rc;

/// Tally of primitive memory operations performed by an algorithm.
///
/// `MemCounter` is cheaply clonable (shared via `Rc`), so a machine simulator
/// and the algorithm running on it can both hold handles onto the same tally.
///
/// ```
/// use asym_model::MemCounter;
/// let c = MemCounter::new();
/// c.read();
/// c.add_writes(3);
/// assert_eq!(c.snapshot(), (1, 3));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MemCounter {
    inner: Rc<CounterInner>,
}

#[derive(Debug, Default)]
struct CounterInner {
    reads: Cell<u64>,
    writes: Cell<u64>,
}

impl MemCounter {
    /// A fresh counter with both tallies at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` element reads.
    #[inline]
    pub fn add_reads(&self, n: u64) {
        self.inner.reads.set(self.inner.reads.get() + n);
    }

    /// Record `n` element writes.
    #[inline]
    pub fn add_writes(&self, n: u64) {
        self.inner.writes.set(self.inner.writes.get() + n);
    }

    /// Record one read.
    #[inline]
    pub fn read(&self) {
        self.add_reads(1);
    }

    /// Record one write.
    #[inline]
    pub fn write(&self) {
        self.add_writes(1);
    }

    /// Total reads recorded so far.
    #[inline]
    pub fn reads(&self) -> u64 {
        self.inner.reads.get()
    }

    /// Total writes recorded so far.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.inner.writes.get()
    }

    /// Reset both tallies to zero.
    pub fn reset(&self) {
        self.inner.reads.set(0);
        self.inner.writes.set(0);
    }

    /// Snapshot `(reads, writes)`.
    pub fn snapshot(&self) -> (u64, u64) {
        (self.reads(), self.writes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_tallies_and_resets() {
        let c = MemCounter::new();
        c.read();
        c.write();
        c.add_reads(4);
        c.add_writes(2);
        assert_eq!(c.reads(), 5);
        assert_eq!(c.writes(), 3);
        c.reset();
        assert_eq!(c.snapshot(), (0, 0));
    }

    #[test]
    fn counter_handles_share_one_tally() {
        let a = MemCounter::new();
        let b = a.clone();
        a.read();
        b.write();
        assert_eq!(a.snapshot(), (1, 1));
        assert_eq!(b.snapshot(), (1, 1));
    }
}
