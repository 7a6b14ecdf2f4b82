//! Read/write instrumentation counters.
//!
//! The paper's models charge every *write* `omega` and every *read* 1. To
//! measure algorithms rather than trust their analyses, every algorithm in
//! this reproduction routes element accesses through a [`MemCounter`], either
//! directly or via the counted containers defined here.
//!
//! Counters use `Cell<u64>` rather than atomics: all simulated executions are
//! deterministic single-threaded interpretations of the parallel algorithms
//! (the real multi-threaded executor in `asym-core::par` keeps per-thread
//! counters and merges them). This keeps the hot path to a single add.

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

    /// Fold another counter's tallies into this one (used by the parallel
    /// executor when joining per-thread counters).
    pub fn absorb(&self, other: &MemCounter) {
        self.add_reads(other.reads());
        self.add_writes(other.writes());
    }
}

/// A single memory cell whose accesses are tallied on a [`MemCounter`].
#[derive(Clone, Debug)]
pub struct CountedCell<T> {
    value: T,
    counter: MemCounter,
}

impl<T: Copy> CountedCell<T> {
    /// Wrap `value`; the initial store is *not* charged (matching the paper's
    /// convention that the input already resides in memory).
    pub fn new(value: T, counter: MemCounter) -> Self {
        Self { value, counter }
    }

    /// Read the cell (charges one read).
    #[inline]
    pub fn get(&self) -> T {
        self.counter.read();
        self.value
    }

    /// Overwrite the cell (charges one write).
    #[inline]
    pub fn set(&mut self, value: T) {
        self.counter.write();
        self.value = value;
    }

    /// Peek without charging (for assertions and test oracles only).
    pub fn peek(&self) -> T {
        self.value
    }
}

/// An owned vector whose element accesses are tallied on a [`MemCounter`].
///
/// This is the workhorse container for the RAM/PRAM algorithms: index reads
/// charge one read, index writes charge one write, and `push` charges one
/// write (appending to the output array is a write of one record).
#[derive(Clone, Debug)]
pub struct CountedVec<T> {
    data: Vec<T>,
    counter: MemCounter,
}

impl<T: Copy> CountedVec<T> {
    /// Wrap an existing vector without charging for its contents.
    pub fn from_vec(data: Vec<T>, counter: MemCounter) -> Self {
        Self { data, counter }
    }

    /// An empty vector with reserved capacity (allocation is free; only
    /// element writes are charged).
    pub fn with_capacity(cap: usize, counter: MemCounter) -> Self {
        Self {
            data: Vec::with_capacity(cap),
            counter,
        }
    }

    /// Number of elements (free: length is bookkeeping, not data).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector is empty (free).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `i` (charges one read).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.counter.read();
        self.data[i]
    }

    /// Write element `i` (charges one write).
    #[inline]
    pub fn set(&mut self, i: usize, v: T) {
        self.counter.write();
        self.data[i] = v;
    }

    /// Append an element (charges one write).
    #[inline]
    pub fn push(&mut self, v: T) {
        self.counter.write();
        self.data.push(v);
    }

    /// Swap two elements (charges two reads and two writes).
    pub fn swap(&mut self, i: usize, j: usize) {
        self.counter.add_reads(2);
        self.counter.add_writes(2);
        self.data.swap(i, j);
    }

    /// The counter this vector charges to.
    pub fn counter(&self) -> &MemCounter {
        &self.counter
    }

    /// Uncharged view of the underlying data (test oracles only).
    pub fn peek_slice(&self) -> &[T] {
        &self.data
    }

    /// Consume the wrapper, returning the underlying vector (free).
    pub fn into_inner(self) -> Vec<T> {
        self.data
    }
}

/// A borrowed slice with counted reads (used when an algorithm only needs
/// read access to its input).
#[derive(Debug)]
pub struct CountedSlice<'a, T> {
    data: &'a [T],
    counter: MemCounter,
}

impl<'a, T: Copy> CountedSlice<'a, T> {
    /// Wrap a borrowed slice.
    pub fn new(data: &'a [T], counter: MemCounter) -> Self {
        Self { data, counter }
    }

    /// Length (free).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the slice is empty (free).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `i` (charges one read).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.counter.read();
        self.data[i]
    }

    /// The counter this slice charges to.
    pub fn counter(&self) -> &MemCounter {
        &self.counter
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

    #[test]
    fn absorb_merges_counts() {
        let a = MemCounter::new();
        let b = MemCounter::new();
        a.add_reads(3);
        b.add_writes(7);
        a.absorb(&b);
        assert_eq!(a.snapshot(), (3, 7));
    }

    #[test]
    fn counted_cell_charges_reads_and_writes() {
        let c = MemCounter::new();
        let mut cell = CountedCell::new(10u32, c.clone());
        assert_eq!(cell.get(), 10);
        cell.set(11);
        assert_eq!(cell.peek(), 11);
        assert_eq!(c.snapshot(), (1, 1));
    }

    #[test]
    fn counted_vec_charges_per_access() {
        let c = MemCounter::new();
        let mut v = CountedVec::from_vec(vec![1u64, 2, 3], c.clone());
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(0), 1);
        v.set(1, 9);
        v.push(4);
        assert_eq!(c.snapshot(), (1, 2));
        v.swap(0, 3);
        assert_eq!(c.snapshot(), (3, 4));
        assert_eq!(v.into_inner(), vec![4, 9, 3, 1]);
    }

    #[test]
    fn counted_slice_charges_reads_only() {
        let c = MemCounter::new();
        let data = [5u8, 6, 7];
        let s = CountedSlice::new(&data, c.clone());
        assert!(!s.is_empty());
        assert_eq!(s.get(2), 7);
        assert_eq!(s.counter().snapshot(), (1, 0));
    }

    #[test]
    fn with_capacity_starts_empty() {
        let c = MemCounter::new();
        let v: CountedVec<u32> = CountedVec::with_capacity(16, c.clone());
        assert!(v.is_empty());
        assert_eq!(c.snapshot(), (0, 0));
    }
}
