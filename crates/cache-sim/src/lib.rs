//! # cache-sim — the (Asymmetric) Ideal-Cache model
//!
//! An executable version of the Asymmetric Ideal-Cache model of §2 of
//! *Sorting with Asymmetric Read and Write Costs* (SPAA 2015), used by the
//! cache-oblivious algorithms of §5.
//!
//! The model: all addressable memory lives in secondary memory, partitioned
//! into blocks of `B` cells; up to `M/B` blocks are resident in the cache.
//! A reference to a non-resident block loads it (cost 1). Evicting a *clean*
//! block is free beyond that load; evicting a *dirty* block additionally
//! writes it back (cost ω).
//!
//! Components:
//!
//! * [`SimArray`] — a typed array in the simulated address space; every
//!   `read`/`write` drives the attached [`Tracker`].
//! * [`Tracker`] — dispatches accesses to a replacement policy:
//!   * [`policy::LruCache`] — classic unified LRU with dirty bits;
//!   * [`policy::RwLruCache`] — the paper's **read-write LRU** (Lemma 2.1):
//!     separate equal-sized read and write pools;
//!   * trace recording for offline policies;
//!   * `Null` — no accounting (fast correctness runs).
//! * [`simulate_min`] — offline Belady MIN simulation on a recorded trace (the
//!   stand-in bracket for the ideal policy), in classic and clean-first
//!   variants.
//!
//! Cost accounting is uniform: `loads + omega * writebacks`, where writebacks
//! include an explicit end-of-run [`Tracker::flush`] so algorithms that leave
//! their output dirty in cache are charged for materializing it.

mod array;
mod lru;
mod min;
pub mod policy;
mod stats;
mod tracker;

pub use array::SimArray;
pub use min::{simulate_min, MinVariant};
pub use stats::CacheStats;
pub use tracker::{CacheConfig, PolicyChoice, Tracker};
