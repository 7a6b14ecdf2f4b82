//! # em-sim — the (Asymmetric) External Memory machine
//!
//! A faithful executable version of the AEM model of §2 of *Sorting with
//! Asymmetric Read and Write Costs* (SPAA 2015):
//!
//! * an unbounded **secondary memory** behind the pluggable [`BlockStore`]
//!   trait, partitioned into blocks of `B` records. The default backend
//!   ([`MemStore`]) is one contiguous slab arena with a free list, so block
//!   transfers are plain `memcpy`s and the transfer path performs no heap
//!   allocation; the [`FileStore`] backend maps the same slots onto a real
//!   temp file so modeled costs can be compared against measured I/O time
//!   (select it with [`EmMachine::with_backend`] or, in the bench harness,
//!   `ASYM_BENCH_BACKEND=file`);
//! * a **primary memory** of `M` records — not materialized as a separate
//!   store, but *enforced*: algorithms must lease capacity ([`EmMachine::lease`])
//!   for every in-memory buffer they hold, and leasing beyond the machine's
//!   capacity faults;
//! * two transfer instructions: [`EmMachine::read_block_into`] (cost 1) and
//!   [`EmMachine::write_block_from`] (cost ω), both operating on caller-owned,
//!   reused buffers.
//!
//! The I/O complexity of an algorithm is read directly off the machine's
//! counters: `block_reads + omega * block_writes`. RAM instructions on data in
//! primary memory are free, exactly as in the model.
//!
//! [`EmVec`] provides disk-resident arrays with buffered sequential readers
//! and writers, which is the access pattern every §4 algorithm uses.
//!
//! [`ParMachine`] shards one configuration into per-worker lanes (each an
//! independent [`EmMachine`]) so the §4–§5 *parallel* algorithms can charge
//! modeled transfers to the worker that performs them and merge the lanes
//! into work aggregates with [`EmStats::merge`].

//!
//! [`FaultStore`] wraps any backend with seeded fault injection (transient
//! `Interrupted` errors, short transfers, simulated crashes) so callers can
//! chaos-test their error paths without leaving the model.

pub mod disk;
pub mod fault;
pub mod file;
pub mod machine;
pub mod par;
pub mod store;
pub mod vec;

pub use disk::MemStore;
pub use fault::{FaultCounts, FaultPlan, FaultSpec, FaultStore, StoreIoPanic};
pub use file::FileStore;
pub use machine::{EmConfig, EmMachine, EmStats, MemLease};
pub use par::ParMachine;
pub use store::{Backend, BlockId, BlockStore, BACKEND_ENV};
pub use vec::{EmReader, EmVec, EmWriter};
