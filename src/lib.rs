//! # asym-sort — *Sorting with Asymmetric Read and Write Costs*, executable
//!
//! Umbrella crate re-exporting the full workspace API (see `README.md` for
//! the crate map). Each machine model of the paper (Blelloch, Fineman,
//! Gibbons, Gu, Shun; SPAA 2015) lives in its own crate; this crate exists so
//! downstream users and the integration tests can reach everything through
//! one dependency.
//!
//! * [`core`] (`asym-core`) — the algorithms, organized by model: `ram`,
//!   `pram`, `em`, `co`, `par` — fronted by the unified job API in
//!   `core::sort` (`SortSpec`, `Algorithm::ALL` and `sort::run`).
//! * [`model`] (`asym-model`) — the shared cost substrate: `omega`-weighted
//!   [`model::CostModel`], counters, records, workloads.
//! * [`cache_sim`] — the Asymmetric Ideal-Cache simulator (LRU, read-write
//!   LRU, offline MIN).
//! * [`em_sim`] — the Asymmetric External Memory machine (block transfers,
//!   leased primary memory).
//! * [`wd_sim`] — the Asymmetric PRAM work-depth cost algebra and
//!   work-stealing scheduler simulation.
//! * [`serve`] (`asym-serve`) — sort-as-a-service: a worker-pool job
//!   server with cost-model admission control and an HTTP/1.1 front door
//!   speaking the `core::sort::wire` JSON formats.
//! * [`kv`] (`asym-kv`) — the ω-aware LSM key-value engine built on
//!   `em_sim` runs, with every compaction submitted to `serve` as a
//!   `predict()`-priced sort job and a policy model choosing
//!   leveling-vs-tiering per ω.
//!
//! # Example
//!
//! Sorting with O(n) writes on the Asymmetric RAM (§3 of the paper), and
//! verifying the write bound from measured counters:
//!
//! ```
//! use asym_sort::core::ram::tree_sort::tree_sort_with_counter;
//! use asym_sort::model::workload::Workload;
//! use asym_sort::model::MemCounter;
//!
//! let input = Workload::UniformRandom.generate(4096, 1);
//! let counter = MemCounter::new();
//! let (sorted, _stats) = tree_sort_with_counter(&input, &counter);
//!
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! // O(n) writes: far fewer than the n log n of a conventional sort.
//! let n = input.len() as u64;
//! assert!(counter.writes() < 8 * n);
//! assert!(counter.reads() > n * 10); // the reads pay for the writes
//! ```

pub use asym_core as core;
pub use asym_kv as kv;
pub use asym_model as model;
pub use asym_serve as serve;
pub use cache_sim;
pub use em_sim;
pub use wd_sim;
