//! `asym-kv`: an ω-aware LSM key-value engine — the sort service's first
//! real consumer.
//!
//! The paper's motivating hardware (NVM main memory, writes ω× reads)
//! meets its most natural workload: a log-structured KV store. Updates
//! land in a bounded in-memory memtable; flushes produce immutable sorted
//! runs on the same [`BlockStore`](em_sim::BlockStore)-backed machinery
//! the sorters use; and **every compaction is a sort job**: a sorted-run
//! merge is packaged as a [`SortSpec`](asym_core::sort::SortSpec) job,
//! priced by `predict()` at admission, and run by `asym-serve` — an
//! embedded [`SortService`](asym_serve::SortService) by default, or a
//! real HTTP sort server via [`CompactionService::http`].
//!
//! The compaction *policy* is where ω bites: [`policy`] reproduces the
//! CS265/RocksDB leveling-vs-tiering cost models under the asymmetric
//! objective `reads + ω·writes` and picks the style and size ratio T as a
//! function of ω ([`Policy::for_omega`]). The E-KV bench table measures
//! the same frontier end to end through this engine.
//!
//! ```
//! use asym_kv::{AsymKv, KvConfig};
//!
//! let mut kv = AsymKv::new(KvConfig::new(8)).expect("engine");
//! for i in 0..3_000u64 {
//!     kv.put(i, i * 2).expect("put");
//! }
//! kv.delete(7).expect("delete");
//! assert_eq!(kv.get(8).expect("get"), Some(16));
//! assert_eq!(kv.get(7).expect("get"), None);
//! assert!(!kv.compactions().is_empty(), "merges ran as service jobs");
//! # for c in kv.compactions() {
//! #     assert!(c.stats.block_reads <= c.predicted.reads);
//! # }
//! ```

pub mod baseline;
pub mod engine;
pub mod policy;
pub mod submit;

pub use engine::{AsymKv, CompactionRecord, KvConfig};
pub use policy::{choose, modeled_cost, CompactionStyle, Policy, PolicyInputs};
pub use submit::{CompactionService, JobResult};

/// Everything that can go wrong operating the engine.
#[derive(Debug, PartialEq, Eq)]
pub enum KvError {
    /// Keys must stay at or below [`asym_model::MAX_KEY`] (`u64::MAX` is
    /// the record sentinel).
    KeyOutOfRange(u64),
    /// Rejected engine geometry (e.g. a memtable that cannot fit primary
    /// memory alongside a probe block).
    Config(String),
    /// Building the compaction [`SortSpec`](asym_core::sort::SortSpec)
    /// failed.
    Spec(asym_core::sort::SpecError),
    /// The engine's own machine refused an operation (I/O fault, memory
    /// over-lease).
    Model(asym_model::ModelError),
    /// The service refused the compaction at submission: over the peak-byte
    /// or I/O budget, a deadline it cannot meet, or draining — whichever
    /// [`SubmitError`](asym_serve::SubmitError) it answered with.
    Rejected(asym_serve::SubmitError),
    /// Transport or job failure talking to the sort service.
    Service(String),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::KeyOutOfRange(k) => write!(f, "key {k} exceeds MAX_KEY"),
            KvError::Config(m) => write!(f, "config: {m}"),
            KvError::Spec(e) => write!(f, "compaction spec: {e}"),
            KvError::Model(e) => write!(f, "machine: {e}"),
            KvError::Rejected(e) => write!(f, "compaction {e}"),
            KvError::Service(m) => write!(f, "service: {m}"),
        }
    }
}

impl std::error::Error for KvError {}
