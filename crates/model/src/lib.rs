//! # asym-model — the asymmetric read/write cost model substrate
//!
//! This crate provides the shared vocabulary used by every machine model in the
//! reproduction of *Sorting with Asymmetric Read and Write Costs* (SPAA 2015):
//!
//! * [`CostModel`] — the single parameter of the paper's models: an integer
//!   charge `omega > 1` per write, with unit-cost reads.
//! * [`MemCounter`] — a cheap shared read/write tally, so algorithms can
//!   count the reads and writes they perform.
//! * [`record`] — the record type being sorted (a `u64` key plus payload).
//! * [`workload`] — deterministic input generators (uniform, sorted, reversed,
//!   nearly sorted, few-distinct, Zipf, organ pipe).
//! * [`stats`] — small statistics helpers (means, log-log slope fits) used when
//!   checking empirical growth rates against the paper's bounds.
//! * [`json`] — the dependency-free JSON parser/emitter shared by the bench
//!   reports, the sort-job wire codec, and the job server.
//! * [`table`] — a plain-text table builder used by the experiment harness.
//!
//! The crate is deliberately free of machine-specific logic: the External
//! Memory machine lives in `em-sim`, the ideal-cache simulator in `cache-sim`,
//! and the PRAM work-depth framework in `wd-sim`. All of them express their
//! tallies as [`CostReport`]s so experiments can compare across models.

mod cost;
mod counters;
pub mod json;
pub mod record;
pub mod stats;
pub mod table;
pub mod workload;

pub use cost::{CostModel, CostReport};
pub use counters::MemCounter;
pub use record::{Record, MAX_KEY};

/// Crate-wide result alias (used by substrates that can fault, e.g. when an
/// algorithm exceeds its leased primary memory).
pub type Result<T> = std::result::Result<T, ModelError>;

/// Errors surfaced by the simulators built on top of this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// An algorithm attempted to hold more primary memory than the machine has.
    MemoryExceeded {
        /// Records currently leased.
        used: usize,
        /// Records requested on top of `used`.
        requested: usize,
        /// The machine's capacity (including any allowed slack).
        capacity: usize,
    },
    /// A block address was used after being freed or before being allocated.
    BadBlock(usize),
    /// An index was outside the bounds of a simulated array.
    OutOfBounds { index: usize, len: usize },
    /// Generic invariant violation with a description.
    Invariant(String),
    /// A real I/O operation failed (file-backed block stores only; the
    /// in-memory store never produces this). The underlying `std::io::Error`
    /// is flattened to its message so the error stays `Clone + PartialEq`.
    Io(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::MemoryExceeded {
                used,
                requested,
                capacity,
            } => write!(
                f,
                "primary memory exceeded: {used} leased + {requested} requested > {capacity}"
            ),
            ModelError::BadBlock(b) => write!(f, "invalid block address {b}"),
            ModelError::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds (len {len})")
            }
            ModelError::Invariant(msg) => write!(f, "invariant violation: {msg}"),
            ModelError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = ModelError::MemoryExceeded {
            used: 10,
            requested: 5,
            capacity: 12,
        };
        let s = e.to_string();
        assert!(s.contains("10"));
        assert!(s.contains("5"));
        assert!(s.contains("12"));
        assert!(ModelError::BadBlock(7).to_string().contains('7'));
        assert!(ModelError::OutOfBounds { index: 3, len: 2 }
            .to_string()
            .contains("bounds"));
        assert!(ModelError::Invariant("x".into()).to_string().contains('x'));
        assert!(ModelError::Io("denied".into())
            .to_string()
            .contains("denied"));
    }
}
