//! Parallel sample sorts: a threaded wall-clock executor and a modeled
//! lane executor.
//!
//! The PRAM algorithms in [`crate::pram`] are *interpreted* single-threaded
//! with measured work-depth costs; this module holds the two executable
//! counterparts of the parallel story:
//!
//! * [`par_sample_sort`] — real scoped threads for wall-clock
//!   benchmarking: splitter-based bucketing with per-thread counting, a
//!   scatter into disjoint per-(bucket, thread) slices, and parallel
//!   per-bucket sorts.
//! * [`par_aem_sample_sort`] — the *modeled* parallel AEM sort: the same
//!   splitter discipline run against a sharded
//!   [`ParMachine`](em_sim::ParMachine), charging block reads and ω-cost
//!   writes to the lane that performs them, with span from `wd-sim`'s cost
//!   algebra and a simulated work-stealing execution of the phase DAG.
//!   Its key invariant — merged write totals are identical for every lane
//!   count — is what makes the paper's write bounds meaningful under
//!   parallel execution.
//!
//! Both reduce their sorted sample through one splitter kernel
//! (`par/splitters.rs`), so they bucket identically given the same sample.

mod aem_sample_sort;
mod sample_sort;
mod splitters;

pub use aem_sample_sort::{par_aem_sample_sort, par_samplesort_slack, ParSortRun};
pub use sample_sort::par_sample_sort;
