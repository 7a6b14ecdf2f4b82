//! §3 — sorting on the Asymmetric CRCW PRAM.
//!
//! Algorithm 1 of the paper: a sample sort doing O(n log n) reads but only
//! O(n) writes, with O(ω log n) depth w.h.p. Every subroutine here computes
//! its [`wd_sim::Cost`] alongside its result, composing sequential steps
//! with `then` (depths add) and parallel steps with `par` (depths max), so
//! the reported work and depth come from the actual dependence structure of
//! the computation.
//!
//! Cole's parallel mergesort — which the paper invokes as a black box for
//! sorting o(n)-sized samples — is substituted by [`merge_sort`], a
//! binary-search-split parallel mergesort with O(log² n) depth; the paper's
//! read/write budget for those steps is unaffected (see [`merge_sort`]).

pub mod merge_sort;
pub mod partition;
pub mod prefix;
pub mod radix;
pub mod sample_sort;

pub use merge_sort::pram_merge_sort;
pub use partition::{lemma31_partition, PartitionStats};
pub use prefix::prefix_sums;
pub use radix::pram_radix_sort_by;
pub use sample_sort::{pram_sample_sort, PramSortReport};
