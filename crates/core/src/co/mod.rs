//! §5 — cache-oblivious parallel algorithms with asymmetric read/write costs.
//!
//! All algorithms here are oblivious to the cache parameters M and B (they
//! know only ω, which the paper treats as a main-memory parameter) and run
//! against `cache-sim`'s [`cache_sim::SimArray`]s, so their cache complexity
//! is *measured* under LRU / read-write-LRU / offline-MIN policies rather
//! than derived.
//!
//! * [`co_transpose`] — recursive blocked matrix transpose, O(nm/B) I/Os.
//! * [`co_prefix_sums`] — scan-based prefix sums (sequential scans are I/O-optimal
//!   and oblivious; the low-depth variant matters only for depth, which the
//!   PRAM module measures).
//! * [`co_mergesort`] — classic cache-oblivious mergesort, the symmetric
//!   baseline and the sample-sorting subroutine.
//! * [`co_asym_sort`] — §5.1 / Figure 1: the low-depth sort with √(nω) subarrays,
//!   √(n/ω) buckets and ω-round sub-bucket partitioning. ω = 1 recovers the
//!   original BGS algorithm exactly (the second baseline).
//! * [`fft`](mod@fft) — §5.2: six-step FFT; the asymmetric variant brute-forces
//!   ω-point column DFTs to cut the recursion depth (and hence writes).
//! * [`matmul`] — §5.3: EM blocked multiply (Theorem 5.2) and the ω²-way
//!   divide-and-conquer with randomized first round (Theorem 5.3).

pub mod fft;
pub mod matmul;
mod mergesort;
mod prefix;
mod sort;
mod transpose;

pub use fft::{fft, naive_dft, Cplx, FftVariant};
pub use matmul::{mm_co_4way, mm_co_asym, mm_em_blocked, mm_naive};
pub use mergesort::co_mergesort;
pub use prefix::co_prefix_sums;
pub use sort::{co_asym_sort, CoSortTelemetry};
pub use transpose::co_transpose;
