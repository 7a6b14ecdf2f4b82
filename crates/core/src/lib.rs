//! # asym-core — write-efficient sorting with asymmetric read/write costs
//!
//! A from-scratch implementation of every algorithm in *Sorting with
//! Asymmetric Read and Write Costs* (Blelloch, Fineman, Gibbons, Gu, Shun;
//! SPAA 2015), organized by the machine model each is analyzed on:
//!
//! * [`ram`] — §3 Asymmetric RAM: sorting via balanced-search-tree insertion
//!   in O(n log n) reads and **O(n) writes**, plus a write-efficient priority
//!   queue (O(1) amortized writes per operation).
//! * [`pram`] — §3 Asymmetric CRCW PRAM: Algorithm 1 (the O(n)-write sample
//!   sort with O(ω log n) depth), Lemma 3.1 partitioning, and the parallel
//!   subroutines they need (prefix sums, merge sort, radix sort), all with
//!   measured work-depth costs.
//! * [`em`] — §4 Asymmetric External Memory: the three AEM sorts — l=kM/B-way
//!   mergesort (Algorithm 2), sample sort, and buffer-tree heapsort with the
//!   α/β working-set priority queue — plus the Lemma 4.2 selection-sort base
//!   case. The classic EM algorithms are the k=1 instances.
//! * [`co`] — §5 cache-oblivious algorithms on the Asymmetric Ideal-Cache:
//!   the low-depth sort (Figure 1), FFT, and matrix multiplication, with
//!   their symmetric counterparts as baselines.
//! * [`par`] — a real multi-threaded sample sort (`std::thread::scope`)
//!   for wall-clock benchmarking.
//! * [`sort`] — the unified job API: a validated [`sort::SortSpec`]
//!   description, [`sort::Algorithm::ALL`] naming every AEM sort, and
//!   [`sort::run`], which dispatches a spec to its algorithm's engine. The
//!   per-algorithm free functions are those engines.
//!
//! Every algorithm runs against an instrumented substrate (`asym-model`
//! counters, `em-sim` block machine, or `cache-sim` cache) so experiments
//! *measure* reads, writes and I/O rather than transcribe the paper's
//! formulas.

pub mod co;
pub mod em;
pub mod par;
pub mod pram;
pub mod ram;
pub mod sort;
