//! §4 — sorting on the Asymmetric External Memory machine.
//!
//! All three AEM sorts share one idea: trade a factor k = O(ω) extra reads
//! for a branching factor of l = kM/B (instead of M/B), which divides the
//! number of levels — and therefore the number of ω-cost writes — by
//! Θ(1 + log k / log(M/B)). With k = 1 each algorithm is exactly its classic
//! EM counterpart, which is how the experiments produce their baselines.
//!
//! * [`selection_sort`] — Lemma 4.2: sort n ≤ kM records in ≤ k⌈n/B⌉ reads and
//!   ⌈n/B⌉ writes by k passes of in-memory selection. It is the one
//!   selection kernel of §4: the base case here, and shared by Algorithm
//!   2's phase 1, the buffer tree (sorting full buffers) and the priority
//!   queue (β extraction).
//! * [`mergesort`] — Algorithm 2: l-way merge in rounds. Its queue
//!   (`merge_queue`) is a slice of each run's current block under two
//!   winner trees, and each round's first phase is one selection of the M
//!   smallest candidates.
//! * [`samplesort`] — §4.2: l-way distribution in k rounds of M/B splitters.
//! * [`buffer_tree`] — §4.3.1–2: the (l/4, l) buffer tree.
//! * [`pq`] — §4.3.3: the priority queue with α/β working sets.
//! * [`aem_heapsort`] — sorting by n inserts + n delete-mins on [`pq`].

pub mod buffer_tree;
mod heapsort;
mod merge_queue;
pub mod mergesort;
#[cfg(test)]
mod oracle;
pub mod pq;
pub mod samplesort;
mod selection;

pub use heapsort::aem_heapsort;
pub use mergesort::{aem_mergesort, mergesort_slack};
pub use pq::AemPriorityQueue;
pub use samplesort::{aem_samplesort, samplesort_slack};
pub use selection::selection_sort;
