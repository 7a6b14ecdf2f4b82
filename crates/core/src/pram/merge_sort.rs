//! A work-depth-accounted parallel mergesort (Cole substitute).
//!
//! Recursive halving with parallel merges: each merge splits the output into
//! chunks along the merge path (binary searches, done in parallel), then
//! merges each chunk sequentially. Depth O(ω log² n), work O(n log n) reads
//! and O(n log n) writes — used only on samples of size O(n / log n), where
//! this is within the O(n) read/write budget the paper allots (§3; the
//! substitution note is in the [`crate::pram`] module doc).

use asym_model::Record;
use wd_sim::Cost;

/// Sequential-cost threshold for the base case.
const BASE: usize = 32;

/// Sort by parallel mergesort, returning the measured work-depth cost.
pub fn pram_merge_sort(input: &[Record], omega: u64) -> (Vec<Record>, Cost) {
    if input.len() <= BASE {
        return base_sort(input, omega);
    }
    let mid = input.len() / 2;
    let (left, lc) = pram_merge_sort(&input[..mid], omega);
    let (right, rc) = pram_merge_sort(&input[mid..], omega);
    let (merged, mc) = par_merge(&left, &right, omega);
    (merged, lc.par(rc).then(mc))
}

/// Base case: binary-insertion sort with counted comparisons and moves
/// (its sequential cost is its depth).
fn base_sort(input: &[Record], omega: u64) -> (Vec<Record>, Cost) {
    let mut out: Vec<Record> = Vec::with_capacity(input.len());
    let mut reads = 0u64;
    let mut writes = 0u64;
    for &r in input {
        reads += 1;
        let pos = out.partition_point(|x| *x < r);
        reads += (out.len().max(1)).ilog2() as u64 + 1;
        // Insertion shifts the tail: each shifted record is a read + write.
        let shifted = (out.len() - pos) as u64;
        reads += shifted;
        writes += shifted + 1;
        out.insert(pos, r);
    }
    (out, Cost::strand(reads, writes, omega))
}

/// Parallel merge: chunk the output by binary-search splits of the combined
/// sequence, then merge chunks independently.
pub fn par_merge(a: &[Record], b: &[Record], omega: u64) -> (Vec<Record>, Cost) {
    let total = a.len() + b.len();
    if total == 0 {
        return (Vec::new(), Cost::ZERO);
    }
    let chunk = (total.ilog2() as usize + 1).max(8);
    let chunks = total.div_ceil(chunk);
    let mut out: Vec<Record> = Vec::with_capacity(total);
    let mut split_costs: Vec<Cost> = Vec::with_capacity(chunks);
    let mut merge_costs: Vec<Cost> = Vec::with_capacity(chunks);
    let mut prev = (0usize, 0usize);
    for t in 1..=chunks {
        let target = (t * total / chunks).min(total);
        let (ai, bi) = merge_path_split(a, b, target);
        // Each split is two binary searches' worth of reads.
        split_costs.push(Cost::reads(2 * ((total.max(2)).ilog2() as u64 + 1)));
        // Sequential two-pointer merge of the chunk.
        let (alo, blo) = prev;
        let (mut i, mut j) = (alo, blo);
        let mut reads = 0u64;
        let mut writes = 0u64;
        while i < ai || j < bi {
            let take_a = j >= bi || (i < ai && a[i] <= b[j]);
            reads += 2;
            if take_a {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
            writes += 1;
        }
        merge_costs.push(Cost::strand(reads, writes, omega));
        prev = (ai, bi);
    }
    let cost = Cost::par_all(split_costs).then(Cost::par_all(merge_costs));
    (out, cost)
}

/// Find (i, j) with i + j = target such that merging a[..i] and b[..j]
/// yields the `target` smallest records of the union (the "merge path").
fn merge_path_split(a: &[Record], b: &[Record], target: usize) -> (usize, usize) {
    let lo = target.saturating_sub(b.len());
    let hi = target.min(a.len());
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let i = (lo + hi) / 2;
        let j = target - i;
        // Valid split: a[i-1] <= b[j] and b[j-1] <= a[i] (with sentinels).
        if i > 0 && j < b.len() && a[i - 1] > b[j] {
            hi = i; // too many from a
        } else if j > 0 && i < a.len() && b[j - 1] > a[i] {
            lo = i + 1; // too few from a
        } else {
            return (i, j);
        }
    }
    (lo, target - lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_model::record::assert_sorted_permutation;
    use asym_model::workload::Workload;

    #[test]
    fn sorts_all_workloads() {
        for wl in Workload::ALL {
            for n in [0usize, 1, 31, 32, 33, 500, 4096] {
                let input = wl.generate(n, 3);
                let (out, _) = pram_merge_sort(&input, 4);
                assert_sorted_permutation(&input, &out);
            }
        }
    }

    #[test]
    fn merge_handles_skewed_lengths() {
        let a: Vec<Record> = (0..100).map(|i| Record::keyed(2 * i)).collect();
        let b: Vec<Record> = vec![Record::keyed(51)];
        let (out, _) = par_merge(&a, &b, 2);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.len(), 101);
        let (out, _) = par_merge(&[], &b, 2);
        assert_eq!(out, b);
    }

    #[test]
    fn work_is_nlogn_depth_is_polylog() {
        let omega = 8u64;
        let input = Workload::UniformRandom.generate(1 << 12, 1);
        let n = input.len() as u64;
        let lg = (n as f64).log2();
        let (_, cost) = pram_merge_sort(&input, omega);
        let reads_per = cost.reads as f64 / (n as f64 * lg);
        assert!(
            reads_per < 6.0,
            "reads/(n lg n) = {reads_per:.2} should be O(1)"
        );
        // Depth should be far below the sequential work.
        assert!(
            cost.depth < cost.work(omega) / 8,
            "depth {} vs work {}",
            cost.depth,
            cost.work(omega)
        );
    }

    #[test]
    fn depth_scales_polylogarithmically() {
        let omega = 4u64;
        let d = |n: usize| {
            let input = Workload::UniformRandom.generate(n, 2);
            pram_merge_sort(&input, omega).1.depth as f64
        };
        let d1 = d(1 << 10);
        let d2 = d(1 << 14);
        // log²(2^14)/log²(2^10) = (14/10)² ≈ 2; allow 3x.
        assert!(d2 / d1 < 3.0, "depth ratio {:.2} too steep", d2 / d1);
    }

    #[test]
    fn merge_path_split_is_correct() {
        let a: Vec<Record> = [1u64, 3, 5, 7].iter().map(|&k| Record::keyed(k)).collect();
        let b: Vec<Record> = [2u64, 4, 6, 8].iter().map(|&k| Record::keyed(k)).collect();
        for target in 0..=8 {
            let (i, j) = merge_path_split(&a, &b, target);
            assert_eq!(i + j, target);
            // All taken records must be <= all untaken ones.
            let taken_max = a[..i].iter().chain(b[..j].iter()).max();
            let untaken_min = a[i..].iter().chain(b[j..].iter()).min();
            if let (Some(t), Some(u)) = (taken_max, untaken_min) {
                assert!(t <= u, "target={target}");
            }
        }
    }
}
