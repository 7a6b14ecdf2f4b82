//! Algorithm 1 — the Asymmetric CRCW PRAM sample sort.
//!
//! O(n log n) reads, O(n) writes, O(ω log n) depth w.h.p. Steps (paper
//! numbering):
//!
//! 1. sample records with probability 1/⌈log n⌉ and sort the sample;
//! 2. every ⌈log n⌉-th sample element becomes a splitter, defining
//!    ~n/log² n buckets, each with an array of c·log² n slots;
//! 3. locate each record's bucket by binary search (O(n log n) reads,
//!    n writes of bucket ids);
//! 4. the *placement problem*: each record tries uniformly random slots of
//!    its bucket array until it finds an empty one (CRCW arbitrary-write:
//!    a collision is one failed try). Records are processed in groups of
//!    ⌈log n⌉ — sequential within a group, parallel across groups — so the
//!    depth is the maximum group's total tries, O(log n) w.h.p.;
//! 5. pack out empty slots with a prefix sum;
//! 6. (optional, for O(ω log n) depth) two rounds of Lemma 3.1 splitting
//!    each bucket into sub-buckets of size O(log^{8/9} n ·(log log n)^{5/3});
//! 7. sort each (sub-)bucket with the O(1)-write RAM sort.
//!
//! Every step's measured work-depth cost is recorded in
//! [`PramSortReport::steps`] for the E1 experiment table.

use super::merge_sort::pram_merge_sort;
use super::partition::lemma31_partition;
use super::prefix::prefix_sums;
use crate::ram::tree_sort::tree_sort_with_counter;
use asym_model::{MemCounter, Record};
use rand::rngs::StdRng;
use rand::Rng;
use wd_sim::Cost;

/// Per-step and total measured costs of one Algorithm 1 run.
#[derive(Clone, Debug, Default)]
pub struct PramSortReport {
    /// (step name, cost) in execution order.
    pub steps: Vec<(&'static str, Cost)>,
    /// Total cost (sequential composition of the steps).
    pub total: Cost,
    /// Number of buckets after step 2.
    pub buckets: usize,
    /// Largest bucket (records, not slots).
    pub max_bucket: usize,
    /// Largest sub-bucket handed to the final RAM sort.
    pub max_final_bucket: usize,
    /// Total placement tries in step 4 (expected O(n)).
    pub placement_tries: u64,
}

/// Slot-array head room: arrays have `SLOT_FACTOR · log² n` slots — the
/// paper's requirement is "at least twice as many slots as records" w.h.p.
/// (c in step 2). The slot count directly scales the write constant of the
/// packing step, so we use the minimum factor and let step 4's doubling
/// regrowth cover unlucky buckets.
const SLOT_FACTOR: usize = 2;

/// Sort on the asymmetric CRCW PRAM. `use_step6` enables the Lemma 3.1
/// sub-bucketing rounds that bring the depth to O(ω log n).
pub fn pram_sample_sort(
    input: &[Record],
    omega: u64,
    rng: &mut StdRng,
    use_step6: bool,
) -> (Vec<Record>, PramSortReport) {
    let n = input.len();
    let mut report = PramSortReport::default();
    if n <= 16 {
        let c = MemCounter::new();
        let (out, _) = tree_sort_with_counter(input, &c);
        let cost = Cost::strand(c.reads(), c.writes(), omega);
        report.steps.push(("base", cost));
        report.total = cost;
        report.buckets = 1;
        report.max_bucket = n;
        report.max_final_bucket = n;
        return (out, report);
    }
    let lg = (n as f64).log2().ceil().max(1.0) as usize;

    // Step 1: Bernoulli sample at rate 1/lg, then sort the sample.
    let mut sample: Vec<Record> = Vec::with_capacity(2 * n / lg);
    for &r in input {
        if rng.gen_range(0..lg) == 0 {
            sample.push(r);
        }
    }
    let sample_cost = Cost::par_all((0..n).map(|_| Cost::reads(1))).then(Cost::par_all(
        (0..sample.len()).map(|_| Cost::strand(0, 1, omega)),
    ));
    let (sorted_sample, sort_cost) = pram_merge_sort(&sample, omega);
    let step1 = sample_cost.then(sort_cost);
    report.steps.push(("1:sample+sort", step1));

    // Step 2: every lg-th sample element is a splitter.
    let mut splitters: Vec<Record> = sorted_sample
        .iter()
        .skip(lg - 1)
        .step_by(lg)
        .copied()
        .collect();
    splitters.dedup();
    let buckets = splitters.len() + 1;
    let slots_per_bucket = (SLOT_FACTOR * lg * lg).max(16);
    let step2 = Cost::par_all((0..buckets).map(|_| Cost::strand(1, 1, omega)));
    report.steps.push(("2:splitters", step2));
    report.buckets = buckets;

    // Step 3: binary-search each record's bucket.
    let bucket_of: Vec<u32> = input
        .iter()
        .map(|r| splitters.partition_point(|s| s < r) as u32)
        .collect();
    let search_reads = (splitters.len().max(2)).ilog2() as u64 + 1;
    let step3 = Cost::par_all((0..n).map(|_| Cost::strand(search_reads + 1, 1, omega)));
    report.steps.push(("3:bucket-search", step3));

    // Step 4: random placement into bucket slot arrays. Groups of lg records
    // run sequentially; groups run in parallel, so depth = max group tries.
    let mut slots: Vec<Vec<Option<Record>>> = vec![vec![None; slots_per_bucket]; buckets];
    let mut bucket_fill: Vec<usize> = vec![0; buckets];
    let mut group_costs: Vec<Cost> = Vec::with_capacity(n.div_ceil(lg));
    let mut total_tries = 0u64;
    for group in 0..n.div_ceil(lg) {
        let lo = group * lg;
        let hi = ((group + 1) * lg).min(n);
        let mut group_tries = 0u64;
        for i in lo..hi {
            let b = bucket_of[i] as usize;
            let arr = &mut slots[b];
            // Regrow (doubling) if a bucket overflows its slot array — out
            // of the w.h.p. regime, but the implementation must stay total.
            if bucket_fill[b] * 2 >= arr.len() {
                arr.resize(arr.len() * 2, None);
            }
            loop {
                group_tries += 1;
                let s = rng.gen_range(0..arr.len());
                if arr[s].is_none() {
                    arr[s] = Some(input[i]);
                    bucket_fill[b] += 1;
                    break;
                }
            }
        }
        total_tries += group_tries;
        // Each try: read the slot; the final try also writes the record.
        group_costs.push(Cost::strand(group_tries, (hi - lo) as u64, omega));
    }
    let step4 = Cost::par_all(group_costs);
    report.steps.push(("4:placement", step4));
    report.placement_tries = total_tries;
    report.max_bucket = bucket_fill.iter().copied().max().unwrap_or(0);

    // Step 5: pack out the empty slots with a prefix sum over occupancy.
    let occupancy: Vec<u64> = slots
        .iter()
        .flat_map(|arr| arr.iter().map(|s| u64::from(s.is_some())))
        .collect();
    let (positions, scan_cost) = prefix_sums(&occupancy, omega);
    let mut packed: Vec<Record> = vec![Record::default(); n];
    let mut flat_idx = 0usize;
    for arr in &slots {
        for s in arr {
            if let Some(r) = s {
                packed[positions[flat_idx] as usize] = *r;
            }
            flat_idx += 1;
        }
    }
    let step5 = scan_cost.then(Cost::par_all((0..n).map(|_| Cost::strand(1, 1, omega))));
    report.steps.push(("5:pack", step5));

    // Bucket boundaries within the packed array.
    let mut bucket_ranges: Vec<(usize, usize)> = Vec::with_capacity(buckets);
    {
        let mut start = 0usize;
        for &fill in bucket_fill.iter().take(buckets) {
            let end = start + fill;
            bucket_ranges.push((start, end));
            start = end;
        }
        debug_assert_eq!(start, n);
    }

    // Step 6 (optional): two rounds of Lemma 3.1 per bucket; step 7: RAM
    // sort each final piece. Buckets are independent (parallel).
    let mut out: Vec<Record> = Vec::with_capacity(n);
    let mut bucket_costs: Vec<Cost> = Vec::with_capacity(buckets);
    let mut max_final = 0usize;
    for &(lo, hi) in &bucket_ranges {
        let chunk = &packed[lo..hi];
        if chunk.is_empty() {
            continue;
        }
        let mut pieces: Vec<Vec<Record>> = vec![chunk.to_vec()];
        let mut bucket_cost = Cost::ZERO;
        if use_step6 {
            for _round in 0..2 {
                let mut next: Vec<Vec<Record>> = Vec::new();
                let mut round_costs: Vec<Cost> = Vec::with_capacity(pieces.len());
                for piece in &pieces {
                    let (subs, c, _) = lemma31_partition(piece, omega);
                    round_costs.push(c);
                    next.extend(subs);
                }
                bucket_cost = bucket_cost.then(Cost::par_all(round_costs));
                pieces = next;
            }
        }
        let mut sort_costs: Vec<Cost> = Vec::with_capacity(pieces.len());
        for piece in pieces {
            max_final = max_final.max(piece.len());
            let c = MemCounter::new();
            let (sorted, _) = tree_sort_with_counter(&piece, &c);
            sort_costs.push(Cost::strand(c.reads(), c.writes(), omega));
            out.extend(sorted);
        }
        bucket_cost = bucket_cost.then(Cost::par_all(sort_costs));
        bucket_costs.push(bucket_cost);
    }
    let step67 = Cost::par_all(bucket_costs);
    report.steps.push((
        if use_step6 {
            "6+7:subsort"
        } else {
            "7:bucket-sort"
        },
        step67,
    ));
    report.max_final_bucket = max_final;

    report.total = Cost::seq_all(report.steps.iter().map(|&(_, c)| c));
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_model::record::assert_sorted_permutation;
    use asym_model::workload::Workload;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn sorts_all_workloads() {
        for wl in Workload::ALL {
            for use6 in [false, true] {
                let input = wl.generate(3000, 5);
                let (out, _) = pram_sample_sort(&input, 4, &mut rng(1), use6);
                assert_sorted_permutation(&input, &out);
            }
        }
    }

    #[test]
    fn tiny_inputs() {
        for n in [0usize, 1, 2, 16, 17] {
            let input = Workload::UniformRandom.generate(n, 3);
            let (out, _) = pram_sample_sort(&input, 4, &mut rng(2), true);
            assert_sorted_permutation(&input, &out);
        }
    }

    #[test]
    fn writes_are_linear_reads_nlogn() {
        let omega = 16u64;
        let n = 1 << 14;
        let input = Workload::UniformRandom.generate(n, 7);
        let (_, report) = pram_sample_sort(&input, omega, &mut rng(3), false);
        let nf = n as f64;
        let writes_per_n = report.total.writes as f64 / nf;
        let reads_per_nlogn = report.total.reads as f64 / (nf * nf.log2());
        // The constant is ~21: the packing prefix-sum runs over ~2.6n slots
        // (SLOT_FACTOR plus per-bucket rounding) at ~4 writes/slot, and the
        // per-bucket RAM tree sorts write ~8/record. What the theorem
        // promises — and what the flatness test below verifies — is that
        // this constant does not grow with n, unlike the n·log n baseline.
        assert!(
            writes_per_n < 25.0,
            "writes/n = {writes_per_n:.2} should be O(1)"
        );
        assert!(
            reads_per_nlogn < 8.0,
            "reads/(n lg n) = {reads_per_nlogn:.2} should be O(1)"
        );
    }

    #[test]
    fn writes_per_n_stays_flat_as_n_grows() {
        let omega = 8u64;
        let wpn = |n: usize| {
            let input = Workload::UniformRandom.generate(n, 11);
            let (_, r) = pram_sample_sort(&input, omega, &mut rng(5), false);
            r.total.writes as f64 / n as f64
        };
        let small = wpn(1 << 11);
        let large = wpn(1 << 15);
        assert!(
            large < small * 1.6,
            "writes/n must not grow with n: {small:.2} -> {large:.2}"
        );
    }

    #[test]
    fn step6_reduces_final_bucket_size() {
        let n = 1 << 14;
        let input = Workload::UniformRandom.generate(n, 13);
        let (_, without) = pram_sample_sort(&input, 4, &mut rng(7), false);
        let (_, with) = pram_sample_sort(&input, 4, &mut rng(7), true);
        assert!(
            with.max_final_bucket <= without.max_final_bucket,
            "step 6 must not enlarge final buckets: {} vs {}",
            with.max_final_bucket,
            without.max_final_bucket
        );
    }

    #[test]
    fn placement_tries_are_linear() {
        let n = 1 << 13;
        let input = Workload::UniformRandom.generate(n, 17);
        let (_, report) = pram_sample_sort(&input, 4, &mut rng(9), false);
        assert!(
            report.placement_tries < 3 * n as u64,
            "expected O(1) tries/record, got {} for n={n}",
            report.placement_tries
        );
    }

    #[test]
    fn depth_tracks_omega_log_n() {
        // Theorem 3.2 shape check: depth / (omega * lg n) bounded, and not
        // exploding as n quadruples.
        let ratio = |n: usize, omega: u64| {
            let input = Workload::UniformRandom.generate(n, 19);
            let (_, r) = pram_sample_sort(&input, omega, &mut rng(11), true);
            r.total.depth as f64 / (omega as f64 * (n as f64).log2())
        };
        let r1 = ratio(1 << 12, 8);
        let r2 = ratio(1 << 14, 8);
        // The substitute sample sorter costs an extra log factor in depth
        // (the Cole substitute in the `pram` module doc); allow generous
        // slack but catch quadratic blowups.
        assert!(
            r2 / r1 < 4.0,
            "depth/(omega lg n) growing too fast: {r1:.1} -> {r2:.1}"
        );
    }

    #[test]
    fn report_step_names_in_order() {
        let input = Workload::UniformRandom.generate(2048, 23);
        let (_, r) = pram_sample_sort(&input, 4, &mut rng(13), true);
        let names: Vec<&str> = r.steps.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            vec![
                "1:sample+sort",
                "2:splitters",
                "3:bucket-search",
                "4:placement",
                "5:pack",
                "6+7:subsort"
            ]
        );
        assert!(r.total.reads > 0 && r.total.writes > 0 && r.total.depth > 0);
    }
}
