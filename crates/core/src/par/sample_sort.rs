//! Threaded splitter-based sample sort.
//!
//! This is the wall-clock executor; its modeled counterpart
//! ([`crate::par::par_aem_sample_sort`]) runs the same splitter/partition
//! discipline against per-lane `EmMachine`s and the `wd-sim` scheduler.
//! Both reduce their sorted sample through
//! [`super::splitters::splitters_from_sorted_sample`], so the two executors
//! bucket identically given the same sample.

use super::splitters::{bucket_of, splitters_from_sorted_sample};
use asym_model::Record;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Sort `input` using `threads` worker threads.
///
/// Phases: (1) oversample and pick `threads − 1` splitters; (2) each worker
/// counts its chunk's records per bucket; (3) the threads × buckets count
/// matrix cuts the output, bucket-major, into one disjoint slice per
/// (bucket, worker); (4) each worker scatters its chunk into its slices;
/// (5) workers sort the buckets in parallel.
pub fn par_sample_sort(input: &[Record], threads: usize, seed: u64) -> Vec<Record> {
    let n = input.len();
    let p = threads.max(1);
    if n < 4 * p || p == 1 {
        let mut out = input.to_vec();
        out.sort_unstable();
        return out;
    }
    // Phase 1: splitters from an oversampled host-side sample.
    let mut rng = StdRng::seed_from_u64(seed);
    let oversample = 16 * p;
    let mut sample: Vec<Record> = input
        .choose_multiple(&mut rng, oversample.min(n))
        .copied()
        .collect();
    sample.sort_unstable();
    let splitters = splitters_from_sorted_sample(&sample, p);
    let buckets = splitters.len() + 1;

    // Phase 2: per-worker bucket counts.
    let chunks: Vec<&[Record]> = input.chunks(n.div_ceil(p)).collect();
    let mut counts: Vec<Vec<usize>> = vec![vec![0; buckets]; chunks.len()];
    std::thread::scope(|s| {
        for (my_chunk, my_counts) in chunks.iter().zip(counts.iter_mut()) {
            let splitters = &splitters;
            s.spawn(move || {
                for r in *my_chunk {
                    my_counts[bucket_of(splitters, *r)] += 1;
                }
            });
        }
    });

    // Phase 3: cut the output into buckets, then each bucket into one
    // slice per worker, in worker order.
    let mut output: Vec<Record> = vec![Record::default(); n];
    let bucket_lens = (0..buckets).map(|b| counts.iter().map(|c| c[b]).sum());
    let mut bucket_slices = split_lens(&mut output, bucket_lens);
    let mut dests: Vec<Vec<std::slice::IterMut<Record>>> =
        chunks.iter().map(|_| Vec::with_capacity(buckets)).collect();
    for (b, bucket) in bucket_slices.iter_mut().enumerate() {
        let pieces = split_lens(bucket, counts.iter().map(|c| c[b]));
        for (dest, piece) in dests.iter_mut().zip(pieces) {
            dest.push(piece.iter_mut());
        }
    }

    // Phase 4: parallel scatter, each worker into its own slices.
    std::thread::scope(|s| {
        for (my_chunk, mut my_dests) in chunks.iter().zip(dests) {
            let splitters = &splitters;
            s.spawn(move || {
                for r in *my_chunk {
                    let slot = my_dests[bucket_of(splitters, *r)]
                        .next()
                        .expect("phase 2 counted this record");
                    *slot = *r;
                }
            });
        }
    });

    // Phase 5: sort the buckets in parallel.
    std::thread::scope(|s| {
        for slice in bucket_slices {
            s.spawn(move || slice.sort_unstable());
        }
    });
    output
}

/// Cut `rest` into consecutive slices of the given lengths (which must sum
/// to at most `rest.len()`).
fn split_lens(mut rest: &mut [Record], lens: impl Iterator<Item = usize>) -> Vec<&mut [Record]> {
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        head
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_model::record::assert_sorted_permutation;
    use asym_model::workload::Workload;

    #[test]
    fn sorts_all_workloads_across_thread_counts() {
        for wl in Workload::ALL {
            for threads in [1usize, 2, 4, 7] {
                let input = wl.generate(5000, 3);
                let out = par_sample_sort(&input, threads, 42);
                assert_sorted_permutation(&input, &out);
            }
        }
    }

    #[test]
    fn tiny_inputs_fall_back_to_sequential() {
        for n in [0usize, 1, 5, 15] {
            let input = Workload::UniformRandom.generate(n, 1);
            let out = par_sample_sort(&input, 8, 7);
            assert_sorted_permutation(&input, &out);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let input = Workload::UniformRandom.generate(10_000, 9);
        let a = par_sample_sort(&input, 4, 11);
        let b = par_sample_sort(&input, 4, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_heavy_input() {
        let input = Workload::FewDistinct.generate(8000, 5);
        let out = par_sample_sort(&input, 4, 3);
        assert_sorted_permutation(&input, &out);
    }
}
