//! Splitter selection shared by the threaded and the modeled parallel
//! sample sorts.
//!
//! Both sorts reduce a sorted oversample to at most `buckets − 1` strictly
//! increasing splitters the same way, so the two executors partition
//! identically given the same sample. The modeled sort additionally needs
//! its *sample membership* to be a pure function of `(seed, global index)`
//! — not of how the input is chunked across lanes — so that the bucket
//! boundaries, and with them the merged write totals, cannot depend on the
//! lane count. [`sampled`] provides that: a splitmix64-style hash of the
//! record's global index decides membership, which every lane can evaluate
//! locally while scanning its own chunk.

use asym_model::Record;

/// The evenly spaced pick positions inside a sorted sample of `len`
/// elements for a `buckets`-way split (deduplicated, strictly increasing).
/// Exposed separately so the modeled sort can *stream* the sorted sample
/// off disk and keep only these positions, instead of holding the whole
/// sample in primary memory.
pub(crate) fn splitter_positions(len: usize, buckets: usize) -> Vec<usize> {
    if len == 0 || buckets < 2 {
        return Vec::new();
    }
    let mut positions: Vec<usize> = (1..buckets).map(|i| i * len / buckets).collect();
    positions.dedup();
    positions
}

/// Collapse equal picks into strictly increasing splitters (heavily skewed
/// samples yield fewer, coarser buckets instead of empty ones).
pub(crate) fn dedup_splitters(mut picks: Vec<Record>) -> Vec<Record> {
    debug_assert!(picks.windows(2).all(|w| w[0] <= w[1]), "picks not sorted");
    picks.dedup();
    picks
}

/// Reduce a **sorted** sample to at most `buckets − 1` strictly increasing
/// splitters ([`splitter_positions`] then [`dedup_splitters`]).
pub(crate) fn splitters_from_sorted_sample(sample: &[Record], buckets: usize) -> Vec<Record> {
    debug_assert!(sample.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    dedup_splitters(
        splitter_positions(sample.len(), buckets)
            .into_iter()
            .map(|i| sample[i])
            .collect(),
    )
}

/// The bucket of `r` under `splitters`: the index of the first splitter
/// `≥ r`, so bucket `j` holds keys in `(S[j−1], S[j]]` with the overflow
/// bucket above the last splitter. The same rule the serial AEM sample sort
/// uses.
pub(crate) fn bucket_of(splitters: &[Record], r: Record) -> usize {
    splitters.partition_point(|s| *s < r)
}

/// Whether the record at `global index` belongs to the sample, targeting
/// `target` of `n` records in expectation. Deterministic in
/// `(seed, index)` alone — chunking the scan across lanes cannot change the
/// sample — and exactly all-in when `target ≥ n`.
pub(crate) fn sampled(seed: u64, index: u64, n: u64, target: u64) -> bool {
    if target >= n {
        return true;
    }
    splitmix64(seed ^ splitmix64(index)) % n < target
}

/// The splitmix64 mixing function (public-domain constants); a cheap,
/// high-quality 64-bit hash for per-index sampling decisions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(keys: &[u64]) -> Vec<Record> {
        keys.iter().map(|&k| Record::keyed(k)).collect()
    }

    #[test]
    fn splitters_are_strictly_increasing_and_bounded() {
        let sample = recs(&[1, 2, 3, 5, 5, 5, 8, 9, 12, 20]);
        for buckets in [2usize, 3, 4, 8] {
            let s = splitters_from_sorted_sample(&sample, buckets);
            assert!(s.len() < buckets);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
        }
    }

    #[test]
    fn skewed_sample_collapses_instead_of_emptying() {
        let sample = recs(&[7; 50]);
        let s = splitters_from_sorted_sample(&sample, 8);
        assert_eq!(s, recs(&[7]));
        assert!(splitters_from_sorted_sample(&[], 4).is_empty());
        assert!(splitters_from_sorted_sample(&sample, 1).is_empty());
    }

    #[test]
    fn bucket_rule_matches_the_serial_convention() {
        let s = recs(&[10, 20]);
        assert_eq!(bucket_of(&s, Record::keyed(5)), 0);
        assert_eq!(bucket_of(&s, Record::keyed(10)), 0); // equal goes low
        assert_eq!(bucket_of(&s, Record::keyed(11)), 1);
        assert_eq!(bucket_of(&s, Record::keyed(20)), 1);
        assert_eq!(bucket_of(&s, Record::keyed(21)), 2);
        assert_eq!(bucket_of(&[], Record::keyed(3)), 0);
    }

    #[test]
    fn sampling_is_index_deterministic_and_near_target() {
        let (n, target) = (10_000u64, 500u64);
        let picks: Vec<u64> = (0..n).filter(|&i| sampled(42, i, n, target)).collect();
        let again: Vec<u64> = (0..n).filter(|&i| sampled(42, i, n, target)).collect();
        assert_eq!(picks, again, "membership must be a pure function");
        // Within a loose factor of the expectation.
        assert!(picks.len() as u64 > target / 3, "{}", picks.len());
        assert!((picks.len() as u64) < target * 3, "{}", picks.len());
        // Different seeds pick different sets.
        let other: Vec<u64> = (0..n).filter(|&i| sampled(43, i, n, target)).collect();
        assert_ne!(picks, other);
        // Saturated target takes everything.
        assert!((0..50).all(|i| sampled(7, i, 50, 50)));
    }
}
