//! Deterministic input generators.
//!
//! Every experiment in this reproduction takes its input from one of these
//! generators, seeded explicitly so all runs are replayable. The paper's
//! bounds are comparison-based and hold for any input; the harness runs
//! several distributions to confirm the measured counts are input-insensitive
//! (and to stress randomized pieces like splitter sampling with skew).

use crate::record::{Record, MAX_KEY};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// The input distributions used across experiments.
///
/// ```
/// use asym_model::workload::Workload;
/// let records = Workload::UniformRandom.generate(100, 42);
/// assert_eq!(records.len(), 100);
/// assert_eq!(records, Workload::UniformRandom.generate(100, 42)); // seeded
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Uniformly random unique keys.
    UniformRandom,
    /// Already sorted ascending.
    Sorted,
    /// Sorted descending.
    Reversed,
    /// Sorted, then a fraction of random adjacent-ish swaps (~5% of n).
    NearlySorted,
    /// Only `sqrt(n)` distinct key values (duplicates broken by payload).
    FewDistinct,
    /// Zipf-distributed key popularity (heavy skew; duplicates broken by payload).
    Zipf,
    /// Organ pipe: ascending then descending.
    OrganPipe,
    /// Every record byte-identical (key and payload): the worst-case
    /// duplicate adversary. Unlike the [`Workload::ALL`] generators, payloads
    /// are *not* rewritten to positions — the duplicates are real.
    AllIdentical,
    /// ~90% duplicates: `max(1, n/10)` distinct records, each drawn with
    /// replacement, payloads equal among twins (real duplicates).
    DuplicateHeavy,
}

impl Workload {
    /// All unique-record generator variants (handy for exhaustive test
    /// loops). The duplicate adversaries are deliberately *not* in this list:
    /// many harnesses compare against references that assume distinct
    /// records (e.g. the RAM red-black tree sort, whose set semantics drop
    /// duplicates) — they opt into [`Workload::DUPLICATE_ADVERSARIES`]
    /// explicitly.
    pub const ALL: [Workload; 7] = [
        Workload::UniformRandom,
        Workload::Sorted,
        Workload::Reversed,
        Workload::NearlySorted,
        Workload::FewDistinct,
        Workload::Zipf,
        Workload::OrganPipe,
    ];

    /// The duplicate-record adversaries: inputs with repeated `(key,
    /// payload)` pairs that stress the sorters' tie handling.
    pub const DUPLICATE_ADVERSARIES: [Workload; 2] =
        [Workload::AllIdentical, Workload::DuplicateHeavy];

    /// Short stable name used in table output.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::UniformRandom => "uniform",
            Workload::Sorted => "sorted",
            Workload::Reversed => "reversed",
            Workload::NearlySorted => "nearly-sorted",
            Workload::FewDistinct => "few-distinct",
            Workload::Zipf => "zipf",
            Workload::OrganPipe => "organ-pipe",
            Workload::AllIdentical => "all-identical",
            Workload::DuplicateHeavy => "duplicate-heavy",
        }
    }

    /// Parse a generator from its [`Workload::name`] (job descriptions
    /// arriving over the wire name their input distribution). Covers the
    /// duplicate adversaries too, so jobs can request them.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .chain(Workload::DUPLICATE_ADVERSARIES)
            .find(|wl| wl.name() == name)
    }

    /// True for the [`Workload::ALL`] generators, whose records are made
    /// distinct by rewriting payloads to positions; false for the duplicate
    /// adversaries, which keep their repeated records.
    fn unique_records(&self) -> bool {
        !matches!(self, Workload::AllIdentical | Workload::DuplicateHeavy)
    }

    /// Generate `n` records. For the [`Workload::ALL`] generators the
    /// payload is the original index (making every record distinct); the
    /// duplicate adversaries skip that rewrite so their duplicates survive.
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000);
        let mut out: Vec<Record> = match self {
            Workload::UniformRandom => {
                let mut keys = unique_uniform_keys(n, &mut rng);
                keys.shuffle(&mut rng);
                keys.into_iter().map(Record::keyed).collect()
            }
            Workload::Sorted => {
                let mut keys = unique_uniform_keys(n, &mut rng);
                keys.sort_unstable();
                keys.into_iter().map(Record::keyed).collect()
            }
            Workload::Reversed => {
                let mut keys = unique_uniform_keys(n, &mut rng);
                keys.sort_unstable();
                keys.reverse();
                keys.into_iter().map(Record::keyed).collect()
            }
            Workload::NearlySorted => {
                let mut keys = unique_uniform_keys(n, &mut rng);
                keys.sort_unstable();
                let swaps = n / 20;
                for _ in 0..swaps {
                    if n < 2 {
                        break;
                    }
                    let i = rng.gen_range(0..n);
                    let j = (i + 1 + rng.gen_range(0..8.min(n))) % n;
                    keys.swap(i, j);
                }
                keys.into_iter().map(Record::keyed).collect()
            }
            Workload::FewDistinct => {
                let distinct = (n as f64).sqrt().ceil().max(1.0) as u64;
                (0..n)
                    .map(|_| Record::new(rng.gen_range(0..distinct), 0))
                    .collect()
            }
            Workload::Zipf => (0..n)
                .map(|_| Record::new(zipf_sample(n.max(2) as u64, 1.1, &mut rng), 0))
                .collect(),
            Workload::OrganPipe => {
                let half = n / 2;
                let mut keys: Vec<u64> = (0..half as u64).collect();
                keys.extend((0..(n - half) as u64).rev());
                keys.into_iter().map(Record::keyed).collect()
            }
            Workload::AllIdentical => {
                let key = rng.gen_range(0..=MAX_KEY);
                vec![Record::new(key, key); n]
            }
            Workload::DuplicateHeavy => {
                let distinct = (n / 10).max(1) as u64;
                (0..n)
                    .map(|_| {
                        let d = rng.gen_range(0..distinct);
                        Record::new(d, d)
                    })
                    .collect()
            }
        };
        // Payload = original position, which makes all records distinct (the
        // paper's uniqueness-by-index convention) — except for the duplicate
        // adversaries, whose whole point is repeated records.
        if self.unique_records() {
            for (i, r) in out.iter_mut().enumerate() {
                r.payload = i as u64;
            }
        }
        out
    }
}

/// `n` unique uniformly distributed keys in `[0, MAX_KEY]`, ascendingly biased
/// rejection-free construction: sample with replacement, then deduplicate by
/// mixing in a counter (key space is 2^64 so collisions are already rare).
///
/// The collision walk draws nothing, so every key is one draw and the stream
/// is the same whether or not a key repeats. The keys are therefore drawn
/// first and checked for a repeat in cache-sized buckets; only on a repeat
/// are the same draws rerun through the key set ([`walked_unique_keys`]),
/// which gives the same keys and leaves `rng` where the fast path does.
fn unique_uniform_keys(n: usize, rng: &mut StdRng) -> Vec<u64> {
    let start = rng.clone();
    let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=MAX_KEY)).collect();
    if !has_repeat(&keys) {
        return keys;
    }
    *rng = start;
    walked_unique_keys(n, rng)
}

/// [`unique_uniform_keys`] through the key set: each draw that repeats an
/// earlier key walks on by a fixed odd step until it is new.
fn walked_unique_keys(n: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut keys: Vec<u64> = Vec::with_capacity(n);
    let mut used =
        HashSet::with_capacity_and_hasher(n * 2, BuildHasherDefault::<KeyHasher>::default());
    while keys.len() < n {
        let mut k = rng.gen_range(0..=MAX_KEY);
        while !used.insert(k) {
            k = k.wrapping_add(0x9e37_79b9_7f4a_7c15) & MAX_KEY;
        }
        keys.push(k);
    }
    keys
}

/// Keys per bucket of [`has_repeat`], on average: a bucket's open-addressed
/// table (twice as many slots, 8 bytes each) stays within a 64 KB cache.
const REPEAT_BUCKET: usize = 4096;

/// Whether any key in `keys` (each at most [`MAX_KEY`]) occurs twice. The
/// keys are split by their top bits into buckets of about
/// [`REPEAT_BUCKET`], so equal keys share a bucket, and each bucket is
/// checked in a small open-addressed table; `u64::MAX`, above every key,
/// marks an empty slot.
fn has_repeat(keys: &[u64]) -> bool {
    let bits = (keys.len() / REPEAT_BUCKET)
        .next_power_of_two()
        .trailing_zeros();
    let bucket = |k: u64| k.checked_shr(u64::BITS - bits).unwrap_or(0) as usize;
    let mut starts = vec![0usize; (1 << bits) + 1];
    for &k in keys {
        starts[bucket(k) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut grouped = vec![0u64; keys.len()];
    let mut next = starts.clone();
    for &k in keys {
        let b = bucket(k);
        grouped[next[b]] = k;
        next[b] += 1;
    }
    let mut table = Vec::new();
    starts.windows(2).any(|w| {
        let part = &grouped[w[0]..w[1]];
        let slots = (2 * part.len()).next_power_of_two();
        table.clear();
        table.resize(slots, u64::MAX);
        let shift = u64::BITS - slots.trailing_zeros();
        part.iter().any(|&k| {
            let mut i = k
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .checked_shr(shift)
                .unwrap_or(0) as usize;
            loop {
                match table[i] {
                    u64::MAX => {
                        table[i] = k;
                        return false;
                    }
                    t if t == k => return true,
                    _ => i = (i + 1) & (slots - 1),
                }
            }
        })
    })
}

/// A one-multiply hasher for the key set of [`walked_unique_keys`]. The
/// keys are uniform draws, so SipHash's flood resistance buys nothing, and
/// the generated keys depend only on the set's membership, which no hasher
/// changes.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the key set hashes u64 keys only")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (key ^ (key >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Approximate Zipf(s) sampler over `[0, n)` by inverse transform on the
/// truncated harmonic series (adequate for workload skew; not a statistics
/// library).
fn zipf_sample(n: u64, s: f64, rng: &mut StdRng) -> u64 {
    // Inverse-CDF via the integral approximation of the generalized harmonic
    // numbers: H(x) ~ (x^{1-s} - 1) / (1 - s).
    let h = |x: f64| ((x + 1.0).powf(1.0 - s) - 1.0) / (1.0 - s);
    let total = h(n as f64);
    let u: f64 = rng.gen_range(0.0..1.0) * total;
    // Invert: x = (u * (1-s) + 1)^{1/(1-s)} - 1.
    let x = (u * (1.0 - s) + 1.0).powf(1.0 / (1.0 - s)) - 1.0;
    (x.max(0.0) as u64).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::is_sorted;

    /// FNV-1a over every record's key and payload words.
    fn digest(records: &[Record]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in records {
            for word in [r.key, r.payload] {
                h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn generated_records_are_pinned() {
        // Digests of 5000 records at seeds 1 and 0xDEAD. Every experiment
        // table and frozen cost assumes these exact inputs, so a faster
        // generator must reproduce them bit for bit.
        let pinned = [
            (
                Workload::UniformRandom,
                [0xf6d217df4dad2898, 0x35b487e7fad994bd],
            ),
            (Workload::Sorted, [0xe18bf6b88f1a9a04, 0x3f5e4b2084e83aed]),
            (Workload::Reversed, [0x0770e10d36d37608, 0x445088fdd794fae9]),
            (
                Workload::NearlySorted,
                [0xc17a7ad05d2d112c, 0xa51cd162979953dd],
            ),
            (
                Workload::FewDistinct,
                [0x4d503cefe44418f7, 0xa8b8a775d4dcd489],
            ),
            (Workload::Zipf, [0xf0130af8cac9cb10, 0x7865d60c03f08450]),
            (
                Workload::OrganPipe,
                [0xcb40b8ceeec71391, 0xcb40b8ceeec71391],
            ),
            (
                Workload::AllIdentical,
                [0xc4193ba3f9951765, 0x4023849bde661365],
            ),
            (
                Workload::DuplicateHeavy,
                [0xc830694399bfb4fb, 0x8c03e80b3ad69759],
            ),
        ];
        for (wl, digests) in pinned {
            for (seed, expect) in [1, 0xDEAD].into_iter().zip(digests) {
                let got = digest(&wl.generate(5000, seed));
                assert_eq!(got, expect, "{} at seed {seed:#x}", wl.name());
            }
        }
    }

    #[test]
    fn names_parse_back_to_their_generator() {
        for wl in Workload::ALL
            .into_iter()
            .chain(Workload::DUPLICATE_ADVERSARIES)
        {
            assert_eq!(Workload::parse(wl.name()), Some(wl));
        }
        assert_eq!(Workload::parse("gaussian"), None);
    }

    #[test]
    fn generators_produce_requested_length() {
        for wl in Workload::ALL
            .into_iter()
            .chain(Workload::DUPLICATE_ADVERSARIES)
        {
            for n in [0usize, 1, 2, 17, 256] {
                let v = wl.generate(n, 42);
                assert_eq!(v.len(), n, "{} length", wl.name());
            }
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for wl in Workload::ALL
            .into_iter()
            .chain(Workload::DUPLICATE_ADVERSARIES)
        {
            let a = wl.generate(100, 7);
            let b = wl.generate(100, 7);
            let c = wl.generate(100, 8);
            assert_eq!(a, b, "{} must be deterministic", wl.name());
            if wl != Workload::Sorted && wl != Workload::OrganPipe && wl != Workload::Reversed {
                assert_ne!(a, c, "{} should vary with seed", wl.name());
            }
        }
    }

    #[test]
    fn payloads_are_positions_and_records_unique() {
        for wl in Workload::ALL {
            let v = wl.generate(500, 3);
            for (i, r) in v.iter().enumerate() {
                assert_eq!(r.payload, i as u64);
            }
            let mut set: Vec<Record> = v.clone();
            set.sort_unstable();
            set.dedup();
            assert_eq!(set.len(), v.len(), "{} records must be unique", wl.name());
        }
    }

    #[test]
    fn sorted_workload_is_sorted_and_reversed_is_descending() {
        let s = Workload::Sorted.generate(200, 1);
        assert!(is_sorted(&s));
        let r = Workload::Reversed.generate(200, 1);
        assert!(r.windows(2).all(|w| w[0].key >= w[1].key));
    }

    #[test]
    fn few_distinct_has_few_distinct_keys() {
        let v = Workload::FewDistinct.generate(10_000, 5);
        let mut keys: Vec<u64> = v.iter().map(|r| r.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert!(keys.len() <= 140, "expected ~sqrt(n)=100 distinct keys");
    }

    #[test]
    fn zipf_is_skewed_toward_small_keys() {
        let v = Workload::Zipf.generate(10_000, 5);
        let small = v.iter().filter(|r| r.key < 10).count();
        assert!(
            small > v.len() / 4,
            "zipf should concentrate mass on small keys, got {small}"
        );
    }

    #[test]
    fn organ_pipe_rises_then_falls() {
        let v = Workload::OrganPipe.generate(10, 0);
        let keys: Vec<u64> = v.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn all_identical_records_really_are_identical() {
        let v = Workload::AllIdentical.generate(500, 11);
        assert!(v.windows(2).all(|w| w[0] == w[1]));
        assert!(!v.is_empty() && v[0].key <= MAX_KEY);
        assert!(!Workload::AllIdentical.unique_records());
    }

    #[test]
    fn duplicate_heavy_is_mostly_duplicates() {
        let v = Workload::DuplicateHeavy.generate(1000, 11);
        let mut set = v.clone();
        set.sort_unstable();
        set.dedup();
        assert!(
            set.len() <= v.len() / 10,
            "expected <= n/10 distinct records, got {}",
            set.len()
        );
        assert!(!Workload::DuplicateHeavy.unique_records());
    }

    /// The bucketed fast path gives the keys the key set gives, and leaves
    /// the generator where the key set leaves it, across sizes that make
    /// one bucket, several, and a partial last one.
    #[test]
    fn fast_unique_keys_equal_the_key_set_walk() {
        for n in [0, 1, 2, 100, 4095, 4097, 20_000, 70_001] {
            for seed in [0, 1, 7, 0xDEAD] {
                let mut fast = StdRng::seed_from_u64(seed);
                let mut walked = fast.clone();
                let keys = unique_uniform_keys(n, &mut fast);
                assert_eq!(
                    keys,
                    walked_unique_keys(n, &mut walked),
                    "n={n} seed={seed}"
                );
                let next = |rng: &mut StdRng| rng.gen_range(0..=u64::MAX);
                assert_eq!(next(&mut fast), next(&mut walked), "n={n} seed={seed}");
            }
        }
    }

    /// A planted repeat is found wherever it lands: in the first, a
    /// middle and the last bucket, at the edges of the key range, and
    /// next to its twin or far from it.
    #[test]
    fn has_repeat_finds_a_planted_duplicate_in_any_bucket() {
        let mut rng = StdRng::seed_from_u64(3);
        let keys: Vec<u64> = (0..3 * REPEAT_BUCKET + 17)
            .map(|_| rng.gen_range(0..=MAX_KEY))
            .collect();
        assert!(!has_repeat(&keys));
        assert!(!has_repeat(&[]) && !has_repeat(&[MAX_KEY]));
        let mut by_key: Vec<usize> = (0..keys.len()).collect();
        by_key.sort_unstable_by_key(|&i| keys[i]);
        let n = keys.len();
        // Twin pairs: the smallest and largest keys (first and last
        // buckets), a middle one, and neighbours in position.
        for (from, to) in [
            (by_key[0], by_key[n - 1]),
            (by_key[n - 1], 0),
            (by_key[n / 2], n - 1),
            (5, 6),
        ] {
            let mut planted = keys.clone();
            planted[to] = planted[from];
            assert!(has_repeat(&planted), "key {} copied to {to}", planted[from]);
        }
        for edge in [0, MAX_KEY] {
            let mut planted = keys.clone();
            planted[1] = edge;
            planted[n - 2] = edge;
            assert!(has_repeat(&planted), "edge key {edge}");
        }
    }

    #[test]
    fn uniform_keys_stay_below_sentinel() {
        let v = Workload::UniformRandom.generate(1000, 9);
        assert!(v.iter().all(|r| r.key <= MAX_KEY));
    }
}
