//! The record type being sorted.
//!
//! The paper sorts "n records each containing a key" and assumes keys are
//! unique ("a position index can always be added to make them unique"). A
//! [`Record`] is a `u64` key plus a `u64` payload; the standard workload
//! generators (`Workload::ALL`) mirror the paper's convention by making every
//! record distinct via the position index. The sorters themselves no longer
//! rely on it: duplicate records — equal key *and* payload — are handled
//! exactly by tagging each in-flight record with provenance (run index and
//! offset, or scan index) so comparisons stay strict; the duplicate-adversary
//! workloads (`Workload::DUPLICATE_ADVERSARIES`) exercise that path.

/// Largest key value generators will produce (reserving the top value lets
/// algorithms use `u64::MAX` as a +infinity sentinel).
pub const MAX_KEY: u64 = u64::MAX - 1;

/// A sortable record: an ordering key and an opaque payload.
///
/// `Record` is `Copy` and 16 bytes, so counted moves of records model what a
/// real sorter would move. Ordering is by key, then payload. Equal records
/// (same key and payload) are legal inputs everywhere: sorters that need a
/// strict total order add their own provenance tie-break internally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Record {
    /// The comparison key.
    pub key: u64,
    /// Payload carried alongside the key (e.g. the original index, so tests
    /// can verify stability-related properties and permutation preservation).
    pub payload: u64,
}

impl Record {
    /// A record with the given key and payload.
    #[inline]
    pub fn new(key: u64, payload: u64) -> Self {
        Self { key, payload }
    }

    /// A record carrying its own key as payload (convenient in tests).
    #[inline]
    pub fn keyed(key: u64) -> Self {
        Self { key, payload: key }
    }
}

impl PartialOrd for Record {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Record {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.payload).cmp(&(other.key, other.payload))
    }
}

impl std::fmt::Display for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.key, self.payload)
    }
}

/// Returns true iff `data` is sorted by the record ordering.
pub fn is_sorted(data: &[Record]) -> bool {
    data.windows(2).all(|w| w[0] <= w[1])
}

/// Returns true iff `actual` is a permutation of `expected`.
///
/// O(n log n); used as the second half of the "sorting = sorted permutation of
/// the input" oracle in tests.
fn is_permutation(expected: &[Record], actual: &[Record]) -> bool {
    if expected.len() != actual.len() {
        return false;
    }
    let mut a = expected.to_vec();
    let mut b = actual.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// Panics with a readable diff if `output` is not the sorted permutation of
/// `input`. The standard oracle used by unit, property, and integration tests.
pub fn assert_sorted_permutation(input: &[Record], output: &[Record]) {
    assert!(
        is_sorted(output),
        "output is not sorted (first violation at {:?})",
        output
            .windows(2)
            .position(|w| w[0] > w[1])
            .map(|i| (i, output[i], output[i + 1]))
    );
    assert!(
        is_permutation(input, output),
        "output is not a permutation of the input (lengths {} vs {})",
        input.len(),
        output.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_key_then_payload() {
        let a = Record::new(1, 5);
        let b = Record::new(2, 0);
        let c = Record::new(1, 6);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn is_sorted_detects_order() {
        let sorted: Vec<Record> = (0..10).map(Record::keyed).collect();
        assert!(is_sorted(&sorted));
        let mut unsorted = sorted.clone();
        unsorted.swap(3, 7);
        assert!(!is_sorted(&unsorted));
        assert!(is_sorted(&[]));
        assert!(is_sorted(&[Record::keyed(1)]));
    }

    #[test]
    fn is_permutation_detects_multiset_equality() {
        let a: Vec<Record> = (0..8).map(Record::keyed).collect();
        let mut b = a.clone();
        b.reverse();
        assert!(is_permutation(&a, &b));
        b[0] = Record::keyed(99);
        assert!(!is_permutation(&a, &b));
        assert!(!is_permutation(&a, &a[1..]));
    }

    #[test]
    fn oracle_accepts_correct_sort() {
        let input: Vec<Record> = [5u64, 3, 9, 1].iter().map(|&k| Record::keyed(k)).collect();
        let mut output = input.clone();
        output.sort();
        assert_sorted_permutation(&input, &output);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn oracle_rejects_unsorted() {
        let input: Vec<Record> = [2u64, 1].iter().map(|&k| Record::keyed(k)).collect();
        assert_sorted_permutation(&input, &input);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn oracle_rejects_wrong_multiset() {
        let input: Vec<Record> = [2u64, 1].iter().map(|&k| Record::keyed(k)).collect();
        let output: Vec<Record> = [1u64, 3].iter().map(|&k| Record::keyed(k)).collect();
        assert_sorted_permutation(&input, &output);
    }

    #[test]
    fn display_shows_key_and_payload() {
        assert_eq!(Record::new(4, 2).to_string(), "4#2");
    }
}
