//! Brent's-theorem running-time bounds.

use crate::cost::Cost;

/// Running time of a computation with cost `c` on `p` processors under write
/// cost `omega`:
///
/// `T(n, p) = (ω·w(n) + r(n)) / p + d(n)`
///
/// (§2 of the paper, assuming work can be allocated to processors
/// efficiently).
pub fn time_on(c: Cost, p: u64, omega: u64) -> u64 {
    assert!(p >= 1, "need at least one processor");
    (omega * c.writes + c.reads).div_ceil(p) + c.depth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_processor_time_is_work_plus_depth() {
        let c = Cost::strand(100, 10, 4);
        assert_eq!(time_on(c, 1, 4), 140 + c.depth);
    }

    #[test]
    fn many_processors_leave_depth() {
        let c = Cost {
            reads: 1000,
            writes: 0,
            depth: 10,
        };
        assert_eq!(time_on(c, 1_000_000, 1), 1 + 10);
    }

    #[test]
    fn time_decreases_with_processors() {
        let c = Cost {
            reads: 10_000,
            writes: 1_000,
            depth: 50,
        };
        let t1 = time_on(c, 1, 8);
        let t4 = time_on(c, 4, 8);
        let t16 = time_on(c, 16, 8);
        assert!(t1 > t4 && t4 > t16);
        assert!(t16 >= c.depth);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_processors_rejected() {
        let _ = time_on(Cost::ZERO, 0, 1);
    }
}
