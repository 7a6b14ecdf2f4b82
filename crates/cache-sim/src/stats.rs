//! Cache-complexity tallies.

use asym_model::CostReport;

/// Counters maintained by every cache policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total cell accesses (reads + writes issued by the program).
    pub accesses: u64,
    /// Accesses served from the cache.
    pub hits: u64,
    /// Block loads from secondary memory (each cost 1).
    pub loads: u64,
    /// Dirty blocks written back to secondary memory (each cost ω).
    pub writebacks: u64,
}

impl CacheStats {
    /// Asymmetric I/O cost `loads + omega * writebacks`.
    pub fn cost(&self, omega: u64) -> u64 {
        self.loads + omega * self.writebacks
    }

    /// As a [`CostReport`] with loads as reads and writebacks as writes.
    pub fn report(&self, omega: u64) -> CostReport {
        CostReport::new(self.loads, self.writebacks, omega)
    }

    /// Element-wise sum.
    pub fn merged(&self, o: &CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses + o.accesses,
            hits: self.hits + o.hits,
            loads: self.loads + o.loads,
            writebacks: self.writebacks + o.writebacks,
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accesses={} hits={} loads={} writebacks={}",
            self.accesses, self.hits, self.loads, self.writebacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_weighs_writebacks() {
        let s = CacheStats {
            accesses: 100,
            hits: 90,
            loads: 10,
            writebacks: 3,
        };
        assert_eq!(s.cost(8), 10 + 24);
        let r = s.report(8);
        assert_eq!(r.reads, 10);
        assert_eq!(r.writes, 3);
    }

    #[test]
    fn empty_stats_have_zero_miss_rate() {
        assert_eq!(CacheStats::default().cost(4), 0);
    }

    #[test]
    fn merged_sums_fields() {
        let a = CacheStats {
            accesses: 1,
            hits: 2,
            loads: 3,
            writebacks: 4,
        };
        let m = a.merged(&a);
        assert_eq!(m.accesses, 2);
        assert_eq!(m.writebacks, 8);
    }

    #[test]
    fn display_contains_counts() {
        let s = CacheStats {
            accesses: 5,
            hits: 4,
            loads: 1,
            writebacks: 0,
        }
        .to_string();
        assert!(s.contains("accesses=5"));
        assert!(s.contains("loads=1"));
    }
}
