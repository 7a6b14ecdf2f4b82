//! E2 — Lemma 3.1: m records split into ⌈m^{1/3}⌉ ordered buckets with max
//! bucket < m^{2/3} log m, in O(m log m) reads and O(m) writes.

use crate::Scale;
use asym_core::pram::lemma31_partition;
use asym_model::table::{f3, Table};
use asym_model::workload::Workload;

/// Run E2.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let omega = 8u64;
    let max_exp = scale.pick(12u32, 16, 18);
    let mut t = Table::new(
        "E2: Lemma 3.1 partition quality and cost",
        &[
            "m",
            "buckets",
            "max bucket",
            "bound m^(2/3) lg m",
            "headroom",
            "reads/(m lg m)",
            "writes/m",
        ],
    );
    for e in (9..=max_exp).step_by(3) {
        let m = 1usize << e;
        let input = Workload::UniformRandom.generate(m, e as u64);
        let (buckets, cost, stats) = lemma31_partition(&input, omega);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), m);
        let mf = m as f64;
        t.row(&[
            m.to_string(),
            stats.buckets.to_string(),
            stats.max_bucket.to_string(),
            stats.bound.to_string(),
            f3(stats.bound as f64 / stats.max_bucket.max(1) as f64),
            f3(cost.reads as f64 / (mf * mf.log2())),
            f3(cost.writes as f64 / mf),
        ]);
    }
    t.note("headroom > 1 on every row = the lemma's bucket-size guarantee holds");
    vec![t]
}
