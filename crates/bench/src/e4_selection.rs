//! E4 — Lemma 4.2: the k-pass selection sort base case uses at most
//! ⌈n/M⌉·⌈n/B⌉ ≤ k⌈n/B⌉ reads and exactly ⌈n/B⌉ writes. Checked as exact
//! inequalities across machine shapes.

use crate::Scale;
use asym_core::em::selection_sort;
use asym_model::table::Table;
use asym_model::workload::Workload;
use em_sim::{EmConfig, EmVec};

/// Run E4.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "E4: Lemma 4.2 exact bounds (reads <= passes*(n/B), writes == n/B)",
        &[
            "M",
            "B",
            "n",
            "passes",
            "reads",
            "read bound",
            "writes",
            "exact?",
        ],
    );
    let shapes: &[(usize, usize)] = &[(32, 4), (64, 8), (128, 16), (256, 16)];
    let factor = scale.pick(2usize, 5, 9);
    for &(m, b) in shapes {
        for mult in 1..=factor {
            let n = mult * m - mult; // deliberately unaligned
            let em = crate::machine(EmConfig::new(m, b, 8).with_slack(2 * b));
            let input = Workload::Reversed.generate(n, 0xE4);
            let v = EmVec::stage(&em, &input);
            em.reset_stats();
            let sorted = selection_sort(&em, &v, mult).expect("sort");
            assert_eq!(sorted.len(), n);
            let s = em.stats();
            let blocks = n.div_ceil(b) as u64;
            let passes = n.div_ceil(m) as u64;
            let ok = s.block_reads <= passes * blocks && s.block_writes == blocks;
            assert!(ok, "bound violated at M={m} B={b} n={n}");
            t.row(&[
                m.to_string(),
                b.to_string(),
                n.to_string(),
                passes.to_string(),
                s.block_reads.to_string(),
                (passes * blocks).to_string(),
                s.block_writes.to_string(),
                "yes".into(),
            ]);
        }
    }
    t.note("'exact?' asserts the lemma inequalities, not just the O-shape");
    vec![t]
}
