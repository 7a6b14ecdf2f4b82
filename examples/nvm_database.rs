//! Bulk-loading a database index on NVM: the paper's motivating workload.
//!
//! ```text
//! cargo run --release --example nvm_database
//! ```
//!
//! A synthetic table of records must be sorted before building a clustered
//! index. On phase-change memory a 512 Mb chip is projected at 16 ns byte
//! reads versus 416 ns byte writes (§2 of the paper, citing Dong et al.),
//! i.e. ω ≈ 26. We sort the table with every algorithm in
//! `Algorithm::ALL` through `asym_core::sort::run` — one `SortSpec` per
//! (algorithm, k) cell, no per-algorithm call sites — at k = 1 (the classic EM algorithms) and
//! write-saving k > 1, then convert block counts into projected device time
//! with those latencies.

use asym_core::sort::{self, Algorithm, SortSpec};
use asym_model::table::{f2, Table};
use asym_model::workload::Workload;

const READ_NS_PER_BLOCK: f64 = 16.0 * 16.0; // 16 records of 16 ns
const WRITE_NS_PER_BLOCK: f64 = 416.0 * 16.0;

fn main() {
    let n = 40_000;
    let omega = 26u64; // projected PCM write/read latency ratio
    let (m, b) = (512usize, 16usize);
    let table_rows = Workload::Zipf.generate(n, 7); // skewed keys, like real ids
    println!(
        "bulk-loading {n} rows through a {m}-record buffer pool, {b}-record pages, omega={omega}\n"
    );

    let mut table = Table::new(
        "projected PCM sort cost (16 ns reads / 416 ns writes per record)",
        &[
            "algorithm",
            "k",
            "block reads",
            "block writes",
            "I/O cost",
            "device ms",
        ],
    );

    for algorithm in Algorithm::ALL {
        // The buffer tree's deep k-sweeps dominate runtime; cap k like a DBA
        // would cap a maintenance window.
        let ks: &[usize] = if algorithm == Algorithm::Heapsort {
            &[1, 8]
        } else {
            &[1, 8, 26]
        };
        for &k in ks {
            let spec = SortSpec::builder(algorithm, m, b, omega)
                .k(k)
                .lanes(if algorithm.is_parallel() { 4 } else { 1 })
                .seed(3)
                .build()
                .expect("valid spec");
            let outcome = sort::run(&spec, &table_rows).expect("sort");
            assert_eq!(outcome.output.len(), n, "{algorithm} must sort every row");
            let s = outcome.stats;
            let ms = (s.block_reads as f64 * READ_NS_PER_BLOCK
                + s.block_writes as f64 * WRITE_NS_PER_BLOCK)
                / 1e6;
            table.row(&[
                algorithm.name().to_string(),
                k.to_string(),
                s.block_reads.to_string(),
                s.block_writes.to_string(),
                outcome.io_cost().to_string(),
                f2(ms),
            ]);
        }
    }
    println!("{table}");
    println!("reading the table: k = 1 rows are the classic EM algorithms; the paper's");
    println!("write-efficient variants (k > 1) trade extra reads for fewer write levels,");
    println!("which is what the projected-milliseconds column rewards at omega = 26.");
    println!("(par-aem-samplesort rows: 4 lanes, merged work totals — same writes as serial.)");
}
