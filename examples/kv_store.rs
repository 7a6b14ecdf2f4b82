//! Key-value stores on an asymmetric memory (§3's dictionary claim, plus
//! the full ω-aware LSM engine).
//!
//! ```text
//! cargo run --release --example kv_store
//! ```
//!
//! Part 1 — flat stores: an update-heavy workload (puts, overwrites,
//! deletes, lookups) runs through the red-black-tree dictionary, which
//! performs O(log n) reads but only O(1) amortized writes per update,
//! against the sorted-array strawman from `asym_kv::baseline` — the "just
//! keep it compact" store paying Θ(n) record moves per update. At PCM-like
//! ω the asymmetric cost gap is the point of the section.
//!
//! Part 2 — the real engine: the same stream goes through [`asym_kv`]'s
//! LSM engine twice, once per compaction style, with every compaction
//! submitted to the sort service as a `predict()`-priced job. Tiering
//! trades probe reads for far fewer ω-weighted writes — the E14 frontier,
//! live.

use asym_core::ram::dict::RamDictionary;
use asym_kv::baseline::SortedArrayStore;
use asym_kv::{AsymKv, CompactionStyle, KvConfig, Policy};
use asym_model::table::{f2, f3, Table};
use asym_model::{CostModel, MemCounter};
use rand::{Rng, SeedableRng};

fn main() {
    let ops = 60_000usize;
    let key_space = 20_000u64;
    println!("update-heavy KV workload: {ops} ops over {key_space} keys\n");

    let mut table = Table::new(
        "write-efficient dictionary vs sorted-array store",
        &[
            "store",
            "reads/op",
            "writes/op",
            "cost/op @ omega=8",
            "cost/op @ omega=26",
        ],
    );

    // Run the identical op stream through both flat stores. The sorted
    // array lives in asym_kv::baseline now, with the unified charging rule:
    // a probe of an empty store reads nothing (the in-example version used
    // to charge one read for it).
    let dict_counter = MemCounter::new();
    let array_counter = MemCounter::new();
    let mut dict = RamDictionary::new(dict_counter.clone());
    let mut array = SortedArrayStore::new(array_counter.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
    for _ in 0..ops {
        let k = rng.gen_range(0..key_space);
        match rng.gen_range(0..10) {
            0..=4 => {
                let v = rng.gen_range(0..1_000_000);
                dict.insert(k, v);
                array.put(k, v);
            }
            5 => {
                let a = dict.remove(k).is_some();
                let b = array.delete(k);
                assert_eq!(a, b, "stores must agree on deletions");
            }
            _ => {
                assert_eq!(dict.get(k), array.get(k), "stores must agree on reads");
            }
        }
    }
    for (name, c) in [
        ("rb-dictionary", &dict_counter),
        ("sorted-array", &array_counter),
    ] {
        let per = |x: u64| x as f64 / ops as f64;
        table.row(&[
            name.to_string(),
            f3(per(c.reads())),
            f3(per(c.writes())),
            f2(per(CostModel::new(8).cost_of(c))),
            f2(per(CostModel::new(26).cost_of(c))),
        ]);
    }
    println!("{table}");
    println!("every answer was cross-checked between the two stores during the run;");
    println!("the dictionary's O(1) writes/op is what survives an omega = 26 memory.\n");

    // Part 2: block-granular LSM engine, compactions as admitted merge jobs.
    let omega = 8u64;
    let lsm_ops = 12_000u64;
    let mut lsm = Table::new(
        format!("asym-kv LSM engine, {lsm_ops} ops, omega={omega} (engine + compaction jobs)"),
        &[
            "style",
            "T",
            "reads",
            "writes",
            "cost/op",
            "compaction jobs",
        ],
    );
    for style in [CompactionStyle::Leveling, CompactionStyle::Tiering] {
        let mut cfg = KvConfig::new(omega);
        cfg.m = 1024;
        cfg.b = 32;
        cfg.memtable_cap = 128;
        cfg.policy = Policy::fixed(style, 4);
        let mut kv = AsymKv::new(cfg).expect("engine");
        let mut x = 0x5EED_u64;
        for _ in 0..lsm_ops {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % key_space;
            match x % 10 {
                0 => {
                    kv.delete(key).expect("delete");
                }
                1 => {
                    let _ = kv.get(key).expect("get");
                }
                _ => kv.put(key, x).expect("put"),
            }
        }
        kv.flush().expect("flush");
        let stats = kv.total_stats();
        lsm.row(&[
            style.name().to_string(),
            kv.config().policy.t.to_string(),
            stats.block_reads.to_string(),
            stats.block_writes.to_string(),
            f2(kv.total_cost() as f64 / lsm_ops as f64),
            kv.compactions().len().to_string(),
        ]);
    }
    lsm.note("every compaction was a merge job priced by predict() and admitted by the service");
    println!("{lsm}");
    let chosen = Policy::for_omega(omega);
    println!(
        "Policy::for_omega({omega}) would pick {} with T={} for a 90%-update workload.",
        chosen.style.name(),
        chosen.t
    );
}
