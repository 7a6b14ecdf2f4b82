//! The `kv-mixed` workload: one thread drives an `AsymKv` on the E14
//! geometry, checked op by op against a `BTreeMap` shadow. The engine's
//! compaction service is a `SortService` rooted in a directory the
//! benchmark owns, so its `audit.jsonl` is metered and then deleted.

use crate::sortload::{mix, B, M, OMEGA};
use crate::trace::{Span, Tracer};
use crate::wire::{read_wal, Wal};
use asym_kv::{AsymKv, CompactionService, KvConfig, Policy};
use asym_serve::{ServiceConfig, SortService};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Keys are drawn from `0..KEYS`.
const KEYS: u64 = 100_000;

#[derive(Clone, Copy)]
pub enum Op {
    Put(u64, u64),
    Delete(u64),
    Get(u64),
    Scan(u64, u64),
}

/// `load` puts, then `mixed` ops drawn like the E14 stream of
/// `asym-bench` (`crates/bench/src/e14_kv.rs`): the same xorshift64 step,
/// keys `x % 100_000`, values `x`, one op in ten a delete and one a get.
/// The benchmark adds one named share, scans of 16 consecutive keys, taken
/// from E14's puts: 70% puts, 10% deletes, 10% gets, 10% scans. Two
/// departures from E14: the state starts from the seed, not a constant;
/// and the op kind comes from the high half of `x`, because E14 reads it
/// from `x % 10`, the last digit of the key, so its gets and deletes only
/// ever name keys that no put writes. Returns the ops and the time spent
/// generating them.
pub fn ops(seed: u64, load: usize, mixed: usize) -> (Vec<Op>, Duration) {
    let t = Instant::now();
    let mut x = mix(seed, 7) | 1;
    let ops = (0..load + mixed)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % KEYS;
            if i < load {
                return Op::Put(key, x);
            }
            match (x >> 32) % 10 {
                0 => Op::Delete(key),
                1 => Op::Get(key),
                2 => Op::Scan(key, key + 15),
                _ => Op::Put(key, x),
            }
        })
        .collect();
    (ops, t.elapsed())
}

/// One pass over the op list on a fresh engine and service root.
#[derive(Default)]
pub struct Pass {
    /// Seconds spent inside engine calls.
    pub engine_s: f64,
    pub ops: u64,
    pub writes: u64,
    pub put_plain_us: Vec<f64>,
    pub put_us: Vec<f64>,
    /// Writes during which at least one compaction ran.
    pub compacting_ms: Vec<f64>,
    pub get_us: Vec<f64>,
    pub scan_us: Vec<f64>,
    pub get_probes: u64,
    pub gets: u64,
    pub total_cost: u64,
    pub block_writes: u64,
    pub compactions: u64,
    pub compaction_input_recs: u64,
    pub compaction_reads: u64,
    pub compaction_writes: u64,
    pub errors: Vec<String>,
    pub wal: Wal,
    pub spans: Vec<Span>,
}

/// Open an engine on the E14 geometry (M = 1024, B = 32, memtable 128,
/// k = 4) at ω = 8 with the ω-aware policy, its compaction service rooted
/// at `root`.
pub fn open(root: &Path) -> AsymKv {
    let mut cfg = KvConfig::new(OMEGA).policy(Policy::for_omega(OMEGA));
    cfg.m = M;
    cfg.b = B;
    cfg.memtable_cap = 128;
    cfg.sort_k = Some(4);
    let service = SortService::start(ServiceConfig::new(1, cfg.service_budget_bytes, root))
        .expect("start compaction service");
    AsymKv::with_service(cfg, CompactionService::Local(service)).expect("open engine")
}

impl Pass {
    /// Drop what only the per-layer report reads (samples other than the
    /// compacting writes, the logged requests, the spans), so a long run's
    /// memory does not grow with its pass count.
    pub fn shed(&mut self) {
        self.spans = Vec::new();
        for v in [
            &mut self.put_plain_us,
            &mut self.put_us,
            &mut self.get_us,
            &mut self.scan_us,
        ] {
            *v = Vec::new();
        }
        self.wal.requests = Vec::new();
    }
}

pub fn run_pass(ops: &[Op], root: &Path, tracing: bool, epoch: Instant) -> Pass {
    let mut kv = open(root);
    let mut p = Pass::default();
    let mut tr = Tracer::new(tracing, 0, epoch);
    let mut shadow: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let compactions = kv.compactions().len();
        let reads = kv.engine_stats().block_reads;
        let (result, dur) = match op {
            Op::Put(k, v) => {
                shadow.insert(k, v);
                let (r, d) = timed(&mut tr, "kv.put", || kv.put(k, v));
                (r.map(|()| Answer::Write), d)
            }
            Op::Delete(k) => {
                shadow.remove(&k);
                let (r, d) = timed(&mut tr, "kv.delete", || kv.delete(k));
                (r.map(|()| Answer::Write), d)
            }
            Op::Get(k) => {
                let (r, d) = timed(&mut tr, "kv.get", || kv.get(k));
                (r.map(Answer::Get), d)
            }
            Op::Scan(lo, hi) => {
                let (r, d) = timed(&mut tr, "kv.scan", || kv.scan(lo, hi));
                (r.map(Answer::Scan), d)
            }
        };
        p.engine_s += dur.as_secs_f64();
        p.ops += 1;
        let us = dur.as_secs_f64() * 1e6;
        match (op, result) {
            (_, Err(e)) => p.errors.push(format!("op {i}: {e}")),
            (Op::Put(..) | Op::Delete(_), Ok(_)) => {
                p.writes += 1;
                let put = matches!(op, Op::Put(..));
                if put {
                    p.put_us.push(us);
                }
                if kv.compactions().len() > compactions {
                    p.compacting_ms.push(us / 1e3);
                } else if put {
                    p.put_plain_us.push(us);
                }
            }
            (Op::Get(k), Ok(answer)) => {
                p.gets += 1;
                p.get_probes += kv.engine_stats().block_reads - reads;
                p.get_us.push(us);
                if !matches!(answer, Answer::Get(v) if v == shadow.get(&k).copied()) {
                    p.errors
                        .push(format!("op {i}: get({k}) disagrees with the shadow"));
                }
            }
            (Op::Scan(lo, hi), Ok(answer)) => {
                p.scan_us.push(us);
                let want: Vec<(u64, u64)> = shadow.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                if !matches!(answer, Answer::Scan(got) if got == want) {
                    p.errors.push(format!(
                        "op {i}: scan({lo}, {hi}) disagrees with the shadow"
                    ));
                }
            }
        }
    }
    p.total_cost = kv.total_cost();
    p.block_writes = kv.total_stats().block_writes;
    for c in kv.compactions() {
        p.compactions += 1;
        p.compaction_input_recs += c.input_records as u64;
        p.compaction_reads += c.stats.block_reads;
        p.compaction_writes += c.stats.block_writes;
    }
    drop(kv); // drains the compaction service, closing its log
    match read_wal(root, tracing) {
        Ok(wal) => p.wal = wal,
        Err(e) => p.errors.push(e),
    }
    let _ = std::fs::remove_dir_all(root);
    p.spans = tr.into_spans();
    p
}

enum Answer {
    Write,
    Get(Option<u64>),
    Scan(Vec<(u64, u64)>),
}

fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let span = tr.open("kv", name);
    let t = Instant::now();
    let r = f();
    let d = t.elapsed();
    tr.close(span);
    (r, d)
}
