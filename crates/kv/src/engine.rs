//! The LSM engine: a bounded memtable over
//! [`BlockStore`](em_sim::BlockStore)-backed sorted runs, with every merge
//! submitted to the sort service as a priced job.
//!
//! # Data layout
//!
//! User data is `(key, value)` pairs of `u64`s. The engine assigns each
//! update a globally monotonic sequence number and stores index entries as
//! the workspace's fixed 16-byte [`Record`]s — `key` is the user key,
//! `payload` is the sequence number — so runs sort on the existing
//! machinery unchanged (the sorters also handle duplicate records exactly,
//! but sequence numbers keep index entries distinct anyway, which the
//! engine itself relies on for seqno-indexed value-log lookups). Values
//! (and tombstones) live in an in-memory value log
//! indexed by sequence number; within any set of entries for one key, the
//! largest sequence number is the live one.
//!
//! # What gets charged where
//!
//! The engine owns an [`EmMachine`] and follows the workspace contract:
//! costs are charged *before* the store is touched, so `EmStats` are
//! backend-invariant.
//!
//! - The memtable is primary memory: it holds a permanent lease of
//!   `memtable_cap` records and its probes are free.
//! - A flush writes `ceil(n/B)` blocks through a charged [`EmWriter`].
//! - A point lookup keeps per-block *fence pointers* (each block's first
//!   key) in primary memory, the snippets' standard assumption: fences
//!   pick the single candidate block per overlapping run, and reading
//!   that block is one charged read. Runs skipped by their min/max fences
//!   — and the empty engine — charge exactly 0, the unified
//!   charge-what-you-touch rule the old `examples/kv_store.rs` baseline
//!   got wrong (it charged `ilog2(max(1, len))+1` even on an empty store;
//!   see [`crate::baseline`]).
//! - A **compaction's I/O is the merge job's**: the engine gathers run
//!   contents uncharged, ships them inline to `asym-serve` — together
//!   with each run's length ([`SortSpecBuilder::runs`]) once they outgrow
//!   primary memory — and installs the returned output uncharged. The job
//!   stages each run as it is, merges them in one Lemma 4.1 merge —
//!   ⌈n/B⌉ writes, each block read about once — and charges those reads
//!   and writes on its own machine; runs that fit in M are sorted in one
//!   pass of the same ⌈n/B⌉ reads and writes. The measured [`EmStats`]
//!   come back in the job telemetry, and `predict()` prices the job (its
//!   writes exactly). This is the merge the policy model prices
//!   ([`crate::policy`]: "merges read what they write"). Double-charging
//!   the same transfer on two machines would count the merge twice.
//!   Engine-side totals live in [`AsymKv::total_stats`]: engine stats
//!   merged with every compaction job's stats.
//!
//! [`SortSpecBuilder::runs`]: asym_core::sort::SortSpecBuilder::runs

use crate::policy::{CompactionStyle, Policy};
use crate::submit::{CompactionService, ServiceRoot};
use crate::KvError;
use asym_core::sort::{Algorithm, CostEstimate, SortSpec};
use asym_model::{Record, MAX_KEY};
use asym_serve::{JobId, JobRequest};
use em_sim::{Backend, EmConfig, EmMachine, EmStats, EmVec, EmWriter, MemLease};
use std::collections::BTreeMap;

/// Engine geometry and policy. `m`/`b`/`omega` define the AEM machine the
/// runs live on *and* the [`SortSpec`] every compaction job is built from,
/// so the engine and its jobs price I/O identically.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// Primary memory in records (must hold the memtable plus one block).
    pub m: usize,
    /// Block size in records.
    pub b: usize,
    /// Write cost multiplier.
    pub omega: u64,
    /// Records buffered in the memtable before a flush.
    pub memtable_cap: usize,
    /// Compaction policy (style + size ratio).
    pub policy: Policy,
    /// Storage backend for the runs and the compaction jobs.
    pub backend: Backend,
    /// Admission budget handed to the embedded service (summed predicted
    /// peak bytes in flight).
    pub service_budget_bytes: u64,
    /// Merge fan-in for compaction jobs; `None` derives `k = min(ω, M/B)`
    /// (the paper's ω-balanced choice, clamped to the geometry).
    pub sort_k: Option<usize>,
}

impl KvConfig {
    /// Defaults for a given ω: 4096-record primary memory, 64-record
    /// blocks, 1024-record memtable, and the ω-aware policy from
    /// [`Policy::for_omega`].
    pub fn new(omega: u64) -> KvConfig {
        KvConfig {
            m: 4096,
            b: 64,
            omega,
            memtable_cap: 1024,
            policy: Policy::for_omega(omega),
            backend: Backend::Mem,
            service_budget_bytes: 64 << 20,
            sort_k: None,
        }
    }

    /// Absorb `ASYM_BENCH_BACKEND` (the CI matrix knob), if set.
    pub fn from_env(mut self) -> Result<KvConfig, KvError> {
        if let Some(backend) = asym_core::sort::env_backend().map_err(KvError::Spec)? {
            self.backend = backend;
        }
        Ok(self)
    }

    /// Override the policy, fluently.
    pub fn policy(mut self, policy: Policy) -> KvConfig {
        self.policy = policy;
        self
    }

    fn validate(&self) -> Result<(), KvError> {
        if self.b == 0 || self.m == 0 || self.omega == 0 {
            return Err(KvError::Config("m, b, omega must be positive".into()));
        }
        if self.memtable_cap == 0 {
            return Err(KvError::Config("memtable capacity must be positive".into()));
        }
        if self.memtable_cap + self.b > self.m {
            return Err(KvError::Config(format!(
                "memtable ({}) plus one block ({}) must fit primary memory ({})",
                self.memtable_cap, self.b, self.m
            )));
        }
        if self.policy.t < 2 {
            return Err(KvError::Config("size ratio must be at least 2".into()));
        }
        Ok(())
    }
}

/// One immutable sorted run: its records on disk plus in-memory fences.
struct Run {
    vec: EmVec,
    /// Smallest / largest user key in the run, so a lookup skips
    /// non-overlapping runs without I/O.
    min: u64,
    max: u64,
    /// First key of each block — the in-RAM fence pointers that pick the
    /// one candidate block per probe.
    fences: Vec<u64>,
}

impl Run {
    /// Wrap sorted `records` already staged as `vec`, deriving fences at
    /// block size `b`.
    fn new(vec: EmVec, records: &[Record], b: usize) -> Run {
        debug_assert!(!records.is_empty());
        Run {
            min: records.first().expect("non-empty").key,
            max: records.last().expect("non-empty").key,
            fences: records.chunks(b).map(|c| c[0].key).collect(),
            vec,
        }
    }
}

/// One compaction, as priced and as measured — the admission audit trail
/// the differential suite checks envelope-by-envelope.
#[derive(Clone, Debug)]
pub struct CompactionRecord {
    /// The service-assigned job id.
    pub job_id: JobId,
    /// Source level of the merge.
    pub level: usize,
    /// Records shipped to the sort job.
    pub input_records: usize,
    /// Records installed after collapsing versions and dropping bottom
    /// tombstones.
    pub output_records: usize,
    /// `predict()` at admission: the envelope.
    pub predicted: CostEstimate,
    /// The job's measured stats, from its telemetry.
    pub stats: EmStats,
}

/// The ω-aware LSM engine. See the module docs for layout and charging.
pub struct AsymKv {
    cfg: KvConfig,
    machine: EmMachine,
    /// Key → sequence number of the latest update. Lives inside the
    /// permanent primary-memory lease below.
    memtable: BTreeMap<u64, u64>,
    _memtable_lease: MemLease,
    /// Sequence → value (`None` = tombstone), append-only.
    values: Vec<Option<u64>>,
    /// `levels[i]` = runs at level i, oldest first.
    levels: Vec<Vec<Run>>,
    service: CompactionService,
    /// The embedded service's temp root, when the engine started that
    /// service itself. Declared after `service`, so it is removed only
    /// once the service has drained.
    _service_root: Option<ServiceRoot>,
    compactions: Vec<CompactionRecord>,
}

impl AsymKv {
    /// Open an engine with an embedded, single-worker sort service on a
    /// temp root that is removed when the engine drops.
    pub fn new(cfg: KvConfig) -> Result<AsymKv, KvError> {
        let (service, root) = CompactionService::in_process(cfg.service_budget_bytes)?;
        // On an error the service drops inside `with_service`, before its root.
        let mut kv = AsymKv::with_service(cfg, service)?;
        kv._service_root = Some(root);
        Ok(kv)
    }

    /// Open an engine whose compactions go to `service` — in particular
    /// [`CompactionService::http`] for a remote sort server. A
    /// [`CompactionService::Local`] service keeps its root directory.
    pub fn with_service(cfg: KvConfig, service: CompactionService) -> Result<AsymKv, KvError> {
        cfg.validate()?;
        let machine = EmMachine::with_backend(EmConfig::new(cfg.m, cfg.b, cfg.omega), cfg.backend)
            .map_err(KvError::Model)?;
        let lease = machine.lease(cfg.memtable_cap).map_err(KvError::Model)?;
        Ok(AsymKv {
            cfg,
            machine,
            memtable: BTreeMap::new(),
            _memtable_lease: lease,
            values: Vec::new(),
            levels: Vec::new(),
            service,
            _service_root: None,
            compactions: Vec::new(),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// Insert or overwrite. May flush and cascade compactions.
    pub fn put(&mut self, key: u64, value: u64) -> Result<(), KvError> {
        self.write(key, Some(value))
    }

    /// Delete (records a tombstone; absent keys still get one, since an
    /// older run may hold the key). May flush and cascade compactions.
    pub fn delete(&mut self, key: u64) -> Result<(), KvError> {
        self.write(key, None)
    }

    fn write(&mut self, key: u64, value: Option<u64>) -> Result<(), KvError> {
        if key > MAX_KEY {
            return Err(KvError::KeyOutOfRange(key));
        }
        let seq = self.values.len() as u64;
        self.values.push(value);
        self.memtable.insert(key, seq);
        if self.memtable.len() >= self.cfg.memtable_cap {
            self.flush()?;
        }
        Ok(())
    }

    /// Point lookup: memtable first (free — primary memory), then runs
    /// newest-to-oldest with charged block-granular binary searches. The
    /// first version found wins; a tombstone answers `None` definitively.
    pub fn get(&self, key: u64) -> Result<Option<u64>, KvError> {
        if key > MAX_KEY {
            return Err(KvError::KeyOutOfRange(key));
        }
        if let Some(&seq) = self.memtable.get(&key) {
            return Ok(self.values[seq as usize]);
        }
        for level in &self.levels {
            for run in level.iter().rev() {
                if key < run.min || key > run.max {
                    continue;
                }
                if let Some(seq) = self.probe_run(run, key)? {
                    return Ok(self.values[seq as usize]);
                }
            }
        }
        Ok(None)
    }

    /// Range scan over `[lo, hi]`, merged across the memtable and every
    /// overlapping run (newest version per key, tombstones elided),
    /// returned in key order.
    pub fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>, KvError> {
        if lo > hi {
            return Ok(Vec::new());
        }
        let mut best: BTreeMap<u64, u64> = BTreeMap::new();
        let mut fold = |key: u64, seq: u64| {
            let e = best.entry(key).or_insert(seq);
            *e = (*e).max(seq);
        };
        for (&key, &seq) in self.memtable.range(lo..=hi) {
            fold(key, seq);
        }
        for level in &self.levels {
            for run in level {
                self.scan_run(run, lo, hi, &mut fold)?;
            }
        }
        Ok(best
            .into_iter()
            .filter_map(|(key, seq)| self.values[seq as usize].map(|v| (key, v)))
            .collect())
    }

    /// Force the memtable down to level 0 (and run any due compactions).
    /// A no-op when the memtable is empty.
    pub fn flush(&mut self) -> Result<(), KvError> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let records: Vec<Record> = self
            .memtable
            .iter()
            .map(|(&key, &seq)| Record::new(key, seq))
            .collect();
        let mut writer = EmWriter::new(&self.machine).map_err(KvError::Model)?;
        writer.extend(records.iter().copied());
        let run = Run::new(writer.finish(), &records, self.cfg.b);
        self.level_mut(0).push(run);
        self.memtable.clear();
        self.maybe_compact()
    }

    /// Engine-side modeled I/O (flushes + probes; compactions excluded —
    /// they are the jobs').
    pub fn engine_stats(&self) -> EmStats {
        self.machine.stats()
    }

    /// Every compaction this engine has run, in order.
    pub fn compactions(&self) -> &[CompactionRecord] {
        &self.compactions
    }

    /// Engine stats merged with every compaction job's measured stats:
    /// the total modeled I/O of the workload.
    pub fn total_stats(&self) -> EmStats {
        EmStats::merge_all(
            std::iter::once(self.engine_stats()).chain(self.compactions.iter().map(|c| c.stats)),
        )
    }

    /// The AEM objective over [`AsymKv::total_stats`]:
    /// `reads + ω·writes`.
    pub fn total_cost(&self) -> u64 {
        let s = self.total_stats();
        s.block_reads + self.cfg.omega * s.block_writes
    }

    /// Runs per level, shallow to deep (diagnostics and tests).
    #[cfg(test)]
    fn run_counts(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }

    /// Which transport compactions use ("in-process" or "http").
    pub fn service_name(&self) -> &'static str {
        self.service.name()
    }

    // -- internals ----------------------------------------------------------

    fn level_mut(&mut self, i: usize) -> &mut Vec<Run> {
        while self.levels.len() <= i {
            self.levels.push(Vec::new());
        }
        &mut self.levels[i]
    }

    /// Leveling capacity of level `i`: `memtable_cap · T^(i+1)`.
    fn capacity(&self, i: usize) -> usize {
        self.cfg
            .memtable_cap
            .saturating_mul(self.cfg.policy.t.saturating_pow(i as u32 + 1))
    }

    fn maybe_compact(&mut self) -> Result<(), KvError> {
        match self.cfg.policy.style {
            CompactionStyle::Tiering => {
                let t = self.cfg.policy.t;
                let mut i = 0;
                while i < self.levels.len() {
                    if self.levels[i].len() >= t {
                        let runs = std::mem::take(&mut self.levels[i]);
                        if let Some(run) = self.merge_runs(i, runs, i + 1)? {
                            self.level_mut(i + 1).push(run);
                        }
                    }
                    i += 1;
                }
            }
            CompactionStyle::Leveling => {
                let mut i = 0;
                while i < self.levels.len() {
                    // Absorb a freshly flushed (or spilled-into) multi-run
                    // level back to one run.
                    if self.levels[i].len() > 1 {
                        let runs = std::mem::take(&mut self.levels[i]);
                        if let Some(run) = self.merge_runs(i, runs, i)? {
                            self.levels[i].push(run);
                        }
                    }
                    // Spill an over-capacity run down, merging with the
                    // next level's resident run (the T× rewrite that makes
                    // leveling write-expensive).
                    let len = self.levels[i].first().map_or(0, |r| r.vec.len());
                    if len > self.capacity(i) {
                        let mut runs = std::mem::take(&mut self.levels[i]);
                        self.level_mut(i + 1);
                        runs.extend(std::mem::take(&mut self.levels[i + 1]));
                        if let Some(run) = self.merge_runs(i, runs, i + 1)? {
                            self.levels[i + 1].push(run);
                        }
                    }
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// Merge `runs` via one submitted job that merges them as the sorted
    /// runs they are; the result (if any) is destined for `into_level`,
    /// which decides tombstone garbage collection.
    fn merge_runs(
        &mut self,
        source_level: usize,
        runs: Vec<Run>,
        into_level: usize,
    ) -> Result<Option<Run>, KvError> {
        // Gather uncharged, noting each run's length: the job stages each
        // run as it is and charges the merge's reads itself (module docs,
        // "what gets charged where").
        let mut input = Vec::new();
        let mut lens = Vec::with_capacity(runs.len());
        for run in &runs {
            input.extend(run.vec.read_all_uncharged(&self.machine));
            lens.push(run.vec.len());
        }
        for run in runs {
            run.vec.free(&self.machine);
        }
        if input.is_empty() {
            return Ok(None);
        }
        let input_records = input.len();
        let request = JobRequest::inline(self.compaction_spec(lens)?, input);
        let predicted = request.predict();
        let result = self.service.submit_and_wait(request)?;

        // Newest version per key wins (sorted by (key, seq), so the last
        // entry of each key group is the newest). Tombstones are dropped
        // only when nothing older can exist at or below the destination —
        // under tiering the destination level may still hold older runs,
        // and GC'ing a tombstone above those would resurrect the key.
        let is_bottom = self
            .levels
            .get(into_level..)
            .is_none_or(|deeper| deeper.iter().all(Vec::is_empty));
        let mut merged: Vec<Record> = Vec::with_capacity(result.outcome.output.len());
        for r in result.outcome.output.iter().copied() {
            if merged.last().is_some_and(|m| m.key == r.key) {
                merged.pop();
            }
            merged.push(r);
        }
        if is_bottom {
            merged.retain(|r| self.values[r.payload as usize].is_some());
        }
        self.compactions.push(CompactionRecord {
            job_id: result.id,
            level: source_level,
            input_records,
            output_records: merged.len(),
            predicted,
            stats: result.outcome.stats,
        });
        if merged.is_empty() {
            return Ok(None);
        }
        // Install uncharged: the job already charged the merged output's
        // writes when its sort emitted these records.
        Ok(Some(Run::new(
            EmVec::stage(&self.machine, &merged),
            &merged,
            self.cfg.b,
        )))
    }

    /// The job description a compaction of runs of lengths `lens` submits:
    /// the engine's own geometry, mergesort, slack and fan-in from
    /// `k = min(ω, M/B)` unless pinned, and — when the runs outgrow
    /// primary memory — the runs, so the job merges them in one pass
    /// instead of sorting from scratch.
    fn compaction_spec(&self, lens: Vec<usize>) -> Result<SortSpec, KvError> {
        let k = self.cfg.sort_k.unwrap_or_else(|| {
            (self.cfg.omega as usize).clamp(1, (self.cfg.m / self.cfg.b).max(1))
        });
        let mut builder =
            SortSpec::builder(Algorithm::Mergesort, self.cfg.m, self.cfg.b, self.cfg.omega)
                .k(k)
                .backend(self.cfg.backend);
        // Runs that fit in M sort in one pass of ⌈n/B⌉ reads and writes,
        // which the merge only matches (it reads each run's partial last
        // block) and is slower at on the host; past M the sort's base case
        // re-reads every block up to k times, and past kM it writes twice.
        // One merge takes at most kM/B runs; a compaction of more (a tiering
        // ratio above the fan-in) is sorted.
        let fan_in = k.saturating_mul(self.cfg.m) / self.cfg.b;
        if lens.iter().sum::<usize>() > self.cfg.m && lens.len() <= fan_in {
            builder = builder.runs(lens);
        }
        builder.build().map_err(KvError::Spec)
    }

    /// Probe one run for `key`: the in-RAM fences pick the single block
    /// that could hold it; reading that block is the one charged read. A
    /// run skipped by its min/max fences costs 0.
    fn probe_run(&self, run: &Run, key: u64) -> Result<Option<u64>, KvError> {
        // Last fence at or below the key names the candidate block; the
        // caller already checked key >= run.min == fences[0].
        let idx = run.fences.partition_point(|&f| f <= key).saturating_sub(1);
        let _lease = self.machine.lease(self.cfg.b).map_err(KvError::Model)?;
        let mut buf = Vec::with_capacity(self.cfg.b);
        self.machine
            .read_block_into(run.vec.block_ids()[idx], &mut buf)
            .map_err(KvError::Model)?;
        let pos = buf.partition_point(|r| r.key < key);
        Ok(buf.get(pos).filter(|r| r.key == key).map(|r| r.payload))
    }

    /// Feed `fold` every `(key, seq)` of `run` within `[lo, hi]`: fences
    /// pick the first overlapping block for free, then each overlapping
    /// block is one charged sequential read.
    fn scan_run(
        &self,
        run: &Run,
        lo: u64,
        hi: u64,
        fold: &mut impl FnMut(u64, u64),
    ) -> Result<(), KvError> {
        if run.max < lo || run.min > hi {
            return Ok(());
        }
        let _lease = self.machine.lease(self.cfg.b).map_err(KvError::Model)?;
        let mut buf = Vec::with_capacity(self.cfg.b);
        let ids = run.vec.block_ids();
        let start = run.fences.partition_point(|&f| f <= lo).saturating_sub(1);
        for id in &ids[start..] {
            self.machine
                .read_block_into(*id, &mut buf)
                .map_err(KvError::Model)?;
            if buf.first().is_some_and(|rec| rec.key > hi) {
                break;
            }
            for rec in buf.iter().filter(|rec| rec.key >= lo && rec.key <= hi) {
                fold(rec.key, rec.payload);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CompactionStyle;

    fn tiny(style: CompactionStyle, t: usize, omega: u64) -> AsymKv {
        let mut cfg = KvConfig::new(omega);
        cfg.m = 64;
        cfg.b = 4;
        cfg.memtable_cap = 8;
        cfg.policy = Policy::fixed(style, t);
        AsymKv::new(cfg).expect("engine")
    }

    /// A tiering ratio above one merge's fan-in kM/B still compacts: those
    /// compactions ship no runs and are sorted.
    #[test]
    fn a_tiering_ratio_above_the_merge_fan_in_still_compacts() {
        let mut cfg = KvConfig::new(8);
        cfg.m = 64;
        cfg.b = 16;
        cfg.memtable_cap = 8;
        cfg.sort_k = Some(1); // fan-in kM/B = 4
        cfg.policy = Policy::fixed(CompactionStyle::Tiering, 6);
        let mut kv = AsymKv::new(cfg).expect("engine");
        for i in 0..450u64 {
            kv.put(i % 90, i).expect("put");
        }
        assert!(!kv.compactions().is_empty(), "6-run levels must compact");
        for key in 0..90u64 {
            assert_eq!(kv.get(key).expect("get"), Some(360 + key));
        }
    }

    #[test]
    fn put_get_roundtrip_across_flushes_and_compactions() {
        for style in [CompactionStyle::Leveling, CompactionStyle::Tiering] {
            let mut kv = tiny(style, 2, 8);
            for i in 0..200u64 {
                kv.put(i % 50, i).expect("put");
            }
            assert!(
                !kv.compactions().is_empty(),
                "{}: 25 flushes must compact",
                style.name()
            );
            for key in 0..50u64 {
                // Last write of key k was at i = 150 + k.
                assert_eq!(
                    kv.get(key).expect("get"),
                    Some(150 + key),
                    "{}",
                    style.name()
                );
            }
            assert_eq!(kv.get(777).expect("get"), None);
        }
    }

    #[test]
    fn tombstones_shadow_older_versions_and_gc_at_the_bottom() {
        let mut kv = tiny(CompactionStyle::Tiering, 2, 8);
        kv.put(1, 10).unwrap();
        kv.put(2, 20).unwrap();
        kv.flush().unwrap();
        kv.delete(1).unwrap();
        assert_eq!(kv.get(1).unwrap(), None, "memtable tombstone shadows run");
        kv.flush().unwrap();
        assert_eq!(kv.get(1).unwrap(), None, "flushed tombstone still shadows");
        assert_eq!(kv.get(2).unwrap(), Some(20));
        // Force merges until the tombstone reaches the bottom.
        for i in 100..130u64 {
            kv.put(i, i).unwrap();
        }
        kv.flush().unwrap();
        let total: usize = kv.scan(0, u64::MAX - 1).unwrap().len();
        assert!(!kv.scan(0, 5).unwrap().iter().any(|&(k, _)| k == 1));
        assert!(
            total >= 31,
            "key 2 plus the 30 fillers survive, got {total}"
        );
    }

    #[test]
    fn empty_engine_charges_nothing_for_misses() {
        let kv = tiny(CompactionStyle::Leveling, 2, 8);
        assert_eq!(kv.get(42).unwrap(), None);
        let stats = kv.engine_stats();
        assert_eq!(stats.block_reads, 0, "no runs, no reads — the unified rule");
        assert_eq!(stats.block_writes, 0);
    }

    #[test]
    fn every_compaction_is_admitted_and_within_envelope() {
        let mut kv = tiny(CompactionStyle::Tiering, 3, 16);
        for i in 0..500u64 {
            kv.put(i * 7 % 97, i).unwrap();
        }
        kv.flush().unwrap();
        assert!(kv.compactions().len() >= 2);
        for c in kv.compactions() {
            assert!(c.stats.block_reads <= c.predicted.reads, "{c:?}");
            assert!(c.stats.block_writes <= c.predicted.writes, "{c:?}");
            assert!(c.stats.peak_memory <= c.predicted.peak_memory, "{c:?}");
            assert!(c.input_records > 0);
        }
    }

    #[test]
    fn leveling_keeps_one_run_per_level() {
        let mut kv = tiny(CompactionStyle::Leveling, 2, 8);
        for i in 0..400u64 {
            kv.put(i, i).unwrap();
        }
        kv.flush().unwrap();
        for (i, &count) in kv.run_counts().iter().enumerate() {
            assert!(count <= 1, "level {i} has {count} runs under leveling");
        }
    }

    #[test]
    fn tiering_bounds_runs_per_level() {
        let t = 3;
        let mut kv = tiny(CompactionStyle::Tiering, t, 8);
        for i in 0..600u64 {
            kv.put(i, i).unwrap();
        }
        kv.flush().unwrap();
        for (i, &count) in kv.run_counts().iter().enumerate() {
            assert!(count < t, "level {i} has {count} >= T={t} runs");
        }
    }

    #[test]
    fn scans_merge_across_sources_in_key_order() {
        let mut kv = tiny(CompactionStyle::Tiering, 2, 8);
        for i in 0..60u64 {
            kv.put(i, i * 2).unwrap();
        }
        kv.put(5, 999).unwrap(); // overwrite, memtable-resident
        kv.delete(6).unwrap();
        let got = kv.scan(3, 8).unwrap();
        assert_eq!(got, vec![(3, 6), (4, 8), (5, 999), (7, 14), (8, 16)]);
    }

    #[test]
    fn out_of_range_keys_are_rejected() {
        let mut kv = tiny(CompactionStyle::Leveling, 2, 8);
        assert!(matches!(
            kv.put(u64::MAX, 1),
            Err(KvError::KeyOutOfRange(_))
        ));
        assert!(matches!(kv.get(u64::MAX), Err(KvError::KeyOutOfRange(_))));
    }

    #[test]
    fn config_validation_is_typed() {
        let mut cfg = KvConfig::new(8);
        cfg.memtable_cap = cfg.m; // no room for the probe block
        assert!(matches!(AsymKv::new(cfg), Err(KvError::Config(_))));
        let mut cfg = KvConfig::new(8);
        cfg.policy = Policy {
            style: CompactionStyle::Leveling,
            t: 1,
        };
        assert!(matches!(AsymKv::new(cfg), Err(KvError::Config(_))));
    }
}
