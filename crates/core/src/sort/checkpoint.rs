//! Phase-boundary checkpoint/resume for staged sort runs.
//!
//! A staged run decomposes one sort job into a deterministic sequence of
//! phases computed from `(spec, n)` alone ([`StagePlan`]): the input is
//! cut into block-aligned chunks, each chunk phase sorts one chunk with
//! the spec's algorithm through [`super::run`], then merge-round phases fold the sorted
//! runs `l = kM/B` at a time with the Lemma 4.1 merge until one run
//! survives. After every completed phase but the last the executor hands a
//! versioned [`CheckpointManifest`] — phase counter, cumulative
//! [`EmStats`], input digest, and the runs *that phase produced* — to a
//! [`Checkpointer`] sink; `asym-serve` appends it to its audit WAL as a
//! `checkpointed` event, so the manifest is durable the moment the phase's
//! writes are. The last phase's manifest would carry the whole sorted
//! output, which the caller gets back anyway (and `asym-serve` rebuilds
//! from the logged input on recovery), so it is never saved: a crash
//! before the job's outcome is durable redoes only the final phase.
//!
//! Manifests are deltas, so each run is written once per level, as the
//! sorts themselves write each block: a chunk phase carries its one
//! sorted chunk and keeps the `base` runs before it, a merge round
//! carries its outputs and keeps nothing (`base` 0). The unsaved last
//! phase would carry all `n` records (the final merge round, or a
//! one-chunk plan's lone chunk), so a staged run's manifests carry
//! `n·rounds` records in all.
//! [`CheckpointManifest::fold`] rebuilds the full layout from the deltas;
//! it is the one fold the live service, WAL replay and the tests share.
//!
//! [`resume_from`] takes a folded (full) manifest, verifies the digest,
//! rebuilds the machine state from its surviving runs (restaged uncharged —
//! their writes were paid, and recorded, by the prefix), and continues from
//! the first incomplete phase. Phases are deterministic in `(spec, input)` and the
//! cumulative fold is associative (reads/writes add, peaks max), so the
//! modeled cost of `resume ⊕ prefix` is bit-identical to an uninterrupted
//! staged run — that equality is the paper's "writes are the expensive
//! resource" argument turned into a recovery property: work already
//! written is never re-written. `tests/checkpoint_resume.rs` pins it for
//! every algorithm; the serve chaos harness's "never redo paid
//! writes" gate builds on it.
//!
//! Staged execution is a different (checkpointable) schedule of the same
//! sort: its output is identical to [`super::run`] (every sorter is a
//! total order on records), but its modeled costs differ from the
//! single-shot path's, so [`predict_staged`] prices it — per-chunk
//! theorem envelopes plus a Lemma 4.1 envelope per merge round.

use super::adapters::{run, SortOutcome};
use super::predict::CostEstimate;
use super::spec::SortSpec;
use super::wire::WireError;
use crate::em::mergesort::{merge_sorted_runs, mergesort_slack};
use asym_model::json::{self, Json, JsonArr, JsonObj, RecordsError};
use asym_model::{ModelError, Record, Result};
use em_sim::{EmStats, EmVec};

/// The manifest schema this build writes: v2 manifests are deltas with a
/// `base`. A v1 manifest (every surviving run, no `base`) still decodes,
/// as a v2 delta with `base` 0.
pub const MANIFEST_VERSION: u64 = 2;

/// How many chunk phases a staged run aims for: enough that a crash loses
/// at most ~1/8 of the chunk-sorting work, few enough that manifests stay
/// small and merge rounds stay shallow.
const TARGET_CHUNKS: usize = 8;

/// Where checkpoint manifests go. The executor calls [`save`] after every
/// completed phase but the last, whose outcome the caller receives
/// directly. A failed save fails the phase: a checkpoint the sink never
/// accepted must not be assumed durable.
///
/// [`save`]: Checkpointer::save
pub trait Checkpointer {
    /// Persist one manifest.
    fn save(&mut self, manifest: &CheckpointManifest) -> Result<()>;
}

/// A [`Checkpointer`] that keeps every manifest in memory — the sink for
/// tests, reference runs, and embedded callers that manage durability
/// themselves.
#[derive(Debug, Default)]
pub struct MemCheckpointer {
    /// Every delta manifest saved, in phase order; [`CheckpointManifest::fold`]
    /// them for the full layout.
    pub manifests: Vec<CheckpointManifest>,
}

impl Checkpointer for MemCheckpointer {
    fn save(&mut self, manifest: &CheckpointManifest) -> Result<()> {
        self.manifests.push(manifest.clone());
        Ok(())
    }
}

/// The deterministic phase schedule of one staged run, computed from
/// `(spec, n)` alone — both sides of a resume derive the identical plan,
/// so a manifest only needs to say *how many* phases completed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagePlan {
    /// Block-aligned `[start, end)` input ranges, one chunk phase each.
    chunks: Vec<(usize, usize)>,
    /// Merge fan-in `l = kM/B` for the merge-round phases.
    fan_in: usize,
    /// Merge rounds after the chunk phases (each folds groups of
    /// `fan_in` surviving runs into one).
    rounds: usize,
}

impl StagePlan {
    /// Plan the staged run of `spec` over `n` records.
    pub fn new(spec: &SortSpec, n: usize) -> StagePlan {
        let b = spec.b();
        // The merge always runs serially on one machine, so the serial
        // fan-in applies to every algorithm (spec validation guarantees
        // kM/B ≥ M/B ≥ 2).
        let fan_in = ((spec.k() * spec.m()) / b).max(2);
        let mut chunks = Vec::new();
        if n == 0 {
            chunks.push((0, 0));
        } else {
            let chunk = n.div_ceil(TARGET_CHUNKS).max(b).next_multiple_of(b);
            let mut lo = 0;
            while lo < n {
                let hi = (lo + chunk).min(n);
                chunks.push((lo, hi));
                lo = hi;
            }
        }
        let mut rounds = 0;
        let mut c = chunks.len();
        while c > 1 {
            c = c.div_ceil(fan_in);
            rounds += 1;
        }
        StagePlan {
            chunks,
            fan_in,
            rounds,
        }
    }

    /// The chunk phases' input ranges.
    pub fn chunks(&self) -> &[(usize, usize)] {
        &self.chunks
    }

    /// Merge rounds after the chunk phases.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Total phases: one per chunk plus one per merge round.
    pub fn total_phases(&self) -> usize {
        self.chunks.len() + self.rounds
    }

    /// Lengths of the surviving runs after `phases_done` completed phases
    /// — the layout a valid manifest must carry.
    pub fn layout_after(&self, phases_done: usize) -> Vec<usize> {
        let c = self.chunks.len();
        let mut runs: Vec<usize> = self
            .chunks
            .iter()
            .take(phases_done.min(c))
            .map(|&(lo, hi)| hi - lo)
            .collect();
        for _ in c..phases_done {
            runs = runs
                .chunks(self.fan_in)
                .map(|group| group.iter().sum())
                .collect();
        }
        runs
    }
}

/// Digest binding a manifest to its job: FNV-1a over the spec's *logical*
/// fields and the input records. Backend, file directory, and fault
/// schedule are deliberately excluded — the server re-points those per
/// attempt, and none of them changes the output or the modeled stats (the
/// machine charges before it touches the store).
pub fn input_digest(spec: &SortSpec, input: &[Record]) -> u64 {
    fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
        for &x in bytes {
            h ^= x as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, spec.algorithm().name().as_bytes());
    for v in [
        spec.m() as u64,
        spec.b() as u64,
        spec.omega(),
        spec.k() as u64,
        spec.lanes() as u64,
        spec.seed(),
        spec.slack() as u64,
        u64::from(spec.steal_charge()),
        input.len() as u64,
    ] {
        h = fnv1a(h, &v.to_le_bytes());
    }
    for r in input {
        h = fnv1a(h, &r.key.to_le_bytes());
        h = fnv1a(h, &r.payload.to_le_bytes());
    }
    h
}

/// One phase-boundary checkpoint of a staged run. As saved, it is a
/// *delta*: the runs its phase produced, on top of the first `base` runs
/// of the previous phase's layout. Folded ([`CheckpointManifest::fold`]),
/// it is a full snapshot (`base` 0): everything a fresh process needs to
/// continue from the first incomplete phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u64,
    /// [`input_digest`] of the job this manifest belongs to.
    pub digest: u64,
    /// Input length (also folded into the digest; kept explicit for
    /// cheap pre-checks and observability).
    pub n: u64,
    /// Completed phases. Resume continues at phase `phases_done`.
    pub phases_done: u64,
    /// The plan's total phase count (sanity-checked on resume).
    pub total_phases: u64,
    /// How many leading runs of the previous phase's layout this manifest
    /// keeps: a chunk phase keeps every run before its chunk, a merge
    /// round keeps none. A full manifest has `base` 0.
    pub base: u64,
    /// Cumulative modeled stats over the completed phases: reads and
    /// writes sum, peaks max (phases run sequentially on fresh machines,
    /// so the footprint is the largest single phase — *not*
    /// [`EmStats::merge`], whose summed peaks are lane semantics).
    pub stats: EmStats,
    /// The sorted runs this phase produced, appended after the `base`
    /// kept ones, in layout order. Pending chunks are recomputable from
    /// the input, so only produced data is carried.
    pub runs: Vec<Vec<Record>>,
}

impl CheckpointManifest {
    /// Render as a single-line JSON object (runs as `[key, payload]`
    /// pairs, like the job wire format).
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("version", self.version)
            .u64("digest", self.digest)
            .u64("n", self.n)
            .u64("phases_done", self.phases_done)
            .u64("total_phases", self.total_phases)
            .u64("base", self.base);
        let mut s = JsonObj::new();
        s.u64("block_reads", self.stats.block_reads)
            .u64("block_writes", self.stats.block_writes)
            .u64("peak_memory", self.stats.peak_memory as u64);
        o.raw("stats", &s.finish());
        let mut runs = JsonArr::new();
        for run in &self.runs {
            runs.records(run);
        }
        o.raw("runs", &runs.finish());
        o.finish()
    }

    /// Decode a manifest. A v1 manifest decodes as a full v2 one (`base`
    /// 0). An unknown version is a typed [`WireError::Malformed`] naming
    /// it — a future manifest must not be half-read as an empty one.
    pub fn from_json(text: &str) -> std::result::Result<CheckpointManifest, WireError> {
        let v = Json::parse(text).map_err(WireError::Malformed)?;
        Self::from_json_value(&v)
    }

    /// Decode from an already-parsed [`Json`] value (e.g. the `manifest`
    /// field of an audit line).
    pub fn from_json_value(v: &Json) -> std::result::Result<CheckpointManifest, WireError> {
        let bad = |m: String| WireError::Malformed(m);
        let obj = v
            .as_obj()
            .ok_or_else(|| bad("manifest must be a JSON object".into()))?;
        let req = |k: &str| {
            json::get_u64(obj, k)
                .ok_or_else(|| bad(format!("manifest missing numeric field {k:?}")))
        };
        let version = req("version")?;
        let base = match version {
            1 => 0,
            MANIFEST_VERSION => req("base")?,
            _ => {
                return Err(bad(format!(
                    "manifest version {version} is not supported (this build speaks v{MANIFEST_VERSION})"
                )))
            }
        };
        let stats = json::find(obj, "stats")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("manifest missing \"stats\" object".into()))?;
        let stat = |k: &str| {
            json::get_u64(stats, k).ok_or_else(|| bad(format!("manifest stats missing {k:?}")))
        };
        let runs_v = json::find(obj, "runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("manifest missing \"runs\" array".into()))?;
        let runs = runs_v
            .iter()
            .map(|run| {
                json::records(run).map_err(|e| match e {
                    RecordsError::NotArray => bad("manifest runs must be arrays".into()),
                    RecordsError::NotPair => bad("run records are [key, payload] pairs".into()),
                    e => bad(e.to_string()),
                })
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(CheckpointManifest {
            version: MANIFEST_VERSION,
            digest: req("digest")?,
            n: req("n")?,
            phases_done: req("phases_done")?,
            total_phases: req("total_phases")?,
            base,
            stats: EmStats {
                block_reads: stat("block_reads")?,
                block_writes: stat("block_writes")?,
                peak_memory: stat("peak_memory")? as usize,
            },
            runs,
        })
    }

    /// Fold `delta` into the full manifest `held` (`None`: no phase done
    /// yet) and report whether `held` moved. Progress only moves forward:
    ///
    /// * a delta whose `phases_done` is not above `held`'s is ignored;
    /// * a `base` 0 delta replaces `held`;
    /// * a delta for exactly the next phase of the same job keeps `held`'s
    ///   first `base` runs and appends its own;
    /// * anything else — a gap, or a `base` past `held`'s layout — is
    ///   ignored, so `held` stays the last good state.
    ///
    /// The result is full (`base` 0) but not validated: callers check it
    /// with [`validate`](Self::validate) before resuming from it.
    pub fn fold(held: &mut Option<CheckpointManifest>, mut delta: CheckpointManifest) -> bool {
        let phase = held.as_ref().map_or(0, |h| h.phases_done);
        if delta.phases_done <= phase {
            return false;
        }
        if delta.base == 0 {
            *held = Some(delta);
            return true;
        }
        let Some(h) = held else { return false };
        if delta.phases_done != phase + 1
            || delta.base > h.runs.len() as u64
            || (delta.digest, delta.n, delta.total_phases) != (h.digest, h.n, h.total_phases)
        {
            return false;
        }
        h.runs.truncate(delta.base as usize);
        h.runs.append(&mut delta.runs);
        h.phases_done = delta.phases_done;
        h.stats = delta.stats;
        true
    }

    /// Full consistency check against the job this manifest claims to
    /// belong to: version, digest, phase counters, and the run layout the
    /// plan dictates (lengths and sortedness). Only a full manifest
    /// (`base` 0, e.g. a [`fold`](Self::fold)) passes. `Err` carries the
    /// reason — a server holding a non-matching manifest should fall back
    /// to a fresh staged run rather than fail the job.
    pub fn validate(&self, spec: &SortSpec, input: &[Record]) -> std::result::Result<(), String> {
        if self.version != MANIFEST_VERSION {
            return Err(format!("unsupported manifest version {}", self.version));
        }
        if self.base != 0 {
            return Err(format!(
                "manifest is a delta on {} runs; fold it first",
                self.base
            ));
        }
        if self.n as usize != input.len() {
            return Err(format!(
                "manifest is for {} records, job has {}",
                self.n,
                input.len()
            ));
        }
        let digest = input_digest(spec, input);
        if self.digest != digest {
            return Err(format!(
                "digest mismatch: manifest {:#x}, job {:#x}",
                self.digest, digest
            ));
        }
        let plan = StagePlan::new(spec, input.len());
        if self.total_phases != plan.total_phases() as u64 {
            return Err(format!(
                "manifest plans {} phases, spec plans {}",
                self.total_phases,
                plan.total_phases()
            ));
        }
        if self.phases_done == 0 || self.phases_done > self.total_phases {
            return Err(format!(
                "phase counter {} out of range 1..={}",
                self.phases_done, self.total_phases
            ));
        }
        let layout = plan.layout_after(self.phases_done as usize);
        if self.runs.len() != layout.len()
            || self
                .runs
                .iter()
                .zip(&layout)
                .any(|(r, &len)| r.len() != len)
        {
            return Err(format!(
                "run layout {:?} does not match the plan's {:?}",
                self.runs.iter().map(Vec::len).collect::<Vec<_>>(),
                layout
            ));
        }
        for (i, run) in self.runs.iter().enumerate() {
            if run.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("run {i} is not sorted"));
            }
        }
        Ok(())
    }
}

/// The slack a staged run's merge rounds need: the spec's own slack, or
/// the mergesort's `2B + kM/B` footprint if that is larger (a
/// non-mergesort spec's slack may not cover the merge's queue + buffers +
/// run pointers).
fn staged_slack(spec: &SortSpec) -> usize {
    spec.slack()
        .max(mergesort_slack(spec.m(), spec.b(), spec.k()))
}

/// Pre-run cost envelope for a *staged* run — the admission currency for
/// checkpointed jobs. Chunk phases are priced by the per-chunk theorem
/// envelopes ([`SortSpec::predict`]); each merge round adds the Lemma 4.1
/// envelope `(k+1)` reads and one write per staged block (staging a run
/// rounds up to a block, hence the `+ chunk count` term); the peak-memory
/// bound accounts for the merge machine's slack (`staged_slack`).
pub fn predict_staged(spec: &SortSpec, n: usize) -> CostEstimate {
    let plan = StagePlan::new(spec, n);
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut peak = spec.m() + staged_slack(spec);
    for &(lo, hi) in plan.chunks() {
        let e = spec.predict(hi - lo);
        reads += e.reads;
        writes += e.writes;
        peak = peak.max(e.peak_memory);
    }
    let round_blocks = (n.div_ceil(spec.b()) + plan.chunks().len()) as u64;
    let rounds = plan.rounds() as u64;
    reads += (spec.k() as u64 + 1) * round_blocks * rounds;
    writes += round_blocks * rounds;
    CostEstimate {
        reads,
        writes,
        peak_memory: peak,
        omega: spec.omega(),
    }
}

/// Run the job as a staged, checkpointable sequence of phases, saving a
/// manifest to `sink` after each but the last. Output is identical to
/// [`super::run`]; modeled costs follow [`predict_staged`].
pub fn run_staged(
    spec: &SortSpec,
    input: &[Record],
    sink: &mut dyn Checkpointer,
) -> Result<SortOutcome> {
    let plan = StagePlan::new(spec, input.len());
    execute(spec, input, &plan, 0, Vec::new(), EmStats::default(), sink)
}

/// Continue a staged run from the full (folded) `manifest`: verify it
/// against `(spec, input)`, restage the surviving runs, and execute the
/// remaining phases. A complete manifest (`phases_done == total_phases`,
/// as builds that also saved the last phase logged) runs no phase.
/// The returned outcome — output *and* cumulative stats — is bit-identical
/// to an uninterrupted [`run_staged`]. A manifest that fails validation is
/// a [`ModelError::Invariant`] (callers that can should pre-check with
/// [`CheckpointManifest::validate`] and fall back to a fresh run).
pub fn resume_from(
    spec: &SortSpec,
    input: &[Record],
    manifest: &CheckpointManifest,
    sink: &mut dyn Checkpointer,
) -> Result<SortOutcome> {
    manifest
        .validate(spec, input)
        .map_err(|reason| ModelError::Invariant(format!("cannot resume: {reason}")))?;
    let plan = StagePlan::new(spec, input.len());
    execute(
        spec,
        input,
        &plan,
        manifest.phases_done as usize,
        manifest.runs.clone(),
        manifest.stats,
        sink,
    )
}

/// The phase interpreter both entry points share. `start` phases are
/// already done, their surviving runs are `runs` and their cumulative
/// stats `cum` — zero/empty for a fresh run. Each phase's delta manifest
/// carries the runs it produced, which then move into `runs` uncopied; the
/// last phase's is not saved.
fn execute(
    spec: &SortSpec,
    input: &[Record],
    plan: &StagePlan,
    start: usize,
    mut runs: Vec<Vec<Record>>,
    mut cum: EmStats,
    sink: &mut dyn Checkpointer,
) -> Result<SortOutcome> {
    let total = plan.total_phases();
    let digest = input_digest(spec, input);
    for phase in start..total {
        let (base, produced, phase_stats) = match plan.chunks().get(phase) {
            Some(&(lo, hi)) if lo == hi => (runs.len(), vec![Vec::new()], EmStats::default()),
            Some(&(lo, hi)) => {
                let out = run(spec, &input[lo..hi])?;
                (runs.len(), vec![out.output], out.stats)
            }
            None => {
                let (merged, stats) = merge_round(spec, std::mem::take(&mut runs), plan.fan_in)?;
                (0, merged, stats)
            }
        };
        // Sequential fold: counts add, footprints max (each phase runs on
        // fresh machines, so the peak is the largest single phase).
        cum.block_reads += phase_stats.block_reads;
        cum.block_writes += phase_stats.block_writes;
        cum.peak_memory = cum.peak_memory.max(phase_stats.peak_memory);
        let delta = CheckpointManifest {
            version: MANIFEST_VERSION,
            digest,
            n: input.len() as u64,
            phases_done: (phase + 1) as u64,
            total_phases: total as u64,
            base: base as u64,
            stats: cum,
            runs: produced,
        };
        if phase + 1 < total {
            sink.save(&delta)?;
        }
        // `runs` already holds exactly the `base` kept runs.
        runs.extend(delta.runs);
    }
    let output = runs.pop().expect("the plan always ends with one run");
    debug_assert!(runs.is_empty(), "merge rounds must converge to one run");
    Ok(SortOutcome {
        output_len: output.len(),
        output,
        stats: cum,
        report: cum.report(spec.omega()),
        parallel: None,
    })
}

/// One merge round: fold groups of `fan_in` surviving runs into one with
/// the Lemma 4.1 merge, on a single machine sized by [`staged_slack`].
/// Single-run groups carry over untouched (no work, no charge).
fn merge_round(
    spec: &SortSpec,
    runs: Vec<Vec<Record>>,
    fan_in: usize,
) -> Result<(Vec<Vec<Record>>, EmStats)> {
    let em = merge_spec(spec).machine()?;
    let mut out = Vec::with_capacity(runs.len().div_ceil(fan_in));
    let mut runs = runs.into_iter().peekable();
    while runs.peek().is_some() {
        let group: Vec<Vec<Record>> = runs.by_ref().take(fan_in).collect();
        if group.len() == 1 {
            out.extend(group);
            continue;
        }
        let staged: Vec<EmVec> = group.iter().map(|r| EmVec::stage(&em, r)).collect();
        let merged = merge_sorted_runs(&em, &staged, spec.k())?;
        out.push(merged.read_all_uncharged(&em));
        merged.free(&em);
        for v in staged {
            v.free(&em);
        }
    }
    assert_eq!(em.live_blocks(), 0, "merge round leaked disk blocks");
    Ok((out, em.stats()))
}

/// The spec with its slack widened to [`staged_slack`].
fn merge_spec(spec: &SortSpec) -> SortSpec {
    spec.to_builder()
        .slack(staged_slack(spec))
        .build()
        .expect("a valid spec stays valid under wider slack")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::{run, Algorithm};
    use asym_model::workload::Workload;

    fn spec_for(algorithm: Algorithm) -> SortSpec {
        SortSpec::builder(algorithm, 32, 4, 8)
            .k(2)
            .lanes(if algorithm.is_parallel() { 4 } else { 1 })
            .seed(11)
            .build()
            .expect("valid spec")
    }

    #[test]
    fn plans_are_deterministic_block_aligned_and_converge() {
        let spec = spec_for(Algorithm::Mergesort);
        for n in [0usize, 1, 3, 4, 50, 1_000, 10_000] {
            let plan = StagePlan::new(&spec, n);
            assert_eq!(plan, StagePlan::new(&spec, n));
            let covered: usize = plan.chunks().iter().map(|&(lo, hi)| hi - lo).sum();
            assert_eq!(covered, n, "n={n}");
            for &(lo, hi) in plan.chunks() {
                assert!(lo <= hi);
                assert!(lo % spec.b() == 0, "chunks start block-aligned");
            }
            assert_eq!(plan.layout_after(plan.total_phases()), vec![n]);
        }
        // Many chunks at a small fan-in force multiple merge rounds.
        let tight = SortSpec::builder(Algorithm::Mergesort, 8, 4, 8)
            .build()
            .unwrap();
        let plan = StagePlan::new(&tight, 1_000);
        assert!(plan.rounds() >= 2, "fan-in 2 over 8 chunks needs 3 rounds");
    }

    #[test]
    fn staged_output_matches_the_single_shot_path() {
        let input = Workload::Zipf.generate(900, 7);
        for algorithm in Algorithm::ALL {
            let spec = spec_for(algorithm);
            let mut sink = MemCheckpointer::default();
            let staged = run_staged(&spec, &input, &mut sink).expect("staged");
            let plain = run(&spec, &input).expect("single-shot");
            assert_eq!(staged.output, plain.output, "{algorithm}");
            assert_eq!(
                sink.manifests.len(),
                StagePlan::new(&spec, input.len()).total_phases() - 1,
                "one manifest per phase but the last"
            );
            let est = predict_staged(&spec, input.len());
            assert!(staged.stats.block_reads <= est.reads, "{algorithm}");
            assert!(staged.stats.block_writes <= est.writes, "{algorithm}");
            assert!(staged.stats.peak_memory <= est.peak_memory, "{algorithm}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs_stage_cleanly() {
        let spec = spec_for(Algorithm::Samplesort);
        for n in [0usize, 1, 5] {
            let input = Workload::UniformRandom.generate(n, 3);
            let mut sink = MemCheckpointer::default();
            let staged = run_staged(&spec, &input, &mut sink).expect("staged");
            let mut expect = input.clone();
            expect.sort();
            assert_eq!(staged.output, expect, "n={n}");
        }
    }

    /// The fold of every delta in `deltas`, each of which must advance it.
    fn folded(deltas: &[CheckpointManifest]) -> CheckpointManifest {
        let mut held = None;
        for d in deltas {
            assert!(
                CheckpointManifest::fold(&mut held, d.clone()),
                "phase {}",
                d.phases_done
            );
        }
        held.expect("at least one delta")
    }

    #[test]
    fn manifests_round_trip_and_reject_garbage() {
        let spec = spec_for(Algorithm::Mergesort);
        let input = Workload::UniformRandom.generate(300, 5);
        let mut sink = MemCheckpointer::default();
        run_staged(&spec, &input, &mut sink).expect("staged");
        for (i, m) in sink.manifests.iter().enumerate() {
            let back = CheckpointManifest::from_json(&m.to_json()).expect("round trip");
            assert_eq!(&back, m);
            let full = folded(&sink.manifests[..=i]);
            assert!(full.validate(&spec, &input).is_ok());
            // The same snapshot as a v1 line (no `base`) decodes to it.
            let v1 = full
                .to_json()
                .replacen("\"version\": 2", "\"version\": 1", 1)
                .replacen("\"base\": 0, ", "", 1);
            assert!(!v1.contains("base"), "{v1}");
            assert_eq!(CheckpointManifest::from_json(&v1), Ok(full));
        }
        assert!(CheckpointManifest::from_json("42").is_err());
        let future = sink.manifests[0]
            .to_json()
            .replacen("\"version\": 2", "\"version\": 9", 1);
        let err = CheckpointManifest::from_json(&future).unwrap_err();
        assert!(err.to_string().contains("version 9"), "{err}");
        let baseless = sink.manifests[0].to_json().replacen("\"base\": 0, ", "", 1);
        assert!(
            CheckpointManifest::from_json(&baseless).is_err(),
            "v2 needs a base"
        );
    }

    #[test]
    fn fold_ignores_duplicates_gaps_and_bases_past_the_layout() {
        let spec = spec_for(Algorithm::Mergesort);
        let input = Workload::UniformRandom.generate(400, 9);
        let mut sink = MemCheckpointer::default();
        run_staged(&spec, &input, &mut sink).expect("staged");
        let d = &sink.manifests;
        assert!(
            d[1].base == 1 && d[2].base == 2,
            "chunk phases keep the runs before them"
        );
        let two = folded(&d[..2]);
        let mut held = Some(two.clone());
        for (stale, why) in [
            (d[1].clone(), "duplicate"),
            (d[0].clone(), "older"),
            (d[3].clone(), "gap"),
            (
                CheckpointManifest {
                    base: 3,
                    ..d[2].clone()
                },
                "base past the layout",
            ),
        ] {
            assert!(!CheckpointManifest::fold(&mut held, stale), "{why}");
            assert_eq!(held.as_ref(), Some(&two), "{why}");
        }
        let mut none = None;
        assert!(
            !CheckpointManifest::fold(&mut none, d[1].clone()),
            "no layout to extend"
        );
        assert!(CheckpointManifest::fold(&mut held, d[2].clone()));
        assert_eq!(held, Some(folded(&d[..3])));
    }

    #[test]
    fn validation_catches_wrong_job_phase_and_layout() {
        let spec = spec_for(Algorithm::Mergesort);
        let input = Workload::UniformRandom.generate(400, 9);
        let mut sink = MemCheckpointer::default();
        run_staged(&spec, &input, &mut sink).expect("staged");
        let good = folded(&sink.manifests[..2]);
        assert!(good.validate(&spec, &input).is_ok());

        // An unfolded delta is not a snapshot.
        assert!(sink.manifests[1]
            .validate(&spec, &input)
            .unwrap_err()
            .contains("fold"));

        // Different input: digest refuses.
        let other = Workload::UniformRandom.generate(400, 10);
        assert!(good.validate(&spec, &other).unwrap_err().contains("digest"));
        // Different logical spec (seed participates in the digest).
        let reseeded = SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
            .k(2)
            .seed(12)
            .build()
            .unwrap();
        assert!(good.validate(&reseeded, &input).is_err());
        // Tampered layout and phase counter.
        let mut torn = good.clone();
        torn.runs.pop();
        assert!(torn.validate(&spec, &input).unwrap_err().contains("layout"));
        let mut late = good.clone();
        late.phases_done = late.total_phases + 1;
        assert!(late.validate(&spec, &input).unwrap_err().contains("range"));
        let mut shuffled = good.clone();
        shuffled.runs[0].reverse();
        assert!(shuffled
            .validate(&spec, &input)
            .unwrap_err()
            .contains("not sorted"));
        // And resume_from surfaces the same refusal typed.
        let mut sink2 = MemCheckpointer::default();
        assert!(matches!(
            resume_from(&spec, &other, &good, &mut sink2),
            Err(ModelError::Invariant(_))
        ));
    }

    #[test]
    fn backend_and_fault_do_not_enter_the_digest() {
        let input = Workload::UniformRandom.generate(100, 1);
        let base = spec_for(Algorithm::Mergesort);
        let faulted = SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
            .k(2)
            .seed(11)
            .fault(Some(em_sim::FaultSpec::new(7)))
            .build()
            .unwrap();
        assert_eq!(input_digest(&base, &input), input_digest(&faulted, &input));
        let reseeded = SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
            .k(2)
            .seed(12)
            .build()
            .unwrap();
        assert_ne!(input_digest(&base, &input), input_digest(&reseeded, &input));
    }
}
