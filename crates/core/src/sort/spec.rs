//! The sort-job description: [`Algorithm`], the validated [`SortSpec`]
//! builder, [`SpecError`], and the `ASYM_BENCH_*` environment absorption.

use crate::em::mergesort::mergesort_slack;
use crate::em::pq::pq_slack;
use crate::em::samplesort::samplesort_slack;
use crate::par::par_samplesort_slack;
use em_sim::file::FileStore;
use em_sim::{
    Backend, BlockStore, EmConfig, EmMachine, FaultSpec, FaultStore, MemStore, ParMachine,
};
use std::path::PathBuf;

/// The four AEM sorting algorithms the unified API fronts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Algorithm 2 — the l = kM/B-way mergesort (§4.1).
    Mergesort,
    /// The l-way distribution sort (§4.2).
    Samplesort,
    /// n inserts + n delete-mins on the buffer-tree priority queue (§4.3).
    Heapsort,
    /// The modeled parallel sample sort on lane-sharded machines (§4–§5).
    ParSamplesort,
}

impl Algorithm {
    /// Every algorithm, in presentation order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Mergesort,
        Algorithm::Samplesort,
        Algorithm::Heapsort,
        Algorithm::ParSamplesort,
    ];

    /// Stable lowercase identifier (used in bench JSON, tables and the
    /// wire format).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Mergesort => "aem-mergesort",
            Algorithm::Samplesort => "aem-samplesort",
            Algorithm::Heapsort => "aem-heapsort",
            Algorithm::ParSamplesort => "par-aem-samplesort",
        }
    }

    /// Parse an algorithm from its stable [`Algorithm::name`] (the wire
    /// format and bench JSON both name algorithms this way).
    pub fn parse(name: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.name() == name)
    }

    /// Whether the algorithm runs on lane-sharded machines (`lanes > 1`
    /// meaningful) rather than one sequential machine.
    pub fn is_parallel(self) -> bool {
        matches!(self, Algorithm::ParSamplesort)
    }

    /// The slack (extra primary memory beyond `M`, in records) the paper
    /// budgets for this algorithm at write-saving factor `k` — the default a
    /// [`SortSpec`] is built with unless overridden.
    fn default_slack(self, m: usize, b: usize, k: usize) -> usize {
        match self {
            Algorithm::Mergesort => mergesort_slack(m, b, k),
            Algorithm::Samplesort => samplesort_slack(m, b, k),
            Algorithm::Heapsort => pq_slack(m, b, k),
            Algorithm::ParSamplesort => par_samplesort_slack(m, b, k),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a [`SortSpecBuilder`] refused to produce a [`SortSpec`]. Every
/// invalid combination is a typed error — never a panic — so job
/// descriptions arriving from config files, env vars, or the network can be
/// rejected gracefully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// ω must be ≥ 1 (ω = 1 is the symmetric baseline).
    ZeroOmega,
    /// B must be ≥ 1.
    ZeroBlock,
    /// Primary memory must hold at least one block (B ≤ M).
    BlockExceedsMemory {
        /// Block size requested.
        b: usize,
        /// Primary memory requested.
        m: usize,
    },
    /// The write-saving factor k must be ≥ 1 (k = 1 is the classic EM
    /// algorithm).
    ZeroWriteFactor,
    /// The branching factor (fan-in) must be ≥ 2: `kM/B` for the serial
    /// sorts, `M/B` for the parallel sample sort.
    FanInTooSmall {
        /// The computed fan-in.
        fan_in: usize,
    },
    /// A machine needs at least one lane.
    ZeroLanes,
    /// Multiple lanes were requested for a sequential algorithm.
    LanesOnSerialSort {
        /// The sequential algorithm.
        algorithm: Algorithm,
        /// The lanes requested.
        lanes: usize,
    },
    /// `k·M` exceeds the geometry ceiling, so the fan-in, slack formulas,
    /// or capacity sums would overflow `usize`.
    GeometryOverflow {
        /// Primary memory requested.
        m: usize,
        /// Write-saving factor requested.
        k: usize,
    },
    /// A fault-injection rate is out of range (permille means 0..=1000).
    FaultRate {
        /// Which rate field.
        field: &'static str,
        /// The rate requested.
        permille: u16,
    },
    /// An `ASYM_BENCH_*` variable held an unparsable value.
    Env {
        /// The variable.
        var: &'static str,
        /// Its value.
        value: String,
        /// What would have parsed.
        expected: &'static str,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ZeroOmega => write!(f, "omega must be at least 1"),
            SpecError::ZeroBlock => write!(f, "block size B must be at least 1"),
            SpecError::BlockExceedsMemory { b, m } => {
                write!(f, "primary memory must hold a block (B = {b} > M = {m})")
            }
            SpecError::ZeroWriteFactor => write!(f, "write-saving factor k must be at least 1"),
            SpecError::FanInTooSmall { fan_in } => {
                write!(f, "branching factor {fan_in} must be at least 2")
            }
            SpecError::ZeroLanes => write!(f, "a machine needs at least one lane"),
            SpecError::LanesOnSerialSort { algorithm, lanes } => {
                write!(f, "{algorithm} is sequential; {lanes} lanes requested")
            }
            SpecError::GeometryOverflow { m, k } => {
                write!(
                    f,
                    "geometry overflows: k = {k} times M = {m} records exceeds the ceiling"
                )
            }
            SpecError::FaultRate { field, permille } => {
                write!(f, "fault rate {field} = {permille} exceeds 1000 permille")
            }
            SpecError::Env {
                var,
                value,
                expected,
            } => write!(f, "{var}={value:?}: expected {expected}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The environment variable naming the storage backend (`mem` or `file`).
pub const BACKEND_ENV: &str = em_sim::store::BACKEND_ENV;

/// The environment variable capping the lane count of parallel jobs (and
/// the lane sweeps of the bench harness).
pub const THREADS_ENV: &str = "ASYM_BENCH_THREADS";

/// Parse a [`BACKEND_ENV`] value.
pub fn parse_backend(value: &str) -> Result<Backend, SpecError> {
    Backend::parse(value).ok_or(SpecError::Env {
        var: BACKEND_ENV,
        value: value.into(),
        expected: "\"mem\" or \"file\"",
    })
}

/// Parse a [`THREADS_ENV`] value (a lane count; clamped up to 1).
pub fn parse_thread_cap(value: &str) -> Result<usize, SpecError> {
    value
        .trim()
        .parse::<usize>()
        .map(|n| n.max(1))
        .map_err(|_| SpecError::Env {
            var: THREADS_ENV,
            value: value.into(),
            expected: "a lane count",
        })
}

/// Read [`BACKEND_ENV`]: `Ok(None)` when unset, a typed [`SpecError`] when
/// set to garbage. This is the single parsing point the whole workspace
/// routes through (harness and benches `expect` the error — a typo must not
/// silently run a backend-matrix job on the wrong store).
pub fn env_backend() -> Result<Option<Backend>, SpecError> {
    match std::env::var(BACKEND_ENV) {
        Ok(v) => parse_backend(&v).map(Some),
        Err(_) => Ok(None),
    }
}

/// Read [`THREADS_ENV`]: `Ok(None)` when unset (no cap).
pub fn env_thread_cap() -> Result<Option<usize>, SpecError> {
    match std::env::var(THREADS_ENV) {
        Ok(v) => parse_thread_cap(&v).map(Some),
        Err(_) => Ok(None),
    }
}

/// A validated description of one sort job: which algorithm, on what
/// machine geometry, at which write-saving factor, over how many lanes, on
/// which storage backend. Constructed through [`SortSpec::builder`]; a
/// `SortSpec` that exists has passed validation, so [`super::run`] only
/// surfaces runtime faults ([`asym_model::ModelError`]), never
/// configuration mistakes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortSpec {
    algorithm: Algorithm,
    m: usize,
    b: usize,
    omega: u64,
    k: usize,
    lanes: usize,
    backend: Backend,
    file_dir: Option<PathBuf>,
    seed: u64,
    slack: usize,
    steal_charge: bool,
    fault: Option<FaultSpec>,
}

impl SortSpec {
    /// Start describing a job: `algorithm` on an `M`-record memory with
    /// `B`-record blocks at write cost `omega`. Everything else defaults:
    /// k = 1, one lane, in-memory backend, seed 0, the paper's slack for the
    /// algorithm, no steal charging.
    pub fn builder(algorithm: Algorithm, m: usize, b: usize, omega: u64) -> SortSpecBuilder {
        SortSpecBuilder {
            algorithm,
            m,
            b,
            omega,
            k: 1,
            lanes: 1,
            backend: Backend::Mem,
            file_dir: None,
            seed: 0,
            slack: None,
            steal_charge: false,
            fault: None,
        }
    }

    /// A builder seeded with every field of this spec, so a caller can
    /// change one field and rebuild without restating the rest.
    pub fn to_builder(&self) -> SortSpecBuilder {
        SortSpecBuilder {
            algorithm: self.algorithm,
            m: self.m,
            b: self.b,
            omega: self.omega,
            k: self.k,
            lanes: self.lanes,
            backend: self.backend,
            file_dir: self.file_dir.clone(),
            seed: self.seed,
            slack: Some(self.slack),
            steal_charge: self.steal_charge,
            fault: self.fault,
        }
    }

    /// The algorithm this job runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Primary memory size `M`, in records.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Block size `B`, in records.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Write cost ω.
    pub fn omega(&self) -> u64 {
        self.omega
    }

    /// Write-saving factor k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Lane count (1 for the sequential algorithms).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The storage backend every machine of this job runs on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Seed driving sampling and scheduler simulation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The directory the file backend's backing files live in (`None`: the
    /// system temp dir, or not the file backend at all).
    pub fn file_dir(&self) -> Option<&std::path::Path> {
        self.file_dir.as_deref()
    }

    /// Extra primary memory beyond `M`, in records.
    pub fn slack(&self) -> usize {
        self.slack
    }

    /// Whether the §2 steal-aware cache warm-up charge is folded into lane
    /// stats (parallel algorithms only; no-op for sequential jobs, which
    /// have no scheduler).
    pub fn steal_charge(&self) -> bool {
        self.steal_charge
    }

    /// The seeded fault-injection schedule every machine of this job mounts
    /// (`None`: a well-behaved device). Faults never change modeled costs —
    /// the machine charges before it touches the store.
    pub fn fault(&self) -> Option<FaultSpec> {
        self.fault
    }

    /// The machine configuration this spec resolves to.
    fn em_config(&self) -> EmConfig {
        EmConfig::new(self.m, self.b, self.omega).with_slack(self.slack)
    }

    /// Build one machine per the spec. Fails with [`asym_model::ModelError::Io`]
    /// when the file backend cannot create its backing file (e.g. an
    /// unwritable directory) — never panics.
    pub fn machine(&self) -> asym_model::Result<EmMachine> {
        self.machine_salted(0)
    }

    /// [`SortSpec::machine`] with a lane index folded into any injected
    /// fault stream, so each lane of a parallel machine faults
    /// independently rather than in lockstep.
    fn machine_salted(&self, lane: u64) -> asym_model::Result<EmMachine> {
        let cfg = self.em_config();
        let mut store: Box<dyn BlockStore> = match (self.backend, &self.file_dir) {
            (Backend::Mem, _) => Box::new(MemStore::new(cfg.b)),
            (Backend::File, Some(dir)) => Box::new(FileStore::new_in(dir, cfg.b)?),
            (Backend::File, None) => Box::new(FileStore::new(cfg.b)?),
        };
        if let Some(fault) = self.fault {
            let fault = if lane == 0 { fault } else { fault.salted(lane) };
            store = Box::new(FaultStore::new(store, fault));
        }
        Ok(EmMachine::with_store(cfg, store))
    }

    /// Build the lane-sharded machine bank per the spec (same failure mode
    /// as [`SortSpec::machine`], once per lane).
    pub fn par_machine(&self) -> asym_model::Result<ParMachine> {
        let lanes = (0..self.lanes)
            .map(|lane| self.machine_salted(lane as u64))
            .collect::<asym_model::Result<Vec<_>>>()?;
        Ok(ParMachine::from_lanes(lanes))
    }
}

/// Builder for [`SortSpec`] (see [`SortSpec::builder`]).
#[derive(Clone, Debug)]
pub struct SortSpecBuilder {
    algorithm: Algorithm,
    m: usize,
    b: usize,
    omega: u64,
    k: usize,
    lanes: usize,
    backend: Backend,
    file_dir: Option<PathBuf>,
    seed: u64,
    slack: Option<usize>,
    steal_charge: bool,
    fault: Option<FaultSpec>,
}

impl SortSpecBuilder {
    /// Write-saving factor k (default 1 — the classic EM algorithm).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Lane count for parallel algorithms (default 1).
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Storage backend (default [`Backend::Mem`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Directory for the file backend's backing files (default: the system
    /// temp dir). Ignored on the in-memory backend.
    pub fn file_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.file_dir = Some(dir.into());
        self
    }

    /// Seed for sampling and the scheduler simulation (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the paper's slack allowance (default: the algorithm's
    /// published footprint at factor `k`).
    pub fn slack(mut self, slack: usize) -> Self {
        self.slack = Some(slack);
        self
    }

    /// Fold the §2 per-steal `O(M/B)` cache warm-up charge into the lane
    /// stats (default off; parallel algorithms only).
    pub fn steal_charge(mut self, on: bool) -> Self {
        self.steal_charge = on;
        self
    }

    /// Mount a seeded fault-injecting store over the chosen backend
    /// (default `None`: a well-behaved device). Rates beyond 1000 permille
    /// are a typed [`SpecError::FaultRate`] at build time.
    pub fn fault(mut self, fault: Option<FaultSpec>) -> Self {
        self.fault = fault;
        self
    }

    /// Absorb the `ASYM_BENCH_*` environment: `ASYM_BENCH_BACKEND` replaces
    /// the backend when set, `ASYM_BENCH_THREADS` caps the lane count. A
    /// garbage value is a typed [`SpecError::Env`], never a panic or a
    /// silent fallback.
    pub fn from_env(mut self) -> Result<Self, SpecError> {
        if let Some(backend) = env_backend()? {
            self.backend = backend;
        }
        if let Some(cap) = env_thread_cap()? {
            self.lanes = self.lanes.min(cap);
        }
        Ok(self)
    }

    /// Validate and produce the [`SortSpec`].
    pub fn build(self) -> Result<SortSpec, SpecError> {
        if self.omega == 0 {
            return Err(SpecError::ZeroOmega);
        }
        if self.b == 0 {
            return Err(SpecError::ZeroBlock);
        }
        if self.b > self.m {
            return Err(SpecError::BlockExceedsMemory {
                b: self.b,
                m: self.m,
            });
        }
        if self.k == 0 {
            return Err(SpecError::ZeroWriteFactor);
        }
        if self.lanes == 0 {
            return Err(SpecError::ZeroLanes);
        }
        if !self.algorithm.is_parallel() && self.lanes > 1 {
            return Err(SpecError::LanesOnSerialSort {
                algorithm: self.algorithm,
                lanes: self.lanes,
            });
        }
        // Geometry ceiling: k·M bounds every term the slack formulas and
        // the capacity sum `M + slack` build from (the largest is
        // pq_slack's ~10·kM), so capping it at usize::MAX/16 makes all of
        // them — and the fan-in product below — overflow-free. A typed
        // error, not a panic: job descriptions can arrive from config or
        // the network.
        let km = self
            .k
            .checked_mul(self.m)
            .filter(|&km| km <= usize::MAX / 16)
            .ok_or(SpecError::GeometryOverflow {
                m: self.m,
                k: self.k,
            })?;
        // Fan-in floor: the parallel sort buckets at M/B regardless of k (k
        // only reaches its inner serial mergesort); the serial sorts branch
        // at kM/B.
        let fan_in = if self.algorithm.is_parallel() {
            self.m / self.b
        } else {
            km / self.b
        };
        if fan_in < 2 {
            return Err(SpecError::FanInTooSmall { fan_in });
        }
        if let Some(f) = &self.fault {
            for (field, permille) in [
                ("read_permille", f.read_permille),
                ("write_permille", f.write_permille),
                ("short_permille", f.short_permille),
                ("panic_permille", f.panic_permille),
            ] {
                if permille > 1000 {
                    return Err(SpecError::FaultRate { field, permille });
                }
            }
        }
        let slack = self
            .slack
            .unwrap_or_else(|| self.algorithm.default_slack(self.m, self.b, self.k));
        Ok(SortSpec {
            algorithm: self.algorithm,
            m: self.m,
            b: self.b,
            omega: self.omega,
            k: self.k,
            lanes: self.lanes,
            backend: self.backend,
            file_dir: self.file_dir,
            seed: self.seed,
            slack,
            steal_charge: self.steal_charge,
            fault: self.fault,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_the_paper_footprints() {
        for algorithm in Algorithm::ALL {
            let spec = SortSpec::builder(algorithm, 32, 4, 8)
                .k(2)
                .lanes(if algorithm.is_parallel() { 4 } else { 1 })
                .build()
                .expect("valid spec");
            assert_eq!(spec.slack(), algorithm.default_slack(32, 4, 2));
            assert_eq!(spec.em_config().capacity(), 32 + spec.slack());
            assert_eq!(spec.backend(), Backend::Mem);
        }
    }

    #[test]
    fn to_builder_round_trips_every_field() {
        for algorithm in Algorithm::ALL {
            let spec = SortSpec::builder(algorithm, 32, 4, 8)
                .k(2)
                .lanes(if algorithm.is_parallel() { 4 } else { 1 })
                .backend(Backend::File)
                .file_dir("/tmp/asym-to-builder")
                .seed(u64::MAX)
                .slack(77)
                .steal_charge(algorithm.is_parallel())
                .fault(Some(FaultSpec {
                    seed: 9,
                    read_permille: 1,
                    write_permille: 2,
                    short_permille: 3,
                    panic_permille: 4,
                }))
                .build()
                .expect("valid spec");
            assert_eq!(spec.to_builder().build(), Ok(spec), "{algorithm}");
        }
    }

    #[test]
    fn invalid_combinations_are_typed_errors() {
        let b = |f: fn(SortSpecBuilder) -> SortSpecBuilder| {
            f(SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)).build()
        };
        assert_eq!(
            SortSpec::builder(Algorithm::Mergesort, 32, 4, 0).build(),
            Err(SpecError::ZeroOmega)
        );
        assert_eq!(
            SortSpec::builder(Algorithm::Mergesort, 32, 0, 8).build(),
            Err(SpecError::ZeroBlock)
        );
        assert_eq!(
            SortSpec::builder(Algorithm::Mergesort, 4, 32, 8).build(),
            Err(SpecError::BlockExceedsMemory { b: 32, m: 4 })
        );
        assert_eq!(b(|s| s.k(0)), Err(SpecError::ZeroWriteFactor));
        assert_eq!(b(|s| s.lanes(0)), Err(SpecError::ZeroLanes));
        assert_eq!(
            b(|s| s.lanes(4)),
            Err(SpecError::LanesOnSerialSort {
                algorithm: Algorithm::Mergesort,
                lanes: 4
            })
        );
        // kM/B = 1 < 2: the degenerate fan-in the free functions reject at
        // run time is a build-time error here.
        assert_eq!(
            SortSpec::builder(Algorithm::Mergesort, 4, 4, 8).build(),
            Err(SpecError::FanInTooSmall { fan_in: 1 })
        );
        // The parallel sort ignores k for its fan-in.
        assert_eq!(
            SortSpec::builder(Algorithm::ParSamplesort, 4, 4, 8)
                .k(8)
                .build(),
            Err(SpecError::FanInTooSmall { fan_in: 1 })
        );
        // Absurd geometry is a typed error, not a multiply-overflow panic
        // (and not a wrapped product that validates nonsense in release).
        assert_eq!(
            SortSpec::builder(Algorithm::Mergesort, usize::MAX, 2, 8)
                .k(2)
                .build(),
            Err(SpecError::GeometryOverflow {
                m: usize::MAX,
                k: 2
            })
        );
        assert_eq!(
            SortSpec::builder(Algorithm::Heapsort, usize::MAX / 8, 8, 8).build(),
            Err(SpecError::GeometryOverflow {
                m: usize::MAX / 8,
                k: 1
            })
        );
        // Every error displays something human-readable.
        for e in [
            SpecError::ZeroOmega,
            SpecError::FanInTooSmall { fan_in: 1 },
            SpecError::Env {
                var: BACKEND_ENV,
                value: "nvme".into(),
                expected: "\"mem\" or \"file\"",
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn fault_rates_validate_and_do_not_change_costs() {
        let absurd = FaultSpec {
            seed: 1,
            read_permille: 1001,
            ..FaultSpec::new(1)
        };
        assert_eq!(
            SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
                .fault(Some(absurd))
                .build(),
            Err(SpecError::FaultRate {
                field: "read_permille",
                permille: 1001
            })
        );
        // A mounted fault schedule changes luck, never modeled costs: a
        // no-op spec must leave the run bit-identical to a bare machine.
        let input = asym_model::workload::Workload::UniformRandom.generate(400, 9);
        let plain = crate::sort::run(
            &SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
                .k(2)
                .build()
                .unwrap(),
            &input,
        )
        .expect("plain run");
        let faulted = crate::sort::run(
            &SortSpec::builder(Algorithm::Mergesort, 32, 4, 8)
                .k(2)
                .fault(Some(FaultSpec::new(0xDECAF)))
                .build()
                .unwrap(),
            &input,
        )
        .expect("no-op fault run");
        assert_eq!(plain.output, faulted.output);
        assert_eq!(plain.stats, faulted.stats);
    }

    #[test]
    fn env_values_parse_or_fail_typed() {
        assert_eq!(parse_backend("mem"), Ok(Backend::Mem));
        assert_eq!(parse_backend("file"), Ok(Backend::File));
        assert!(matches!(
            parse_backend("nvme"),
            Err(SpecError::Env {
                var: BACKEND_ENV,
                ..
            })
        ));
        assert_eq!(parse_thread_cap("4"), Ok(4));
        assert_eq!(parse_thread_cap(" 2 "), Ok(2));
        assert_eq!(parse_thread_cap("0"), Ok(1), "cap clamps up to one lane");
        assert!(matches!(
            parse_thread_cap("many"),
            Err(SpecError::Env {
                var: THREADS_ENV,
                ..
            })
        ));
    }

    #[test]
    fn algorithm_names_are_stable() {
        assert_eq!(Algorithm::Mergesort.name(), "aem-mergesort");
        assert_eq!(Algorithm::ParSamplesort.to_string(), "par-aem-samplesort");
        assert!(Algorithm::ParSamplesort.is_parallel());
        assert!(!Algorithm::Heapsort.is_parallel());
        assert_eq!(Algorithm::ALL.len(), 4);
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::parse(a.name()), Some(a));
        }
        assert_eq!(Algorithm::parse("quicksort"), None);
    }
}
