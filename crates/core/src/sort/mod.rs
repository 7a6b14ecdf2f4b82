//! The unified sort-job API: one front door for every AEM sort.
//!
//! The paper presents its three sequential sorts and the parallel schedule
//! as instances of one question — how many reads and ω-weighted writes does
//! a sort pay on a machine with memory `M`, blocks `B`, and write cost ω —
//! so the repo fronts them with one job description instead of four free
//! functions with incompatible signatures:
//!
//! * [`SortSpec`] — a validated, serializable-in-spirit description of one
//!   job: algorithm, geometry `(M, B, ω)`, write-saving factor `k`, lanes,
//!   storage [`Backend`](em_sim::Backend), seed, slack, and the §2
//!   steal-charging knob. Invalid combinations are typed [`SpecError`]s at
//!   build time; [`SortSpecBuilder::from_env`] absorbs the `ASYM_BENCH_*`
//!   variables in one place.
//! * [`run`] — `run(&spec, input) -> SortOutcome`, one `match` on the
//!   spec's [`Algorithm`] that calls the per-algorithm free functions,
//!   which are the engines themselves, so `run` and a direct engine call
//!   are cost-identical by construction — `tests/cost_golden.rs` freezes
//!   the counts through the free functions and `tests/sort_api.rs` pins
//!   the equivalence.
//! * [`run_lean`] — `run` for a caller that wants only the counts: the
//!   sorted runs are freed without gathering them to host memory, and the
//!   outcome keeps only their length (`output_len`).
//! * [`merge`] — a mergesort spec may name the sorted runs its input
//!   already is ([`SortSpecBuilder::runs`]); `run` then merges them in one
//!   Lemma 4.1 merge instead of sorting from scratch, and
//!   [`SortSpec::predict`] prices that merge in closed form.
//! * [`SortOutcome`] — output, merged [`EmStats`](em_sim::EmStats), a
//!   [`CostReport`](asym_model::CostReport), and per-lane / per-phase /
//!   scheduler detail for parallel runs.
//! * [`Algorithm::ALL`] — every algorithm; experiments and differential
//!   tests enumerate it and call [`run`] instead of hard-coding call sites.
//! * [`SortSpec::predict`] — the paper's cost bounds evaluated pre-run as a
//!   [`CostEstimate`], the admission-control currency of the job server.
//! * [`SortSpec::to_json`] / [`SortOutcome::to_json`] — the JSON wire
//!   format ([`wire`]), with every decode failure a typed [`WireError`].
//!
//! ```
//! use asym_core::sort::{Algorithm, SortSpec};
//! use asym_model::workload::Workload;
//!
//! let spec = SortSpec::builder(Algorithm::Mergesort, 64, 8, 16)
//!     .k(4) // trade 4x reads for ~1/2 the write levels
//!     .build()
//!     .expect("valid spec");
//! let input = Workload::UniformRandom.generate(10_000, 42);
//! let outcome = asym_core::sort::run(&spec, &input).expect("sort");
//! assert!(outcome.output.windows(2).all(|w| w[0] <= w[1]));
//! println!(
//!     "{}: {} reads, {} writes, I/O cost {}",
//!     spec.algorithm(),
//!     outcome.stats.block_reads,
//!     outcome.stats.block_writes,
//!     outcome.io_cost()
//! );
//! ```

mod adapters;
pub mod checkpoint;
pub mod merge;
pub mod predict;
pub mod spec;
pub mod wire;

pub use checkpoint::{
    input_digest, predict_staged, resume_from, run_staged, CheckpointManifest, Checkpointer,
    MemCheckpointer, StagePlan, MANIFEST_VERSION,
};

pub use adapters::{run, run_lean, ParData, SortOutcome};
pub use predict::CostEstimate;
pub use spec::{
    env_backend, env_thread_cap, parse_backend, parse_thread_cap, Algorithm, SortSpec,
    SortSpecBuilder, SpecError, BACKEND_ENV, THREADS_ENV,
};
pub use wire::WireError;
