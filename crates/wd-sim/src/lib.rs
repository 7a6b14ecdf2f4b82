//! # wd-sim — the Asymmetric PRAM work-depth framework
//!
//! §2 of the paper analyzes parallel algorithms by *work* (total operation
//! cost, with writes weighted ω) and *depth* (the longest chain of
//! dependences, again with writes costing ω). This crate provides:
//!
//! * [`Cost`] — a compositional work-depth cost algebra: sequential
//!   composition adds depth, parallel composition takes the max. The §3
//!   PRAM algorithms in `asym-core` compute their costs with it while they
//!   compute their results, so the reported depth is *measured from the
//!   actual dependence structure*, not transcribed from the paper.
//! * [`time_on`] — Brent's-theorem time bounds `T(n,p) = (ω·w + r)/p + d`.
//! * [`sched`] — fork-join task trees and a randomized work-stealing
//!   scheduler simulation, used to check the §2 scheduler bounds
//!   (`Qp ≤ Q1 + O(p·D·M/B)` rests on "#steals = O(pD) w.h.p.", which is the
//!   quantity the simulation measures).

mod brent;
mod cost;
pub mod sched;

pub use brent::time_on;
pub use cost::Cost;
pub use sched::{
    simulate_work_stealing, simulate_work_stealing_traced, StealStats, StealTrace, Task,
};
