//! Threaded engines: the paper's algorithms on real processors.
//!
//! Two implementation strategies are provided, mirroring the two ways
//! the paper describes its algorithms:
//!
//! * [`round`] — the *global* view ("at each step, evaluate all live
//!   leaves with pruning number ≤ w"): a round-synchronous engine that
//!   computes the exact frontier of the step-driven simulation and
//!   evaluates it across the evaluation's workers.  Step counts match the
//!   model simulation exactly, so the model-level speed-ups of
//!   Theorem 1/3 translate to wall-clock whenever leaf evaluation
//!   dominates.
//! * [`cascade`] — the *top-down* view (program `P-SOLVE`: parallel on
//!   the leftmost live subtree, sequential look-ahead on its right
//!   siblings, with aborts): a fork-join engine built on the
//!   evaluation's worker set and cancellation flags.  It approximates the dynamic re-budgeting
//!   of pruning numbers with static budgets (child `j` of a batch gets
//!   width `w−j`), which keeps it lock-free; correctness is exact,
//!   step-optimality is approximate.  See DESIGN.md §5.
//!
//! [`gameplay`] drives the cascade engine for move selection in real
//! games, on [`host_workers`] workers.
//!
//! Every threaded engine takes a worker count and draws all its threads
//! from one per-evaluation worker set (the `workers` module): at one worker it
//! runs on the calling thread alone.

pub mod cascade;
pub mod gameplay;
pub mod iterative;
pub mod memo;
pub mod mtdf;
pub mod round;
mod workers;
pub mod ybw;

pub use cascade::{Cancelled, CascadeEngine};
pub use gameplay::{best_move, SearchConfig};
pub use iterative::{iterative_best_move, DeepeningConfig, DeepeningOutcome};
pub use memo::{TtSearch, TtStats};
pub use mtdf::{mtdf, MtdfStats};
pub use round::{EngineResult, RoundEngine};
pub use ybw::YbwEngine;

/// The host's parallelism, read once per process: the worker count for
/// callers that own the whole machine (move selection, the wall-clock
/// experiments).  The serving tier passes its thread grant instead.
pub fn host_workers() -> u32 {
    static CORES: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u32))
}
