//! Optimum cycle mean and optimum cost-to-time ratio algorithms.
//!
//! This crate reproduces the complete algorithm suite of the DAC 1999
//! experimental study by Dasdan, Irani and Gupta: ten leading algorithms
//! for the **minimum mean cycle problem** (MCMP) and the **minimum cost
//! to time ratio problem** (MCRP), implemented uniformly over the
//! [`mcr_graph`] substrate, instrumented with operation counters, and
//! validated against an independent brute-force reference.
//!
//! # The problems
//!
//! For a digraph with arc weights `w` and transit times `t`, the *mean*
//! of a cycle `C` is `w(C)/|C|` and its *ratio* is `w(C)/t(C)`. The
//! minimum cycle mean `λ*` (minimum ratio `ρ*`) minimizes over all
//! cycles. These quantities are the cycle period of cyclic digital
//! systems: the iteration bound of dataflow graphs, the minimum clock
//! period of synchronous circuits, the throughput of asynchronous
//! circuits.
//!
//! # Quick start
//!
//! ```
//! use mcr_core::{minimum_cycle_mean, Algorithm};
//! use mcr_graph::graph::from_arc_list;
//!
//! let g = from_arc_list(3, &[(0, 1, 2), (1, 2, 4), (2, 0, 3), (1, 0, 8)]);
//! let sol = minimum_cycle_mean(&g).expect("graph has a cycle");
//! assert_eq!(sol.lambda, mcr_core::Ratio64::from(3)); // (2+4+3)/3
//!
//! // Any specific algorithm from the study:
//! let karp = Algorithm::Karp.solve(&g).expect("cyclic");
//! assert_eq!(karp.lambda, sol.lambda);
//! ```
//!
//! # Algorithms
//!
//! | Name | Entry | Result | Complexity |
//! |------|-------|--------|------------|
//! | Burns | [`Algorithm::Burns`] | exact | `O(n²m)` |
//! | KO (Karp–Orlin) | [`Algorithm::Ko`] | exact | `O(nm log n)` |
//! | YTO (Young–Tarjan–Orlin) | [`Algorithm::Yto`] | exact | `O(nm + n² log n)` |
//! | Howard | [`Algorithm::Howard`] | exact value of final policy cycle | pseudopolynomial |
//! | Howard (exact) | [`Algorithm::HowardExact`] | exact | pseudopolynomial |
//! | HO (Hartmann–Orlin) | [`Algorithm::Ho`] | exact | `O(nm)` |
//! | Karp | [`Algorithm::Karp`] | exact | `Θ(nm)` |
//! | DG (Dasdan–Gupta) | [`Algorithm::Dg`] | exact | `O(nm)` |
//! | Karp2 (two-pass Karp) | [`Algorithm::Karp2`] | exact, `Θ(n)` space | `Θ(nm)` |
//! | Lawler | [`Algorithm::Lawler`] | ε-approximate | `O(nm log(range/ε))` |
//! | Lawler (exact) | [`Algorithm::LawlerExact`] | exact via rational snap | `O(nm log(n·range))` |
//! | Megiddo | [`Algorithm::Megiddo`] | exact, parametric search | `O(n²m log n)` |
//! | OA1 (Orlin–Ahuja style scaling) | [`Algorithm::Oa1`] | ε-approximate | scaling |
//!
//! Maximum versions and cost-to-time-ratio versions are in [`maximum`]
//! and [`ratio`].

pub mod algorithms;
pub mod bellman;
pub mod budget;
pub mod cancel;
pub mod certify;
pub mod chaos;
pub mod checkpoint;
pub mod critical;
mod driver;
pub mod dynamic;
pub mod edits;
pub mod error;
pub mod instrument;
pub mod maximum;
pub mod obs;
pub mod options;
pub mod ratio;
pub mod rational;
mod route;
pub mod reference;
pub mod register_graph;
pub mod solution;
pub mod spec;
pub mod status;
pub mod workspace;

pub use algorithms::Algorithm;
pub use budget::{Budget, BudgetScope, Deadline, DeadlineKind};
pub use cancel::CancelToken;
pub use certify::{certify, CertifyError};
pub use checkpoint::{Checkpoint, CheckpointError, CheckpointStore, JobProgress};
pub use driver::SccPlan;
pub use dynamic::{ArcSpec, DynamicOutcome, DynamicSolver, Edit, SolveMode};
pub use edits::{parse_edit_script, render_edit_script, EditScript, EDITS_SCHEMA};
pub use error::{BudgetResource, SolveError};
pub use instrument::Counters;
pub use options::{FallbackChain, SolveOptions};
pub use rational::Ratio64;
pub use solution::{Guarantee, Solution};
pub use spec::{Objective, SolveSpec, SpecError};
pub use status::SolveStatus;
pub use workspace::Workspace;

use mcr_graph::Graph;

/// Computes the minimum cycle mean of `g` with the study's overall
/// fastest algorithm (Howard's), or `None` if `g` is acyclic.
///
/// ```
/// use mcr_graph::graph::from_arc_list;
/// let g = from_arc_list(2, &[(0, 1, 1), (1, 0, 5)]);
/// let sol = mcr_core::minimum_cycle_mean(&g).expect("cyclic");
/// assert_eq!(sol.lambda, mcr_core::Ratio64::from(3));
/// ```
pub fn minimum_cycle_mean(g: &Graph) -> Option<Solution> {
    Algorithm::HowardExact.solve(g)
}

/// [`minimum_cycle_mean`] with explicit [`SolveOptions`] — a
/// worker-thread count for graphs with many strongly connected
/// components (results are bit-identical at every thread count), a work
/// [`Budget`], and a [`FallbackChain`]. Errors mirror
/// [`Algorithm::solve_with_options`].
pub fn minimum_cycle_mean_opts(g: &Graph, opts: &SolveOptions) -> Result<Solution, SolveError> {
    Algorithm::HowardExact.solve_with_options(g, opts)
}

/// Computes the minimum cost-to-time ratio of `g`, or `None` if `g` is
/// acyclic. See [`ratio`] for algorithm choices and preconditions
/// (every cycle must have positive total transit time).
pub fn minimum_cycle_ratio(g: &Graph) -> Option<Solution> {
    ratio::howard_ratio_exact(g)
}

/// Computes the maximum cycle mean of `g`, or `None` if `g` is acyclic.
pub fn maximum_cycle_mean(g: &Graph) -> Option<Solution> {
    maximum::maximum_cycle_mean(g)
}

/// Computes the maximum cost-to-time ratio of `g`, or `None` if `g` is
/// acyclic.
pub fn maximum_cycle_ratio(g: &Graph) -> Option<Solution> {
    maximum::maximum_cycle_ratio(g)
}
