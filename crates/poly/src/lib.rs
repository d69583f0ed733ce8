//! Probability generating-function machinery (Expressions (3)–(8) of the
//! paper).
//!
//! The subrange estimator forms, for each query term, a small *factor
//! polynomial* in a dummy variable `X` whose exponents are possible
//! per-term similarity contributions and whose coefficients are
//! probabilities. The product of the factors is the generating function:
//! by Proposition 1 the coefficient of `X^s` in the expanded product is the
//! probability that a random document of the database has similarity `s`
//! with the query. `est_NoDoc` and `est_AvgSim` are tail statistics of it.
//!
//! Exponents here are real numbers (similarities), not integers, so this is
//! really a sparse distribution-convolution engine:
//!
//! * [`SpikeFactors`] — the factors themselves, and the exact tail above a
//!   threshold read off them by a bounded depth-first walk over spike
//!   choices, never forming the product. What every estimate runs.
//! * [`SparsePoly`] — exact expansion; terms with exponents closer than an
//!   epsilon are merged ("merging terms with the same `X^s`" in the paper).
//!   A 6-term query under the six-subrange scheme expands to up to
//!   `7^6 = 117 649` terms; for callers that want the whole distribution.
//! * [`GridPoly`] — a fixed-resolution dense alternative with `O(r * G)`
//!   cost for `r` factors and `G` grid cells, for long queries, where the
//!   walk's time (not its memory) is still exponential; the trade-off is
//!   quantified by the `ablation-grid` and `long-queries` experiments.
//! * [`TailStats`] — `Σ a_i` and `Σ a_i b_i` over terms with `b_i > T`,
//!   the two quantities both estimators need (Equations (6) and below).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod sparse;
pub mod tail;

pub use grid::GridPoly;
pub use sparse::{SparsePoly, DEFAULT_MERGE_EPS};
pub use tail::{SpikeFactors, TailStats, Walk};
