//! Evaluation harness for the reproduction.
//!
//! Implements the paper's three comparison criteria (Section 4) —
//! **match/mismatch**, **d-N** (mean |true − estimated| NoDoc) and **d-S**
//! (mean |true − estimated| AvgSim) — plus the experiment drivers that
//! regenerate every table:
//!
//! | Paper table | Driver |
//! |---|---|
//! | Tables 1–6 (three methods × D1–D3) | [`experiments::run_main_tables`] |
//! | Tables 7–9 (one-byte quantization) | [`experiments::run_quantized_tables`] |
//! | Tables 10–12 (estimated max weights) | [`experiments::run_triplet_tables`] |
//! | §3.2 representative-size table | [`experiments::run_scalability`] |
//! | §3.1 single-term guarantee (analytic) | [`experiments::run_guarantee`] |
//! | Ablations (subranges / disjoint / grid) | `experiments::run_ablation_*` |
//!
//! The `repro` binary exposes each driver as a subcommand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod ranking;
pub mod runner;
pub mod tables;

pub use metrics::{MethodResult, ThresholdRow};
pub use ranking::{rank_databases, RankingFixture, RankingResult};
pub use runner::{evaluate, EvalConfig};
pub use tables::{render_dn_ds_table, render_match_table, render_side_by_side};
