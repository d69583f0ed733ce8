//! Database representatives — the broker-side metadata of Section 3.
//!
//! A metasearch broker does not hold the documents of a local search
//! engine, only a compact statistical summary. In the paper a database
//! with `m` distinct terms is represented as `m` quadruplets
//! `(p_i, w_i, sigma_i, mw_i)`:
//!
//! * `p_i` — probability that term `t_i` appears in a document,
//! * `w_i` — average *normalized* weight of `t_i` over the documents
//!   containing it,
//! * `sigma_i` — standard deviation of those weights,
//! * `mw_i` — the maximum normalized weight (the critical parameter for
//!   single-term correctness; Tables 10–12 drop it to triplets).
//!
//! This crate provides:
//!
//! * [`Representative`] — the quadruplet table, built in one pass from a
//!   [`seu_engine::Collection`], with the §3.2 size accounting;
//! * [`SubrangeScheme`] — how a term's weight distribution is decomposed
//!   into subrange spikes for the generating function (the paper's
//!   six-subrange experimental scheme, the four-equal exposition scheme,
//!   and arbitrary equal-`k` schemes for ablation);
//! * [`QuantizedRepresentative`] — the one-byte-per-number compressed form
//!   of §3.2 (Tables 7–9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod cooccur;
pub mod percentiles;
pub mod quantized;
pub mod representative;
pub mod subranges;

pub use accumulator::RepresentativeAccumulator;
pub use cooccur::CooccurrenceStats;
pub use percentiles::PercentileRepresentative;
pub use quantized::QuantizedRepresentative;
pub use representative::{Representative, SizeReport, TermStats, PAGE_BYTES};
pub use subranges::{MaxWeightMode, SchemeQuantiles, Subrange, SubrangeScheme};
