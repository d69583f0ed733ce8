//! A vector-space local search engine.
//!
//! This is the substrate under both sides of the paper's experiment:
//!
//! * it **is** each local search engine — documents are term-frequency
//!   vectors, similarity is the Cosine function, retrieval is
//!   threshold-based or top-k over an inverted index;
//! * it supplies the **ground truth**: `NoDoc(T, q, D)` and
//!   `AvgSim(T, q, D)` computed exactly by scoring every matching document
//!   ([`SearchEngine::true_usefulness`]), against which the statistical
//!   estimates of `seu-core` are evaluated.
//!
//! Document and query vectors are normalized by their Euclidean norm at
//! build time, so every dot product is already a Cosine similarity in
//! `[0, 1]` (for non-negative weights) and "no threshold larger than 1 is
//! needed" (Section 4 of the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod index;
pub mod query;
pub mod search;
pub mod shared;
pub mod storage;
pub mod topk;
pub mod weighting;

pub use collection::{Collection, CollectionBuilder, DocId, Document, Fingerprint};
pub use index::InvertedIndex;
pub use query::Query;
pub use search::{SearchEngine, SearchHit, TrueUsefulness};
pub use shared::weighted_query;
pub use weighting::WeightingScheme;
