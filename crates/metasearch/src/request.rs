//! The broker's request/response types: one entry point for estimate,
//! select, and search.
//!
//! A [`SearchRequest`] carries everything the broker needs to serve a
//! query — the text, the similarity threshold, the [`SelectionPolicy`],
//! and per-request options (result cap, dispatch timeout budget, whether
//! to return the per-engine estimates). [`Broker::plan`] turns a request
//! into a [`QueryPlan`]; [`Broker::execute`] dispatches the plan and
//! returns a [`SearchResponse`].
//!
//! [`Broker::plan`]: crate::Broker::plan
//! [`Broker::execute`]: crate::Broker::execute
//! [`QueryPlan`]: crate::QueryPlan

use crate::broker::{EngineEstimate, MergedHit};
use crate::cache::{CacheMode, CacheTier};
use crate::remote::TransportError;
use crate::selection::SelectionPolicy;
use std::time::Duration;

/// What [`Broker::execute_plan`] does when the supplied plan was made
/// against an older registry epoch than the broker currently holds.
///
/// The registry epoch is the sum of the per-shard epochs, so *any*
/// lifecycle event on *any* shard — registration, refresh, push
/// invalidation — makes outstanding plans stale; shard boundaries never
/// hide a change from the staleness check.
///
/// [`Broker::execute_plan`]: crate::Broker::execute_plan
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StaleMode {
    /// Transparently replan against the current registry and execute
    /// the fresh plan (the default).
    #[default]
    Replan,
    /// Surface a typed [`StalePlanError`](crate::StalePlanError) so the
    /// caller decides — e.g. a threshold sweep that must not silently
    /// switch registries mid-bisection.
    Error,
}

/// One metasearch query, with its options.
///
/// Built fluently; only the query text is required:
///
/// ```
/// use seu_metasearch::{SearchRequest, SelectionPolicy};
/// use std::time::Duration;
///
/// let req = SearchRequest::new("mushroom soup")
///     .threshold(0.2)
///     .policy(SelectionPolicy::TopK(3))
///     .top_k(10)
///     .timeout(Duration::from_millis(50))
///     .with_estimates(true);
/// assert_eq!(req.threshold, 0.2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// The raw query text (analyzed once by the broker).
    pub query: String,
    /// Similarity threshold `T` for estimates and retrieval.
    pub threshold: f64,
    /// How estimates become an invocation set.
    pub policy: SelectionPolicy,
    /// Cap on the number of merged hits returned (`None`: unlimited).
    pub top_k: Option<usize>,
    /// Wall-clock budget for the dispatch fan-out; engines that do not
    /// answer in time contribute no hits and are reported as timed out
    /// (`None`: wait for every selected engine).
    pub timeout: Option<Duration>,
    /// Whether [`SearchResponse::estimates`] should carry the per-engine
    /// estimates the plan produced.
    pub with_estimates: bool,
    /// What to do when an externally supplied plan turns out stale
    /// (see [`StaleMode`]).
    pub stale_mode: StaleMode,
    /// Whether to force-sample a trace for this request and return the
    /// finished span tree in [`SearchResponse::trace`] (the HTTP
    /// `explain` option).
    pub explain: bool,
    /// How this request interacts with the broker's query cache
    /// (default [`CacheMode::ReadWrite`]). `explain` requests always
    /// run cold regardless, so their span trees describe real work.
    pub cache: CacheMode,
}

impl SearchRequest {
    /// A request with the paper's defaults: threshold 0, estimated-useful
    /// selection, no result cap, no timeout, no estimates in the
    /// response.
    pub fn new(query: impl Into<String>) -> Self {
        SearchRequest {
            query: query.into(),
            threshold: 0.0,
            policy: SelectionPolicy::EstimatedUseful,
            top_k: None,
            timeout: None,
            with_estimates: false,
            stale_mode: StaleMode::Replan,
            explain: false,
            cache: CacheMode::ReadWrite,
        }
    }

    /// Sets the similarity threshold.
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the selection policy.
    pub fn policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Caps the number of merged hits returned.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Sets the dispatch timeout budget.
    pub fn timeout(mut self, budget: Duration) -> Self {
        self.timeout = Some(budget);
        self
    }

    /// Whether the response should include the per-engine estimates.
    pub fn with_estimates(mut self, yes: bool) -> Self {
        self.with_estimates = yes;
        self
    }

    /// Sets the stale-plan handling mode.
    pub fn stale_mode(mut self, mode: StaleMode) -> Self {
        self.stale_mode = mode;
        self
    }

    /// Forces trace sampling and returns the span tree in the response.
    pub fn explain(mut self, yes: bool) -> Self {
        self.explain = yes;
        self
    }

    /// Sets how the request interacts with the broker's query cache
    /// ([`CacheMode::Bypass`] forces the cold path end to end).
    pub fn cache(mut self, mode: CacheMode) -> Self {
        self.cache = mode;
        self
    }
}

/// What happened to one selected engine during dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchOutcome {
    /// The engine answered.
    Completed,
    /// The engine panicked, or its transport failed; it contributed no
    /// hits (`broker_engine_failures_total` counts these).
    Failed,
    /// The engine did not answer within the request's timeout budget —
    /// either the dispatch-wide budget or, for remote engines, the
    /// transport's own per-call deadline
    /// (`broker_engine_timeouts_total` counts these).
    TimedOut,
}

/// Per-engine dispatch accounting for one executed request.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineDispatchStats {
    /// Engine name (registration key).
    pub engine: String,
    /// Hits the engine contributed before merging.
    pub hits: usize,
    /// Wall-clock the engine's search took (0 when it failed or timed
    /// out).
    pub seconds: f64,
    /// How the dispatch ended.
    pub outcome: DispatchOutcome,
    /// The typed transport failure behind a [`DispatchOutcome::Failed`]
    /// or [`DispatchOutcome::TimedOut`] outcome, when the engine is
    /// remote and its transport reported one — a reply the request's
    /// own deadline cut off included (`None` for local engines and
    /// pool-level timeouts).
    pub error: Option<TransportError>,
}

/// The result of [`Broker::execute`]: merged hits plus the accounting
/// the broker produced along the way.
///
/// [`Broker::execute`]: crate::Broker::execute
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// Merged hits, sorted by descending global similarity (capped at
    /// the request's `top_k` if set).
    pub hits: Vec<MergedHit>,
    /// Per-engine estimates from the plan step, in registration order.
    /// Empty unless the request set `with_estimates`.
    pub estimates: Vec<EngineEstimate>,
    /// Per selected engine: hit count, latency, and outcome, in
    /// invocation order.
    pub per_engine_stats: Vec<EngineDispatchStats>,
    /// The finished span tree, present when the request set
    /// [`SearchRequest::explain`] (or the head sampler retained the
    /// trace and it finished slow — see `seu_obs::trace`).
    pub trace: Option<std::sync::Arc<seu_obs::FinishedTrace>>,
    /// Whether this response was served from the query cache:
    /// `Some(`[`CacheTier::Results`]`)` when the merged response itself
    /// was served without planning or dispatching, `None` for an
    /// execution that did both (the cache holds nothing below a
    /// finished answer, so there is no third case). Stamped by
    /// [`Broker::execute`](crate::Broker::execute). Pure provenance —
    /// hits, estimates, and [`SearchResponse::is_complete`] are
    /// bit-identical between a cached response and the cold execution
    /// that populated it.
    pub served_from: Option<CacheTier>,
}

impl SearchResponse {
    /// Names of the engines the plan selected, in invocation order.
    pub fn selected(&self) -> Vec<String> {
        self.per_engine_stats
            .iter()
            .map(|s| s.engine.clone())
            .collect()
    }

    /// Whether every selected engine completed in time.
    pub fn is_complete(&self) -> bool {
        self.per_engine_stats
            .iter()
            .all(|s| s.outcome == DispatchOutcome::Completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let req = SearchRequest::new("soup");
        assert_eq!(req.query, "soup");
        assert_eq!(req.threshold, 0.0);
        assert_eq!(req.policy, SelectionPolicy::EstimatedUseful);
        assert_eq!(req.top_k, None);
        assert_eq!(req.timeout, None);
        assert!(!req.with_estimates);
        assert_eq!(req.stale_mode, StaleMode::Replan);
        assert!(!req.explain);
        assert_eq!(req.cache, CacheMode::ReadWrite);

        let req = req
            .threshold(0.3)
            .policy(SelectionPolicy::All)
            .top_k(5)
            .timeout(Duration::from_secs(1))
            .with_estimates(true)
            .stale_mode(StaleMode::Error)
            .explain(true)
            .cache(CacheMode::Bypass);
        assert!(req.explain);
        assert_eq!(req.cache, CacheMode::Bypass);
        assert_eq!(req.threshold, 0.3);
        assert_eq!(req.policy, SelectionPolicy::All);
        assert_eq!(req.top_k, Some(5));
        assert_eq!(req.timeout, Some(Duration::from_secs(1)));
        assert!(req.with_estimates);
        assert_eq!(req.stale_mode, StaleMode::Error);
    }

    #[test]
    fn response_helpers() {
        let resp = SearchResponse {
            hits: Vec::new(),
            estimates: Vec::new(),
            per_engine_stats: vec![
                EngineDispatchStats {
                    engine: "a".into(),
                    hits: 2,
                    seconds: 0.01,
                    outcome: DispatchOutcome::Completed,
                    error: None,
                },
                EngineDispatchStats {
                    engine: "b".into(),
                    hits: 0,
                    seconds: 0.0,
                    outcome: DispatchOutcome::TimedOut,
                    error: None,
                },
            ],
            trace: None,
            served_from: None,
        };
        assert_eq!(resp.selected(), vec!["a".to_string(), "b".to_string()]);
        assert!(!resp.is_complete());
    }
}
