//! Query planning: one analysis pass, per-engine query vectors, and the
//! selection decision — everything the broker knows before any engine is
//! contacted.
//!
//! [`Broker::plan`] analyzes the request's query text **once** per
//! distinct analyzer configuration (almost always exactly once) against
//! the broker-global vocabulary, translates the result into each engine's
//! local term space through its registration-time
//! [`TermMap`](seu_engine::TermMap), estimates every engine's usefulness,
//! and applies the selection policy. The resulting [`QueryPlan`] is
//! self-contained — it holds shared handles to the engines and their
//! representatives — so it stays valid even if the registry changes
//! afterwards, and it can be re-estimated at other thresholds without
//! re-analysis ([`Broker::reestimate`]).
//!
//! The planner visits the registry through its one ordered walk (one
//! shard's read lock at a time, registration order restored), so the
//! plan and everything order-sensitive downstream of it — selection
//! tie-breaks, merge order — is bit-identical at any shard count. The
//! plan's `epoch` is the broker-global epoch read *before* the analysis
//! pass: a lifecycle event landing mid-plan makes it detectably stale.
//!
//! [`Broker::plan`]: crate::Broker::plan
//! [`Broker::reestimate`]: crate::Broker::reestimate

use crate::broker::{metrics, Broker, EngineEstimate};
use crate::cache::{CacheKey, CacheTier, CachedValue};
use crate::registry::{EngineHandle, RegisteredEngine, StalePlanError};
use crate::request::SearchRequest;
use crate::selection::SelectionPolicy;
use seu_core::{Usefulness, UsefulnessEstimator};
use seu_engine::{Query, SearchEngine};
use seu_obs::TraceHandle;
use seu_repr::Representative;
use seu_text::{Analyzer, AnalyzerConfig};
use std::sync::Arc;

/// The shared analysis of one query text: `(global term id, count)`
/// pairs per distinct analyzer configuration among the registered
/// engines. Produced by [`Broker::analyze`](crate::Broker::analyze).
#[derive(Debug, Clone, Default)]
pub struct SharedAnalysis {
    /// One entry per distinct analyzer configuration, in registration
    /// order of first appearance.
    pub(crate) per_config: Vec<(AnalyzerConfig, Vec<(u32, u32)>)>,
}

impl SharedAnalysis {
    /// The global term frequencies for an analyzer configuration, if an
    /// engine with that configuration was registered when the analysis
    /// ran.
    pub fn tf_for(&self, config: AnalyzerConfig) -> Option<&[(u32, u32)]> {
        self.per_config
            .iter()
            .find(|(c, _)| *c == config)
            .map(|(_, tf)| tf.as_slice())
    }

    /// Number of distinct analyzer configurations analyzed.
    pub fn configs(&self) -> usize {
        self.per_config.len()
    }
}

/// One engine's slice of a [`QueryPlan`]: its translated query vector,
/// its estimate, and shared handles for dispatch and re-estimation.
#[derive(Debug, Clone)]
pub struct PlannedEngine {
    /// Engine name (registration key).
    pub name: String,
    /// Estimated usefulness at the plan's threshold.
    pub usefulness: Usefulness,
    /// The query translated into this engine's term space.
    pub(crate) query: Query,
    /// The engine's representative (for re-estimation).
    pub(crate) repr: Arc<Representative>,
    /// How to reach the engine (for dispatch): in-process or over a
    /// transport.
    pub(crate) handle: EngineHandle,
}

impl PlannedEngine {
    /// The query vector in this engine's local term space.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// A shared handle to the engine itself, when it lives in this
    /// process (`None` for remote engines, which are only reachable
    /// through dispatch).
    pub fn engine(&self) -> Option<&Arc<SearchEngine>> {
        self.handle.local()
    }

    /// Whether this engine is reached over a transport.
    pub fn is_remote(&self) -> bool {
        self.handle.is_remote()
    }
}

/// The broker's decision for one request: per-engine queries and
/// estimates, plus the invocation set the policy chose.
///
/// A plan is self-contained — it holds shared handles to the engines and
/// representatives it was made from, so it stays internally consistent
/// even if the registry changes afterwards. The `epoch` field records
/// the registry state it described: [`Broker::execute_plan`] and
/// [`Broker::try_reestimate`] compare it against the current registry
/// epoch and refuse (or replan) when a representative refresh has made
/// the plan's term translation stale.
///
/// [`Broker::execute_plan`]: crate::Broker::execute_plan
/// [`Broker::try_reestimate`]: crate::Broker::try_reestimate
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The raw query text the plan was made from (kept so a stale plan
    /// can be transparently replanned).
    pub query: String,
    /// The threshold the estimates were computed at.
    pub threshold: f64,
    /// The policy that produced `selected`.
    pub policy: SelectionPolicy,
    /// The broker's registry epoch at planning time.
    pub epoch: u64,
    /// Every registered engine, in registration order.
    pub(crate) engines: Vec<PlannedEngine>,
    /// Indices into `engines`, in invocation order.
    pub selected: Vec<usize>,
}

impl QueryPlan {
    /// Every engine's slice of the plan, in registration order.
    pub fn engines(&self) -> &[PlannedEngine] {
        &self.engines
    }

    /// Number of engines the plan covers.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether the plan covers no engines.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The per-engine estimates, in registration order.
    pub fn estimates(&self) -> Vec<EngineEstimate> {
        self.engines
            .iter()
            .map(|e| EngineEstimate {
                engine: e.name.clone(),
                usefulness: e.usefulness,
            })
            .collect()
    }

    /// Names of the selected engines, in invocation order.
    pub fn selected_names(&self) -> Vec<String> {
        self.selected
            .iter()
            .map(|&i| self.engines[i].name.clone())
            .collect()
    }
}

impl<E: UsefulnessEstimator + Sync> Broker<E> {
    /// Analyzes a query text once per distinct analyzer configuration
    /// among the registered engines (normally: exactly once) against the
    /// broker-global vocabulary. The result translates into any engine's
    /// term space without further string processing, and can be reused
    /// across thresholds.
    pub fn analyze(&self, query_text: &str) -> SharedAnalysis {
        // Distinct configs in exact registration order (first occurrence
        // wins), regardless of which shard each engine landed in.
        let mut configs: Vec<AnalyzerConfig> = Vec::new();
        for config in self.registry.walk(|_, e| e.handle.analyzer_config()).items {
            if !configs.contains(&config) {
                configs.push(config);
            }
        }
        let vocab = self.vocab.read();
        let m = metrics();
        let per_config = configs
            .into_iter()
            .map(|config| {
                m.analyses.inc();
                let tokens = Analyzer::new(config).analyze(query_text);
                (config, seu_engine::shared::global_tf(&vocab, &tokens))
            })
            .collect();
        SharedAnalysis { per_config }
    }

    /// Plans a request: one shared analysis pass, a query vector and a
    /// usefulness estimate per engine, and the policy's invocation set.
    /// No engine is contacted.
    ///
    /// Passing `Some(trace)` records spans into the active trace: one
    /// `plan` span with `analyze`, per-shard `shard_walk`, and `select`
    /// children.
    ///
    /// Unless the request bypasses the cache, the plan is served from
    /// (and inserted into) the plan tier of the query cache, and the
    /// analysis pass from the analysis tier — so a threshold sweep over
    /// the same query text re-estimates from the cached analysis
    /// instead of re-tokenizing (see [`crate::cache`]).
    pub fn plan(&self, req: &SearchRequest, trace: Option<&TraceHandle>) -> QueryPlan {
        self.plan_cached(req, trace).0
    }

    /// [`Broker::plan`], also reporting which cache tier (if any) the
    /// planning work came from: `Some(Plan)` for a plan-tier hit,
    /// `Some(Analysis)` when only the analysis was reused, `None` for a
    /// fully cold plan.
    pub(crate) fn plan_cached(
        &self,
        req: &SearchRequest,
        trace: Option<&TraceHandle>,
    ) -> (QueryPlan, Option<CacheTier>) {
        // Hydration before the epoch read: restored-but-cold entries
        // are decoded from the store now, so no plan (or cache key) is
        // ever computed against the pre-hydration placeholder state.
        // O(1) — one atomic load — once everything is hydrated.
        self.hydrate();
        let disabled = TraceHandle::disabled();
        let trace = trace.unwrap_or(&disabled);
        let m = metrics();
        let timer = m.plan_latency.start_timer();
        let mut plan_span = trace.span("plan");
        let plan_span_id = plan_span.id();
        // Epoch is read before analysis: a refresh landing mid-plan makes
        // the plan detectably stale rather than silently half-updated.
        // Cache keys carry this same epoch, so a cached value is only
        // ever served for the registry state it was computed against.
        let epoch = self.registry.epoch();
        let cache = self.cache_for(req);
        if let Some(c) = cache {
            if let Some(CachedValue::Plan(p)) = c.get(&CacheKey::plan(req, epoch)) {
                plan_span.attr("cache", "hit");
                plan_span.attr("epoch", epoch);
                plan_span.finish();
                timer.stop();
                return ((*p).clone(), Some(CacheTier::Plan));
            }
        }
        let mut analysis_hit = false;
        let analysis: Arc<SharedAnalysis> =
            match cache.and_then(|c| c.get(&CacheKey::analysis(&req.query, epoch))) {
                Some(CachedValue::Analysis(a)) => {
                    analysis_hit = true;
                    a
                }
                _ => {
                    let a = {
                        let _span = trace.child_span("analyze", plan_span_id);
                        Arc::new(self.analyze(&req.query))
                    };
                    if req.cache.writes() {
                        if let Some(c) = cache {
                            c.insert(
                                CacheKey::analysis(&req.query, epoch),
                                CachedValue::Analysis(Arc::clone(&a)),
                            );
                        }
                    }
                    a
                }
            };
        // Per-engine estimates are independent, so only the presentation
        // order matters, and the walk restores registration order.
        let walk = self.registry.walk_with(
            |shard, engines| {
                let mut shard_span = trace.child_span("shard_walk", plan_span_id);
                shard_span.attr("shard", shard);
                shard_span.attr("engines", engines);
                m.estimates.add(engines as u64);
                shard_span
            },
            |_, e| {
                let query = match &e.handle {
                    EngineHandle::Local(engine) => {
                        let collection = engine.collection();
                        // The term map is only valid against the exact
                        // collection it was built from. replace_engine
                        // swaps the collection without rebuilding the
                        // map, so until a refresh reconciles them the
                        // map's local ids may be out of range (or mean
                        // different terms) in the live collection, and
                        // the representative still describes the old
                        // one — no query vector can be consistent with
                        // both. A mid-propagation entry therefore
                        // contributes nothing (empty query, zero
                        // estimate, zero hits) until the sweep
                        // reconciles it, instead of panicking inside
                        // query weighting or estimating through
                        // mismatched term ids.
                        let aligned = e.map_fingerprint == Some(engine.fingerprint());
                        match (aligned, analysis.tf_for(collection.analyzer_config())) {
                            (true, Some(tf)) => collection.query_from_shared(tf, &e.map),
                            // An engine with a config the analysis pass
                            // did not cover (registered concurrently):
                            // analyze directly.
                            (true, None) => collection.query_from_text(&req.query),
                            (false, _) => collection.query_from_tf(Vec::new()),
                        }
                    }
                    // A restored (detached) entry plans exactly like a
                    // remote one: its hydrated metadata carries the
                    // stored vocabulary and weighting statistics, so
                    // estimates are bit-identical to the broker that
                    // wrote the snapshot. Only dispatch needs a live
                    // handle.
                    EngineHandle::Remote { meta, .. } | EngineHandle::Detached { meta, .. } => {
                        match analysis.tf_for(meta.analyzer) {
                            Some(tf) => meta.query_from_shared(tf, &e.map),
                            None => meta.query_from_text(&req.query),
                        }
                    }
                };
                let usefulness = self.estimator.estimate(&e.repr, &query, req.threshold);
                PlannedEngine {
                    name: e.name.clone(),
                    usefulness,
                    query,
                    repr: e.repr.clone(),
                    handle: e.handle.clone(),
                }
            },
        );
        let planned = walk.items;
        let us: Vec<Usefulness> = planned.iter().map(|e| e.usefulness).collect();
        let selected = {
            let mut span = trace.child_span("select", plan_span_id);
            span.attr("considered", planned.len());
            let selected = req.policy.select(&us);
            span.attr("selected", selected.len());
            selected
        };
        plan_span.attr("epoch", epoch);
        if analysis_hit {
            plan_span.attr("cache", "analysis_hit");
        }
        plan_span.finish();
        timer.stop();
        let plan = QueryPlan {
            query: req.query.clone(),
            threshold: req.threshold,
            policy: req.policy,
            epoch,
            engines: planned,
            selected,
        };
        if req.cache.writes() {
            if let Some(c) = cache {
                c.insert(
                    CacheKey::plan(req, epoch),
                    CachedValue::Plan(Arc::new(plan.clone())),
                );
            }
        }
        (plan, analysis_hit.then_some(CacheTier::Analysis))
    }

    /// Whether the registry still is what `plan` was made against; a
    /// stale plan is counted by `broker_stale_plans_total`.
    pub(crate) fn check_fresh(&self, plan: &QueryPlan) -> Result<(), StalePlanError> {
        let registry_epoch = self.registry.epoch();
        if plan.epoch == registry_epoch {
            return Ok(());
        }
        metrics().stale_plans.inc();
        Err(StalePlanError {
            plan_epoch: plan.epoch,
            registry_epoch,
        })
    }

    /// Re-estimates a plan's engines at a different threshold without
    /// re-analyzing the query — the query vectors are threshold-free, so
    /// threshold sweeps (e.g. document allocation's bisection) pay for
    /// analysis once. Fails with [`StalePlanError`] if the registry has
    /// changed since the plan was made: the plan's representatives and
    /// term translations may no longer describe the registered engines,
    /// so estimates from them could not be compared against fresh ones.
    ///
    /// Passing `Some(trace)` records one `reestimate` span carrying the
    /// threshold, engine count, and whether the plan was rejected as
    /// stale. Threshold sweeps that obtained their plan via
    /// [`Broker::plan`] share the cached plan across the sweep: every
    /// per-threshold call here reuses the one analysis and shard walk.
    pub fn try_reestimate(
        &self,
        plan: &QueryPlan,
        threshold: f64,
        trace: Option<&TraceHandle>,
    ) -> Result<Vec<EngineEstimate>, StalePlanError> {
        let disabled = TraceHandle::disabled();
        let trace = trace.unwrap_or(&disabled);
        let mut span = trace.span("reestimate");
        span.attr("threshold", threshold);
        span.attr("engines", plan.engines.len());
        if let Err(stale) = self.check_fresh(plan) {
            span.attr("stale", "true");
            return Err(stale);
        }
        metrics().estimates.add(plan.engines.len() as u64);
        Ok(plan
            .engines
            .iter()
            .map(|e| EngineEstimate {
                engine: e.name.clone(),
                usefulness: self.estimator.estimate(&e.repr, &e.query, threshold),
            })
            .collect())
    }

    /// Re-estimates a plan's engines at a different threshold,
    /// transparently replanning from the plan's recorded query text if
    /// the registry has changed since the plan was made (counted by
    /// `broker_stale_plans_total`). Callers that must not silently switch
    /// registries mid-sweep use [`Broker::try_reestimate`].
    pub fn reestimate(&self, plan: &QueryPlan, threshold: f64) -> Vec<EngineEstimate> {
        match self.try_reestimate(plan, threshold, None) {
            Ok(estimates) => estimates,
            Err(_) => self
                .plan(
                    &SearchRequest::new(plan.query.clone())
                        .threshold(threshold)
                        .policy(plan.policy),
                    None,
                )
                .estimates(),
        }
    }

    /// Estimates every engine's usefulness for a query text at a
    /// threshold, in registration order.
    ///
    /// Wrapper over [`Broker::plan`]; prefer the request pipeline
    /// (`plan(&req).estimates()`) in new code.
    pub fn estimate_all(&self, query_text: &str, threshold: f64) -> Vec<EngineEstimate> {
        self.plan(
            &SearchRequest::new(query_text)
                .threshold(threshold)
                .policy(SelectionPolicy::All),
            None,
        )
        .estimates()
    }

    /// Selects engines for a query under a policy. Returns names in
    /// invocation order.
    ///
    /// Wrapper over [`Broker::plan`]; prefer the request pipeline
    /// (`plan(&req).selected_names()`) in new code.
    pub fn select(&self, query_text: &str, threshold: f64, policy: SelectionPolicy) -> Vec<String> {
        let m = metrics();
        let timer = m.select_latency.start_timer();
        let plan = self.plan(
            &SearchRequest::new(query_text)
                .threshold(threshold)
                .policy(policy),
            None,
        );
        let selected = plan.selected_names();
        m.selects.inc();
        m.considered.add(plan.len() as u64);
        m.selected.add(selected.len() as u64);
        timer.stop();
        selected
    }

    /// Ground-truth selection (which engines truly have a document above
    /// the threshold) — the oracle the evaluation compares against. A
    /// remote engine answers over its transport; one whose transport
    /// fails is treated as not useful.
    pub fn oracle_select(&self, query_text: &str, threshold: f64) -> Vec<String> {
        let useful = |e: &RegisteredEngine| match &e.handle {
            EngineHandle::Local(engine) => {
                let query = engine.collection().query_from_text(query_text);
                engine.true_usefulness(&query, threshold).no_doc >= 1
            }
            EngineHandle::Remote { transport, .. } => transport
                .true_usefulness(query_text, threshold)
                .map(|u| u.no_doc >= 1)
                .unwrap_or(false),
            // No live engine to ask — like a failed transport, a
            // detached entry is not useful.
            EngineHandle::Detached { .. } => false,
        };
        let named = self.registry.walk(|_, e| useful(e).then(|| e.name.clone()));
        named.items.into_iter().flatten().collect()
    }
}
