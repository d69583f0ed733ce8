//! Query planning: one analysis pass, per-engine query vectors, and the
//! selection decision — everything the broker knows before any engine is
//! contacted.
//!
//! [`Broker::plan`] analyzes the request's query text **once** per
//! distinct analyzer configuration (almost always exactly once; the
//! configurations come from the shards' own sets, no entry is visited)
//! against the broker-global vocabulary, and looks the resulting global
//! term ids up in each shard's term postings. An engine the postings
//! name gets the query translated into its local term space — the
//! postings carry the local ids — and its usefulness estimated; an
//! engine they do not name contains no query term, so its generating
//! function is the constant 1 (paper Prop. 1) and its row is written as
//! the empty query with `Usefulness::default()`, without a look at its
//! vocabulary or its representative (the estimators' side of that
//! bargain is the contract on [`UsefulnessEstimator`]). Then the
//! selection policy is applied. The plan lists **every** registered
//! engine either way. The resulting [`QueryPlan`] is self-contained — it
//! holds shared handles to the engines and the representatives it
//! consulted — so it stays valid even if the registry changes
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
//! Counters: `broker_engines_considered_total` counts plan rows (every
//! engine); `broker_estimates_total` — like the estimators' own
//! `estimator_*_invocations_total` — counts the representatives actually
//! consulted, i.e. the engines that contained a query term.
//!
//! [`Broker::plan`]: crate::Broker::plan
//! [`Broker::reestimate`]: crate::Broker::reestimate

use crate::broker::{metrics, Broker, EngineEstimate};
use crate::registry::{EngineHandle, Hit, RegisteredEngine, StalePlanError};
use crate::request::SearchRequest;
use crate::selection::SelectionPolicy;
use seu_core::{Usefulness, UsefulnessEstimator};
use seu_engine::{Query, SearchEngine};
use seu_obs::TraceHandle;
use seu_repr::Representative;
use seu_text::{Analyzer, AnalyzerConfig, TermId};
use std::sync::Arc;

/// The shared analysis of one query text: `(global term id, count)`
/// pairs per distinct analyzer configuration among the registered
/// engines. Produced by [`Broker::analyze`](crate::Broker::analyze).
#[derive(Debug, Clone, Default)]
pub struct SharedAnalysis {
    /// One entry per distinct analyzer configuration, in a fixed order;
    /// each list is sorted by global term id.
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

    /// Every global term id the query has under some configuration,
    /// sorted: what a plan looks up in the registry's postings.
    fn terms(&self) -> Vec<u32> {
        let lists = self.per_config.iter().flat_map(|(_, tf)| tf);
        let mut terms: Vec<u32> = lists.map(|&(term, _)| term).collect();
        terms.sort_unstable();
        terms.dedup();
        terms
    }
}

/// An entry's hits as local `(term, count)` pairs, counted by `tf` —
/// the analysis under the entry's *own* analyzer configuration. A hit on
/// a term the query only has under another configuration (the stem of
/// one engine can be a whole word of another) is not the entry's.
fn local_tf<'a>(tf: &'a [(u32, u32)], hits: &'a [Hit]) -> impl Iterator<Item = (TermId, u32)> + 'a {
    hits.iter().filter_map(|hit| {
        let at = tf.binary_search_by_key(&hit.term, |&(term, _)| term).ok()?;
        Some((hit.local, tf[at].1))
    })
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
    /// The engine's representative (for re-estimation); `None` where
    /// no query term occurs in the engine, so that none was consulted:
    /// the empty query estimates `Usefulness::default()` at any
    /// threshold.
    pub(crate) repr: Option<Arc<Representative>>,
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
        // The shards' own configuration sets: no entry is visited.
        // Tokenizing and stemming need no lock; registrations and
        // refreshes intern under `vocab.write()`, so the read lock is
        // held for the id look-ups alone.
        let m = metrics();
        let analyzed: Vec<(AnalyzerConfig, Vec<String>)> = self
            .registry
            .configs()
            .into_iter()
            .map(|config| {
                m.analyses.inc();
                (config, Analyzer::new(config).analyze(query_text))
            })
            .collect();
        let vocab = self.vocab.read();
        let per_config = analyzed
            .into_iter()
            .map(|(config, tokens)| (config, seu_engine::shared::global_tf(&vocab, &tokens)))
            .collect();
        SharedAnalysis { per_config }
    }

    /// Plans a request: one shared analysis pass, a query vector and a
    /// usefulness estimate per engine — computed for the engines that
    /// contain a query term, `(0, 0)` by construction for the rest —
    /// and the policy's invocation set. No engine is contacted.
    ///
    /// Passing `Some(trace)` records spans into the active trace: one
    /// `plan` span with `analyze`, per-shard `shard_walk`, and `select`
    /// children.
    ///
    /// A plan is always computed: the query cache holds finished answers
    /// only (see [`crate::cache`]), and it is [`Broker::execute`] that
    /// consults it. A threshold sweep plans once and calls
    /// [`Broker::reestimate`] per threshold.
    pub fn plan(&self, req: &SearchRequest, trace: Option<&TraceHandle>) -> QueryPlan {
        self.plan_rows(req, trace, |_| true, true)
    }

    /// [`Broker::plan`] for a caller that wants some of the rows — a
    /// replica asked about the engines a front-door named. The plan
    /// still lists every registered engine in registration order, but an
    /// engine whose name is not `wanted` gets the idle row (empty query,
    /// zero estimate) without its query being translated or its
    /// representative consulted; and with `estimate` off no
    /// representative is consulted at all: the rows carry the translated
    /// queries a dispatch needs, and zero estimates. A row that is
    /// worked out is bit for bit the row `plan` makes — estimates are
    /// per-engine independent. (Generic over `wanted`, so that `plan`'s
    /// own copy asks nothing per row: a 10 000-row plan pays for every
    /// instruction in this loop.)
    pub(crate) fn plan_rows(
        &self,
        req: &SearchRequest,
        trace: Option<&TraceHandle>,
        wanted: impl Fn(&str) -> bool,
        estimate: bool,
    ) -> QueryPlan {
        // Hydration before the epoch read: restored-but-cold entries
        // are decoded from the store now, so no plan is ever computed
        // against the pre-hydration placeholder state. O(1) — one
        // atomic load — once everything is hydrated.
        self.hydrate();
        let disabled = TraceHandle::disabled();
        let trace = trace.unwrap_or(&disabled);
        let m = metrics();
        let timer = m.plan_latency.start_timer();
        let mut plan_span = trace.span("plan");
        let plan_span_id = plan_span.id();
        // Epoch is read before analysis: a refresh landing mid-plan makes
        // the plan detectably stale rather than silently half-updated.
        // `execute` keys the response it caches by this same epoch, so a
        // cached answer is only ever served for the registry state it
        // was computed against.
        let epoch = self.registry.epoch();
        let analysis = {
            let _span = trace.child_span("analyze", plan_span_id);
            self.analyze(&req.query)
        };
        // Per-engine estimates are independent, so only the presentation
        // order matters, and the walk restores registration order. The
        // registry's postings say which entries hold a query term; every
        // other entry holds none, its generating function is the
        // constant 1 (paper Prop. 1) and its row the empty query with a
        // zero estimate — written without touching its vocabulary or
        // its representative.
        let mut consulted = 0u64;
        let walk = self.registry.walk_with(
            &analysis.terms(),
            |view| {
                let mut shard_span = trace.child_span("shard_walk", plan_span_id);
                shard_span.attr("shard", view.shard);
                shard_span.attr("engines", view.engines);
                // An engine whose configuration the analysis did not
                // cover (registered since) is analyzed directly, hits
                // or none; a shard without one skips by hits alone.
                let covered = view.configs().all(|c| analysis.tf_for(c).is_some());
                (shard_span, covered)
            },
            |(_, covered), e, hits| {
                let idle = || PlannedEngine {
                    name: e.name.clone(),
                    usefulness: Usefulness::default(),
                    query: Query::default(),
                    repr: None,
                    handle: e.handle.clone(),
                };
                if (hits.is_empty() && *covered) || !wanted(&e.name) {
                    return idle();
                }
                let query = match &e.handle {
                    EngineHandle::Local(engine) => {
                        let collection = engine.collection();
                        // The term list (and so the local ids the hits
                        // carry) is only valid against the exact
                        // collection it was built from. replace_engine
                        // swaps the collection without rebuilding it,
                        // so until a refresh reconciles them the local
                        // ids may be out of range (or mean different
                        // terms) in the live collection, and the
                        // representative still describes the old one —
                        // no query vector can be consistent with both.
                        // A mid-propagation entry therefore contributes
                        // nothing (empty query, zero estimate, zero
                        // hits) until the sweep reconciles it, instead
                        // of panicking inside query weighting or
                        // estimating through mismatched term ids.
                        if e.terms_fingerprint != Some(engine.fingerprint()) {
                            return idle();
                        }
                        match analysis.tf_for(collection.analyzer_config()) {
                            Some(tf) => collection.query_from_tf(local_tf(tf, hits)),
                            None => collection.query_from_text(&req.query),
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
                            Some(tf) => meta.query_from_tf(local_tf(tf, hits)),
                            None => meta.query_from_text(&req.query),
                        }
                    }
                };
                if !estimate {
                    return PlannedEngine { query, ..idle() };
                }
                consulted += 1;
                PlannedEngine {
                    name: e.name.clone(),
                    usefulness: self.estimator.estimate(&e.repr, &query, req.threshold),
                    query,
                    repr: Some(e.repr.clone()),
                    handle: e.handle.clone(),
                }
            },
        );
        m.estimates.add(consulted);
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
        plan_span.finish();
        timer.stop();
        QueryPlan {
            query: req.query.clone(),
            threshold: req.threshold,
            policy: req.policy,
            epoch,
            engines: planned,
            selected,
        }
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
    /// stale. A threshold sweep holds the one plan it obtained from
    /// [`Broker::plan`] and calls this per threshold: every call reuses
    /// that plan's analysis and shard walk.
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
        let mut consulted = 0;
        let estimates = plan.engines.iter().map(|e| EngineEstimate {
            engine: e.name.clone(),
            usefulness: e.repr.as_ref().map_or_else(Usefulness::default, |repr| {
                consulted += 1;
                self.estimator.estimate(repr, &e.query, threshold)
            }),
        });
        let estimates = estimates.collect();
        metrics().estimates.add(consulted);
        Ok(estimates)
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
