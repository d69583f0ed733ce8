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
//! postings carry the local ids — and its usefulness estimated: that is
//! the engine's **row**. An engine they do not name contains no query
//! term, so its generating function is the constant 1 (paper Prop. 1)
//! and its estimate `(0, 0)` under every estimator (the contract on
//! [`UsefulnessEstimator`]), and a search of it finds nothing: it has no
//! row, and the walk does not visit its entry. Neither has a local
//! engine replaced but not yet refreshed (its record describes the
//! collection it replaced). Then the selection policy is
//! applied to the rows. The resulting [`QueryPlan`] is self-contained —
//! it holds shared handles to the engines and the representatives it
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
//! Counters: `broker_engines_considered_total` counts every registered
//! engine a plan covered, row or none; `broker_estimates_total` — like
//! the estimators' own `estimator_*_invocations_total` — counts the
//! representatives actually consulted, i.e. the rows.
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
    pub(crate) per_config: Vec<(AnalyzerConfig, Vec<(TermId, u32)>)>,
}

impl SharedAnalysis {
    /// The global term frequencies for an analyzer configuration, if an
    /// engine with that configuration was registered when the analysis
    /// ran.
    pub fn tf_for(&self, config: AnalyzerConfig) -> Option<&[(TermId, u32)]> {
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
        let mut terms: Vec<u32> = lists.map(|&(term, _)| term.0).collect();
        terms.sort_unstable();
        terms.dedup();
        terms
    }
}

/// An entry's hits as local `(term, count)` pairs, counted by `tf` —
/// the analysis under the entry's *own* analyzer configuration. A hit on
/// a term the query only has under another configuration (the stem of
/// one engine can be a whole word of another) is not the entry's.
fn local_tf<'a>(
    tf: &'a [(TermId, u32)],
    hits: &'a [Hit],
) -> impl Iterator<Item = (TermId, u32)> + 'a {
    hits.iter().filter_map(|hit| {
        let at = tf.binary_search_by_key(&hit.term, |&(t, _)| t.0).ok()?;
        Some((hit.local, tf[at].1))
    })
}

/// Each engine of `names` (registration order) with its row's
/// usefulness from `rows` (the same order), and `(0, 0)` for each engine
/// without a row: paper Prop. 1.
fn with_idle<'a>(
    names: Vec<String>,
    rows: impl Iterator<Item = (&'a PlannedEngine, Usefulness)>,
) -> Vec<EngineEstimate> {
    let mut rows = rows.peekable();
    let estimate = |engine: String| {
        let row = rows.next_if(|(e, _)| e.name == engine);
        let usefulness = row.map_or_else(Usefulness::default, |(_, u)| u);
        EngineEstimate { engine, usefulness }
    };
    names.into_iter().map(estimate).collect()
}

/// One row of a [`QueryPlan`]: an engine holding a query term, its
/// translated (non-empty) query vector, its estimate, and shared handles
/// for dispatch and re-estimation.
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

/// The broker's decision for one request: a row — query and estimate —
/// for each engine holding a query term, plus the invocation set the
/// policy chose among the rows. An engine without a row estimates
/// `(0, 0)` (paper Prop. 1) and is never invoked.
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
    /// How many registered engines the plan covered, row or none.
    pub considered: usize,
    /// The rows: the engines holding a query term, in registration
    /// order.
    pub(crate) engines: Vec<PlannedEngine>,
    /// Indices into `engines`, in invocation order.
    pub selected: Vec<usize>,
}

impl QueryPlan {
    /// The rows — the engines holding a query term — in registration
    /// order.
    pub fn engines(&self) -> &[PlannedEngine] {
        &self.engines
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether no engine holds a query term.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// The rows' estimates, in registration order.
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

impl Broker {
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
            .map(|(config, tokens)| (config, seu_engine::shared::term_counts(&vocab, &tokens)))
            .collect();
        SharedAnalysis { per_config }
    }

    /// Plans a request: one shared analysis pass, a row — query vector
    /// and usefulness estimate — per engine that contains a query term
    /// (every other engine's estimate is `(0, 0)` by construction), and
    /// the policy's invocation set among the rows. No engine is
    /// contacted.
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
        self.plan_rows(req, trace, None, true)
    }

    /// [`Broker::plan`] for a caller that wants some of the rows — a
    /// replica asked about the engines a front-door named. `wanted` is
    /// asked about every registered engine, so it can count the names it
    /// was asked for, and an engine it does not want has no row; with
    /// `estimate` off no representative is consulted at all: the rows
    /// carry the translated queries a dispatch needs, and zero
    /// estimates. A row that is worked out is bit for bit the row `plan`
    /// makes — estimates are per-engine independent.
    pub(crate) fn plan_rows(
        &self,
        req: &SearchRequest,
        trace: Option<&TraceHandle>,
        mut wanted: Option<&mut dyn FnMut(&str) -> bool>,
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
        // constant 1 (paper Prop. 1), and it has no row — its entry is
        // not even visited, unless `wanted` must hear its name.
        let (mut considered, mut consulted) = (0, 0u64);
        let ask_every = wanted.is_some();
        let walk = self.registry.walk_with(
            &analysis.terms(),
            |view| {
                let mut shard_span = trace.child_span("shard_walk", plan_span_id);
                shard_span.attr("shard", view.shard);
                shard_span.attr("engines", view.engines);
                considered += view.engines;
                // An engine whose configuration the analysis did not
                // cover (registered since) is analyzed directly, hits
                // or none; a shard without one visits only the entries
                // its postings name.
                let covered = view.configs().all(|c| analysis.tf_for(c).is_some());
                ((shard_span, covered), ask_every || !covered)
            },
            |(_, covered), e, hits| {
                if wanted.as_mut().is_some_and(|wanted| !wanted(&e.name)) {
                    return None;
                }
                if hits.is_empty() && *covered {
                    return None;
                }
                // A local entry's record describes the collection it was
                // installed from. replace_engine swaps the collection
                // without reinstalling it, and the live engine would
                // search term ids the record does not give: a
                // mid-propagation entry has no row until the sweep
                // reconciles them.
                if let EngineHandle::Local(engine) = &e.handle {
                    if e.record.fingerprint != engine.fingerprint() {
                        return None;
                    }
                }
                // Every entry plans from its record — built from the
                // collection, shipped or restored — whose query vectors
                // are bit-identical to the collection's own. Only
                // dispatch needs a live handle.
                let record = &e.record;
                let query = match analysis.tf_for(record.analyzer) {
                    Some(tf) => record.query_from_tf(local_tf(tf, hits)),
                    None => record.query_from_text(&req.query),
                };
                if query.is_empty() {
                    return None;
                }
                let usefulness = if estimate {
                    consulted += 1;
                    self.estimator.estimate(&record.repr, &query, req.threshold)
                } else {
                    Usefulness::default()
                };
                Some(PlannedEngine {
                    name: e.name.clone(),
                    usefulness,
                    query,
                    repr: record.repr.clone(),
                    handle: e.handle.clone(),
                })
            },
        );
        m.estimates.add(consulted);
        let rows = walk.items;
        let us: Vec<Usefulness> = rows.iter().map(|e| e.usefulness).collect();
        let selected = {
            let mut span = trace.child_span("select", plan_span_id);
            span.attr("considered", considered);
            span.attr("rows", rows.len());
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
            considered,
            engines: rows,
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

    /// Every registered engine's name, in registration order, read by
    /// one walk that also checks the registry is still at `plan`'s epoch
    /// (a stale plan is counted by `broker_stale_plans_total`): the
    /// names a plan's rows are filled in to.
    fn names_at(&self, plan: &QueryPlan) -> Result<Vec<String>, StalePlanError> {
        let cut = self.registry.walk(|_, e| e.name.clone());
        let registry_epoch = cut.shard_epochs.iter().sum();
        if registry_epoch == plan.epoch {
            return Ok(cut.items);
        }
        metrics().stale_plans.inc();
        Err(StalePlanError {
            plan_epoch: plan.epoch,
            registry_epoch,
        })
    }

    /// Re-estimates a plan's rows at a different threshold without
    /// re-analyzing the query — the query vectors are threshold-free, so
    /// threshold sweeps (e.g. document allocation's bisection) pay for
    /// analysis once — and reports every registered engine, in
    /// registration order, an engine without a row at `(0, 0)`. Fails
    /// with [`StalePlanError`] if the registry has changed since the
    /// plan was made: the plan's representatives and term translations
    /// may no longer describe the registered engines, so estimates from
    /// them could not be compared against fresh ones.
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
        let names = self
            .names_at(plan)
            .inspect_err(|_| span.attr("stale", "true"))?;
        span.attr("engines", names.len());
        let rows = plan.engines.iter();
        let rows = rows.map(|e| (e, self.estimator.estimate(&e.repr, &e.query, threshold)));
        let estimates = with_idle(names, rows);
        metrics().estimates.add(plan.engines.len() as u64);
        Ok(estimates)
    }

    /// Re-estimates a plan's rows at a different threshold, as
    /// [`Broker::try_reestimate`] does, transparently replanning from the
    /// plan's recorded query text if the registry has changed since the
    /// plan was made (counted by `broker_stale_plans_total`). Callers
    /// that must not silently switch registries mid-sweep use
    /// [`Broker::try_reestimate`].
    pub fn reestimate(&self, plan: &QueryPlan, threshold: f64) -> Vec<EngineEstimate> {
        match self.try_reestimate(plan, threshold, None) {
            Ok(estimates) => estimates,
            Err(_) => self.estimate_all(&plan.query, threshold),
        }
    }

    /// Estimates every engine's usefulness for a query text at a
    /// threshold, in registration order: the plan's rows, and `(0, 0)`
    /// for each engine holding no query term.
    ///
    /// Wrapper over [`Broker::plan`], off the served path; prefer the
    /// request pipeline (`plan(&req).estimates()`, the rows alone) in
    /// new code.
    pub fn estimate_all(&self, query_text: &str, threshold: f64) -> Vec<EngineEstimate> {
        let req = SearchRequest::new(query_text)
            .threshold(threshold)
            .policy(SelectionPolicy::All);
        loop {
            let plan = self.plan(&req, None);
            if let Ok(names) = self.names_at(&plan) {
                return with_idle(names, plan.engines.iter().map(|e| (e, e.usefulness)));
            }
        }
    }

    /// Selects engines for a query under a policy, among every
    /// registered engine as [`Broker::estimate_all`] reports them.
    /// Returns names in invocation order.
    ///
    /// Wrapper over [`Broker::estimate_all`], off the served path. The
    /// request pipeline (`plan(&req).selected_names()`) chooses among
    /// the rows instead, so it leaves out what this picks of the engines
    /// holding no query term — every one under `All`, and `(0, 0)` ties
    /// — none of which could return a hit.
    pub fn select(&self, query_text: &str, threshold: f64, policy: SelectionPolicy) -> Vec<String> {
        let m = metrics();
        let timer = m.select_latency.start_timer();
        let estimates = self.estimate_all(query_text, threshold);
        let usefulness: Vec<Usefulness> = estimates.iter().map(|e| e.usefulness).collect();
        let picked = policy.select(&usefulness).into_iter();
        let selected: Vec<String> = picked.map(|i| estimates[i].engine.clone()).collect();
        m.selects.inc();
        m.considered.add(estimates.len() as u64);
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
            EngineHandle::Remote(transport) => transport
                .true_usefulness(query_text, threshold)
                .map(|u| u.no_doc >= 1)
                .unwrap_or(false),
            // No live engine to ask — like a failed transport, a
            // detached entry is not useful.
            EngineHandle::Detached(_) => false,
        };
        let named = self.registry.walk(|_, e| useful(e).then(|| e.name.clone()));
        named.items.into_iter().flatten().collect()
    }
}
