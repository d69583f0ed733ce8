//! Executing a plan: dispatch from the calling thread, merge by global
//! similarity, account, trace. [`Broker::execute`] (plan +
//! dispatch behind the results cache) and [`Broker::execute_plan`] both
//! end in the one private `dispatch`, which records its spans into the
//! [`TraceHandle`] it is given — a disabled one records nothing. A
//! request at either door, the broker's or the front door's, ends in
//! `finish_request`, which closes its trace and writes its slow-query
//! line.

use crate::broker::{metrics, Broker, MergedHit};
use crate::cache::{Answer, CacheKey, CacheTier};
use crate::merge::merge_results;
use crate::plan::QueryPlan;
use crate::registry::{EngineHandle, StalePlanError};
use crate::remote::{Pending, RemoteHit, SearchReply, TransportError, TransportErrorKind};
use crate::request::{
    DispatchOutcome, EngineDispatchStats, SearchRequest, SearchResponse, SharedResponse, StaleMode,
};
use crate::selection::SelectionPolicy;
use seu_obs::{ActiveTrace, FinishedTrace, SpanGuard, SpanId, SpanRecord, TraceHandle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// What one engine's dispatch produced: its merged hits and its
/// wall-clock, or the typed transport failure that produced neither.
type DispatchResult = Result<(Vec<MergedHit>, f64), TransportError>;

/// How one engine's dispatch ended.
enum Status {
    /// It ran: its result, an answer or a typed transport failure.
    Done(DispatchResult),
    /// It panicked.
    Panicked,
    /// It was not started, or not answered, by the deadline.
    TimedOut,
}

/// Opens one engine's `dispatch:<engine>` span under the dispatch span.
/// An unsampled trace formats nothing: this runs once per selected
/// engine of every request. No engine waits in a queue, so
/// `queue_wait_s` reads zero.
fn engine_span(trace: &TraceHandle, parent: SpanId, name: &str, kind: &str) -> SpanGuard {
    if !trace.is_sampled() {
        return SpanGuard::disabled();
    }
    let mut span = trace.child_span(&format!("dispatch:{name}"), parent);
    span.attr("engine", name);
    span.attr("kind", kind);
    span.attr("queue_wait_s", "0.000000");
    span
}

/// Whether `deadline` has passed.
fn late(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// A remote engine asked from the calling thread, its reply not yet
/// collected; its span runs from the send to the collection.
struct Asked {
    span: SpanGuard,
    reply: Box<dyn Pending<SearchReply>>,
}

/// One engine's hits as the merge takes them.
fn named_hits(engine: &str, hits: Vec<RemoteHit>) -> Vec<MergedHit> {
    let hit = |h: RemoteHit| MergedHit {
        engine: engine.to_string(),
        doc: h.doc,
        sim: h.sim,
    };
    hits.into_iter().map(hit).collect()
}

/// Ends a request at either door, the broker's or the front door's: the
/// one place a request's trace is closed and its slow-query line
/// written.
///
/// A slow trace the head sampler skipped recorded no spans, so one
/// coarse `dispatch:<engine>` span per stats row is back-filled (its
/// duration only; its start is unknown). A kept trace's root span gets
/// `query`, `threshold` and `hits`, then what `door` adds; a trace that
/// is dropped formats none of them. A slow request writes one line to
/// the tracer's slow-query sink (stderr or the `--trace-out` file):
/// total latency plus the per-engine breakdown. Returns the finished
/// trace when the request asked for it (`explain`).
pub(crate) fn finish_request(
    active: ActiveTrace,
    req: &SearchRequest,
    answer: &Answer,
    door: impl FnOnce(&mut ActiveTrace),
) -> Option<Arc<FinishedTrace>> {
    let elapsed = active.elapsed();
    let slow = seu_obs::tracer().is_slow(elapsed);
    if slow && !active.is_sampled() {
        let root = active.root_span();
        active
            .handle()
            .adopt_spans(answer.per_engine_stats.iter().map(|s| SpanRecord {
                id: SpanId(0),
                parent: root,
                name: format!("dispatch:{}", s.engine),
                start_unix_ns: 0,
                duration_ns: (s.seconds * 1e9) as u64,
                attrs: vec![
                    ("engine".to_string(), s.engine.clone()),
                    ("hits".to_string(), s.hits.to_string()),
                    ("outcome".to_string(), format!("{:?}", s.outcome)),
                    ("synthesized".to_string(), "true".to_string()),
                ],
            }));
    }
    let trace_id = active.trace_id();
    let finished = active.finish_with(|root| {
        root.root_attr("query", &req.query);
        root.root_attr("threshold", req.threshold);
        root.root_attr("hits", answer.hits.len());
        door(root);
    });
    if slow {
        use std::fmt::Write as _;
        let mut line = String::from("{\"event\": \"slow_query\", \"trace_id\": \"");
        line.push_str(&trace_id.to_hex());
        line.push_str("\", \"query\": ");
        seu_obs::json::write_escaped(&mut line, &req.query);
        let _ = write!(
            line,
            ", \"threshold\": {}, \"duration_ms\": {:.3}, \"hits\": {}, \"engines\": [",
            req.threshold,
            elapsed.as_secs_f64() * 1e3,
            answer.hits.len()
        );
        for (i, s) in answer.per_engine_stats.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            line.push_str("{\"engine\": ");
            seu_obs::json::write_escaped(&mut line, &s.engine);
            let outcome = match s.outcome {
                DispatchOutcome::Completed => "completed",
                DispatchOutcome::Failed => "failed",
                DispatchOutcome::TimedOut => "timed_out",
            };
            let _ = write!(
                line,
                ", \"seconds\": {:.6}, \"hits\": {}, \"outcome\": \"{outcome}\"}}",
                s.seconds, s.hits
            );
        }
        line.push_str("]}");
        seu_obs::tracer().slow_log_line(&line);
    }
    finished.filter(|_| req.explain)
}

/// The broker's own root attribute: whether every engine answered.
fn complete(answer: &Answer) -> impl FnOnce(&mut ActiveTrace) + '_ {
    move |root| root.root_attr("complete", answer.is_complete())
}

impl Broker {
    /// Executes a request end to end: plan, dispatch the selected engines
    /// from the calling thread, merge by global similarity.
    ///
    /// A panicking engine contributes no hits and is reported as
    /// [`DispatchOutcome::Failed`] (counted by
    /// `broker_engine_failures_total`) instead of poisoning the query;
    /// engines that miss the request's timeout budget are reported as
    /// [`DispatchOutcome::TimedOut`]. If a representative refresh lands
    /// between planning and dispatch, the request is replanned once
    /// (counted by `broker_stale_plans_total`).
    ///
    /// Unless the request bypasses the cache, a complete merged response
    /// cached at the current registry epoch is served directly
    /// (`served_from: Some(Results)`, bit-identical to the cold
    /// execution that populated it); otherwise the request is planned
    /// and dispatched (`served_from: None`) and, when every selected
    /// engine answered, the response is written back for the next hit —
    /// the one lookup and the one insert a request makes. `explain`
    /// requests always run cold so their span trees describe real work.
    ///
    /// This is [`Broker::execute_shared`] with the answer's rows taken
    /// out: moved when nothing else holds the answer, copied when the
    /// cache does.
    pub fn execute(&self, req: &SearchRequest) -> SearchResponse {
        self.execute_shared(req).into()
    }

    /// [`Broker::execute`], answering with the finished [`Answer`] the
    /// query cache shares: a hit hands out the cached `Arc` itself, and
    /// a miss inserts the very `Arc` it answers with, so neither copies
    /// a row. The HTTP door serves this.
    pub fn execute_shared(&self, req: &SearchRequest) -> SharedResponse {
        let m = metrics();
        let timer = m.query_latency.start_timer();
        let active = seu_obs::tracer().start_trace("search", req.explain);
        // One key a request: looked up at the registry's epoch, and
        // filed at the plan's if the request goes on to insert.
        let cached = self
            .cache_for(req)
            .map(|c| (c, CacheKey::results(req, self.registry.epoch())));
        if let Some((c, key)) = &cached {
            if let Some(answer) = c.get(key) {
                m.queries.inc();
                timer.stop();
                return SharedResponse {
                    trace: finish_request(active, req, &answer, complete(&answer)),
                    answer,
                    served_from: Some(CacheTier::Results),
                };
            }
        }
        let trace = active.handle();
        let mut plan = self.plan(req, Some(&trace));
        if self.check_fresh(&plan).is_err() {
            plan = self.plan(req, Some(&trace));
        }
        let answer = Arc::new(self.dispatch(req, &plan, &trace));
        // Only complete answers are cached: an answer missing an
        // engine's hits (timeout, failure) must not be replayed after
        // the engine recovers.
        if let Some((c, key)) = cached.filter(|_| req.cache.writes() && answer.is_complete()) {
            c.insert(key.at_epoch(plan.epoch), Arc::clone(&answer));
        }
        timer.stop();
        SharedResponse {
            trace: finish_request(active, req, &answer, complete(&answer)),
            answer,
            served_from: None,
        }
    }

    /// Executes an externally supplied plan — e.g. one the caller
    /// inspected or adjusted before committing to dispatch. If the
    /// registry has changed since the plan was made, the request's
    /// [`StaleMode`] decides: replan transparently (the default) or
    /// surface a [`StalePlanError`]. Either way the staleness is counted
    /// by `broker_stale_plans_total`.
    pub fn execute_plan(
        &self,
        req: &SearchRequest,
        plan: &QueryPlan,
    ) -> Result<SearchResponse, StalePlanError> {
        let timer = metrics().query_latency.start_timer();
        let untraced = TraceHandle::disabled();
        let answer = match (self.check_fresh(plan), req.stale_mode) {
            (Ok(()), _) => self.dispatch(req, plan, &untraced),
            (Err(stale), StaleMode::Error) => return Err(stale),
            (Err(_), StaleMode::Replan) => self.dispatch(req, &self.plan(req, None), &untraced),
        };
        timer.stop();
        Ok(SharedResponse {
            answer: Arc::new(answer),
            trace: None,
            served_from: None,
        }
        .into())
    }

    /// Dispatches a plan's invocation set and merges the results — the
    /// accounting half of [`Broker::execute`].
    ///
    /// Ask once, wait once: every selected remote engine is sent its
    /// request [in two halves](crate::RemoteTransport::begin_search) from
    /// this thread, in invocation order, and a detached engine's refusal
    /// is recorded on the spot; the plan's in-process engines are then
    /// searched on this thread too, one after another, while those
    /// replies are on their way; and the replies are collected, in order.
    /// Every search and every collection runs under its own
    /// `catch_unwind`. An in-process search takes microseconds, less
    /// than handing it to a worker and waking for its result, so no
    /// engine of a plan crosses a thread however many there are. The
    /// request's timeout, counted from here, is the deadline of all
    /// three steps: a transport that can only block and answers its
    /// begin late, an in-process search that ends after it, or a reply
    /// that has not arrived by it, is that engine's `TimedOut`, and no
    /// in-process search starts once it has passed. The retries of
    /// several *failing* engines thus back off one after another on
    /// this thread — bounded by that same deadline.
    ///
    /// Records one `dispatch` span with a `dispatch:<engine>` child per
    /// invoked engine and a `merge` child. An in-process engine's span
    /// is its search; an asked engine's runs from the send to the
    /// collection. Remote engines are called with the trace context so
    /// their server-side spans come back over the wire and join the same
    /// tree.
    fn dispatch(&self, req: &SearchRequest, plan: &QueryPlan, trace: &TraceHandle) -> Answer {
        let m = metrics();
        let dispatch_timer = m.dispatch_latency.start_timer();
        let mut dispatch_span = trace.span("dispatch");
        dispatch_span.attr("engines", plan.selected.len());
        let dispatch_span_id = dispatch_span.id();
        let threshold = req.threshold;
        let deadline = req.timeout.map(|t| Instant::now() + t);
        let mut statuses: Vec<Status> = plan.selected.iter().map(|_| Status::TimedOut).collect();
        // Positions in `plan.selected`, beside what was made of them.
        let mut asked: Vec<(usize, Asked)> = Vec::new();
        for (p, &i) in plan.selected.iter().enumerate() {
            let e = &plan.engines[i];
            match &e.handle {
                EngineHandle::Local(_) => {}
                EngineHandle::Remote(transport) => {
                    let mut span = engine_span(trace, dispatch_span_id, &e.name, "remote");
                    if span.is_recording() {
                        span.attr("endpoint", transport.endpoint());
                    }
                    let ctx = trace.context(span.id());
                    let begun = catch_unwind(AssertUnwindSafe(|| {
                        transport.begin_search(&plan.query, threshold, Some(&ctx))
                    }));
                    match begun {
                        // A transport that can only block answered at its
                        // begin, on this thread: as late as a local search.
                        _ if late(deadline) => statuses[p] = Status::TimedOut,
                        Ok(reply) => asked.push((p, Asked { span, reply })),
                        Err(_) => statuses[p] = Status::Panicked,
                    }
                }
                EngineHandle::Detached(_) => {
                    let _span = engine_span(trace, dispatch_span_id, &e.name, "detached");
                    statuses[p] = Status::Done(Err(TransportError::new(
                        TransportErrorKind::Refused,
                        format!(
                            "engine {:?} is detached (restored from store); \
                             attach a live engine or transport to dispatch to it",
                            e.name
                        ),
                    )));
                }
            }
        }
        for (p, &i) in plan.selected.iter().enumerate() {
            let e = &plan.engines[i];
            let EngineHandle::Local(engine) = &e.handle else {
                continue;
            };
            if late(deadline) {
                break;
            }
            let mut span = engine_span(trace, dispatch_span_id, &e.name, "local");
            let start = Instant::now();
            let searched = catch_unwind(AssertUnwindSafe(|| {
                let collection = engine.collection();
                let hit = |h: seu_engine::SearchHit| MergedHit {
                    engine: e.name.clone(),
                    doc: collection.doc(h.doc).name.clone(),
                    sim: h.sim,
                };
                let hits = engine.search_threshold(&e.query, threshold);
                hits.into_iter().map(hit).collect::<Vec<_>>()
            }));
            statuses[p] = match searched {
                _ if late(deadline) => Status::TimedOut,
                Ok(hits) => {
                    span.attr("hits", hits.len());
                    Status::Done(Ok((hits, start.elapsed().as_secs_f64())))
                }
                Err(_) => Status::Panicked,
            };
        }
        for (p, Asked { mut span, reply }) in asked {
            let name = &plan.engines[plan.selected[p]].name;
            statuses[p] = match catch_unwind(AssertUnwindSafe(|| reply.finish(deadline))) {
                Ok(Ok(reply)) => {
                    trace.adopt_spans(reply.spans);
                    span.attr("hits", reply.hits.len());
                    Status::Done(Ok((named_hits(name, reply.hits), reply.seconds)))
                }
                Ok(Err(e)) => Status::Done(Err(e)),
                Err(_) => Status::Panicked,
            };
        }

        let mut per_engine: Vec<Vec<MergedHit>> = Vec::with_capacity(statuses.len());
        let mut per_engine_stats = Vec::with_capacity(statuses.len());
        for (&i, status) in plan.selected.iter().zip(statuses) {
            let name = plan.engines[i].name.clone();
            let (hits, seconds, outcome, error) = match status {
                Status::Done(Ok((hits, seconds))) => {
                    (hits, seconds, DispatchOutcome::Completed, None)
                }
                Status::Done(Err(err)) => {
                    let outcome = match err.kind {
                        TransportErrorKind::Timeout => {
                            m.engine_timeouts.inc();
                            DispatchOutcome::TimedOut
                        }
                        _ => {
                            m.engine_failures.inc();
                            DispatchOutcome::Failed
                        }
                    };
                    (Vec::new(), 0.0, outcome, Some(err))
                }
                Status::Panicked => {
                    m.engine_failures.inc();
                    (Vec::new(), 0.0, DispatchOutcome::Failed, None)
                }
                Status::TimedOut => {
                    m.engine_timeouts.inc();
                    (Vec::new(), 0.0, DispatchOutcome::TimedOut, None)
                }
            };
            per_engine_stats.push(EngineDispatchStats {
                engine: name,
                hits: hits.len(),
                seconds,
                outcome,
                error,
            });
            per_engine.push(hits);
        }
        let mut merged = {
            let mut span = trace.child_span("merge", dispatch_span_id);
            span.attr(
                "sources",
                per_engine.iter().filter(|h| !h.is_empty()).count(),
            );
            let merged = merge_results(per_engine);
            span.attr("hits", merged.len());
            merged
        };
        if let Some(k) = req.top_k {
            merged.truncate(k);
        }
        dispatch_span.finish();
        dispatch_timer.stop();

        m.queries.inc();
        m.considered.add(plan.considered as u64);
        m.selected.add(plan.selected.len() as u64);
        m.merge_hits.add(merged.len() as u64);
        m.merge_size.observe(merged.len() as f64);

        let estimates = if req.with_estimates {
            plan.estimates()
        } else {
            Vec::new()
        };
        Answer::new(merged, estimates, per_engine_stats)
    }

    /// Full metasearch: select engines, dispatch the query to them from
    /// the calling thread, and merge results above the threshold by
    /// global similarity.
    ///
    /// Wrapper over [`Broker::execute`]; prefer the request pipeline in
    /// new code — it also exposes estimates, per-engine stats, result
    /// caps, and timeout budgets.
    pub fn search(
        &self,
        query_text: &str,
        threshold: f64,
        policy: SelectionPolicy,
    ) -> Vec<MergedHit> {
        self.execute(
            &SearchRequest::new(query_text)
                .threshold(threshold)
                .policy(policy),
        )
        .hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineRecord, Representative, SearchEngine};
    use seu_core::SubrangeEstimator;
    use seu_engine::{CollectionBuilder, TrueUsefulness, WeightingScheme};
    use seu_text::Analyzer;
    use std::time::Duration;

    fn engine_from(texts: &[&str]) -> SearchEngine {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for (i, t) in texts.iter().enumerate() {
            b.add_document(&format!("doc{i}"), t);
        }
        SearchEngine::new(b.build())
    }

    fn record_of(name: &str, engine: &SearchEngine) -> Arc<EngineRecord> {
        let repr = Representative::build(engine.collection());
        Arc::new(EngineRecord::of_engine(name, engine, repr))
    }

    fn broker() -> Broker<SubrangeEstimator> {
        let b = Broker::new(SubrangeEstimator::paper_six_subrange());
        b.register(
            "databases",
            engine_from(&[
                "relational databases and query optimization",
                "transaction processing in databases",
                "distributed query processing systems",
            ]),
        );
        b.register(
            "cooking",
            engine_from(&[
                "mushroom soup recipes with cream",
                "baking sourdough bread at home",
            ]),
        );
        b.register(
            "mixed",
            engine_from(&[
                "databases of bread recipes",
                "soup kitchens and processing plants",
            ]),
        );
        b
    }

    #[test]
    fn registration_and_names() {
        let b = broker();
        assert_eq!(b.len(), 3);
        assert_eq!(b.engine_names(), vec!["databases", "cooking", "mixed"]);
        assert!(!b.is_empty());
    }

    #[test]
    fn estimates_favor_matching_engine() {
        let b = broker();
        let ests = b.estimate_all("databases query", 0.1);
        let by_name = |n: &str| {
            ests.iter()
                .find(|e| e.engine == n)
                .unwrap()
                .usefulness
                .no_doc
        };
        assert!(by_name("databases") > by_name("cooking"));
    }

    #[test]
    fn selection_excludes_useless_engines() {
        let b = broker();
        let sel = b.select("mushroom soup", 0.25, SelectionPolicy::EstimatedUseful);
        assert!(sel.contains(&"cooking".to_string()));
        assert!(!sel.contains(&"databases".to_string()));
    }

    #[test]
    fn search_merges_across_engines() {
        let b = broker();
        let hits = b.search("databases", 0.0, SelectionPolicy::All);
        assert!(!hits.is_empty());
        // Sorted descending.
        for w in hits.windows(2) {
            assert!(w[0].sim >= w[1].sim);
        }
        // Hits come from both engines that mention databases.
        let engines: Vec<&str> = hits.iter().map(|h| h.engine.as_str()).collect();
        assert!(engines.contains(&"databases"));
        assert!(engines.contains(&"mixed"));
        assert!(!engines.contains(&"cooking"));
    }

    #[test]
    fn selective_search_returns_subset_of_all() {
        let b = broker();
        let all = b.search("soup", 0.1, SelectionPolicy::All);
        let selected = b.search("soup", 0.1, SelectionPolicy::EstimatedUseful);
        // Everything the selective search returns is in the full search.
        for h in &selected {
            assert!(all.contains(h));
        }
    }

    #[test]
    fn oracle_matches_reality() {
        let b = broker();
        let oracle = b.oracle_select("sourdough", 0.1);
        assert_eq!(oracle, vec!["cooking".to_string()]);
    }

    #[test]
    fn top_k_selection() {
        let b = broker();
        let sel = b.select("databases processing", 0.05, SelectionPolicy::TopK(1));
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0], "databases");
    }

    #[test]
    fn representative_refresh_follows_the_collection() {
        let b = broker();
        // Re-index one engine without the query's words and refresh it:
        // selection drops it. Re-index it back and refresh: it returns.
        let selects_cooking = || {
            let sel = b.select("mushroom soup", 0.25, SelectionPolicy::EstimatedUseful);
            sel.contains(&"cooking".to_string())
        };
        assert!(b.replace_engine("cooking", engine_from(&["baking sourdough bread at home"])));
        assert!(b.refresh_representative("cooking"));
        assert!(!selects_cooking());
        let original = [
            "mushroom soup recipes with cream",
            "baking sourdough bread at home",
        ];
        assert!(b.replace_engine("cooking", engine_from(&original)));
        assert!(b.refresh_representative("cooking"));
        assert!(selects_cooking());
        // Unknown names report failure.
        assert!(!b.refresh_representative("nope"));
    }

    #[test]
    fn unknown_query_selects_nothing_useful() {
        let b = broker();
        let sel = b.select("zebra quantum", 0.1, SelectionPolicy::EstimatedUseful);
        assert!(sel.is_empty());
        let hits = b.search("zebra quantum", 0.1, SelectionPolicy::EstimatedUseful);
        assert!(hits.is_empty());
    }

    #[test]
    fn plan_matches_wrappers() {
        let b = broker();
        let req = SearchRequest::new("databases processing")
            .threshold(0.05)
            .policy(SelectionPolicy::TopK(2));
        let plan = b.plan(&req, None);
        // "cooking" holds neither term: it has no row, and `estimate_all`
        // fills it in at (0, 0).
        assert_eq!(plan.len(), 2);
        let mut all = b.estimate_all("databases processing", 0.05);
        let idle = crate::EngineEstimate {
            engine: "cooking".to_string(),
            usefulness: seu_core::Usefulness::default(),
        };
        assert_eq!(all.remove(1), idle);
        assert_eq!(plan.estimates(), all);
        assert_eq!(
            plan.selected_names(),
            b.select("databases processing", 0.05, SelectionPolicy::TopK(2))
        );
    }

    #[test]
    fn execute_reports_per_engine_stats() {
        let b = broker();
        let req = SearchRequest::new("databases")
            .threshold(0.0)
            .policy(SelectionPolicy::All)
            .with_estimates(true);
        let resp = b.execute(&req);
        // "cooking" holds no query term: no row, and not dispatched.
        assert_eq!(resp.estimates.len(), 2);
        assert_eq!(resp.per_engine_stats.len(), 2);
        assert!(resp.is_complete());
        let total: usize = resp.per_engine_stats.iter().map(|s| s.hits).sum();
        assert_eq!(total, resp.hits.len());
        assert_eq!(resp.hits, b.search("databases", 0.0, SelectionPolicy::All));
    }

    #[test]
    fn execute_honors_top_k_cap() {
        let b = broker();
        let all = b.execute(
            &SearchRequest::new("databases")
                .threshold(0.0)
                .policy(SelectionPolicy::All),
        );
        assert!(all.hits.len() > 2);
        let capped = b.execute(
            &SearchRequest::new("databases")
                .threshold(0.0)
                .policy(SelectionPolicy::All)
                .top_k(2),
        );
        assert_eq!(capped.hits.len(), 2);
        assert_eq!(capped.hits[..], all.hits[..2]);
    }

    /// The query cache holds one entry per distinct complete answer, and
    /// only `execute` talks to it.
    #[test]
    fn only_a_complete_execute_reads_or_fills_the_cache() {
        let b = broker();
        let books = || {
            let s = b.cache_stats().expect("the cache is on by default");
            (s.entries, s.hits, s.misses)
        };
        let req = SearchRequest::new("databases").policy(SelectionPolicy::All);
        let plan = b.plan(&req, None);
        let _ = b.estimate_all("databases", 0.1);
        let _ = b.select("databases", 0.1, SelectionPolicy::EstimatedUseful);
        let _ = b.reestimate(&plan, 0.3);
        assert_eq!(books(), (0, 0, 0), "planning is not the cache's business");

        // Each distinct complete answer: one miss, one entry; its repeat
        // one hit.
        let distinct = [
            req.clone(),
            req.clone().threshold(0.2),
            req.clone().top_k(1),
        ];
        for (i, r) in distinct.iter().enumerate() {
            let n = i as u64;
            assert_eq!(b.execute(r).served_from, None);
            assert_eq!(books(), (n + 1, n, n + 1));
            assert_eq!(b.execute(r).served_from, Some(CacheTier::Results));
            assert_eq!(books(), (n + 1, n + 1, n + 1));
        }

        // A detached engine refuses dispatch: the response is incomplete
        // and must not be kept. (Installing it moved the epoch, which
        // purged the three entries above.)
        let ghost = record_of("ghost", &engine_from(&["ghost databases"]));
        b.install_snapshot(ghost, None, Some("nowhere:0".into()))
            .unwrap();
        for misses in [4, 5] {
            let resp = b.execute(&req);
            assert!(!resp.is_complete());
            assert_eq!((resp.served_from, books()), (None, (0, 3, misses)));
        }
    }

    #[test]
    fn zero_timeout_budget_reports_timeouts() {
        let b = broker();
        let resp = b.execute(
            &SearchRequest::new("databases")
                .threshold(0.0)
                .policy(SelectionPolicy::All)
                .timeout(Duration::ZERO),
        );
        assert!(resp.hits.is_empty());
        assert!(!resp.is_complete());
        assert!(resp
            .per_engine_stats
            .iter()
            .all(|s| s.outcome == DispatchOutcome::TimedOut));
    }

    /// A transport that can only block: `search` answers one hit.
    #[derive(Debug)]
    struct Blocking(Arc<EngineRecord>);

    impl crate::RemoteTransport for Blocking {
        fn endpoint(&self) -> String {
            "blocking:0".to_string()
        }

        fn search(
            &self,
            _: &str,
            _: f64,
            _: Option<&seu_obs::TraceContext>,
        ) -> Result<(Vec<RemoteHit>, Vec<SpanRecord>), TransportError> {
            let doc = "b0".to_string();
            Ok((vec![RemoteHit { doc, sim: 0.9 }], Vec::new()))
        }

        fn true_usefulness(&self, _: &str, _: f64) -> Result<TrueUsefulness, TransportError> {
            unreachable!("dispatch never asks the oracle")
        }

        fn fetch_snapshot(&self) -> Result<Arc<EngineRecord>, TransportError> {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn a_blocking_transport_answers_on_the_caller_beside_a_detached_engine() {
        use {DispatchOutcome::*, TransportErrorKind::Refused};
        let b = broker();
        let snapshot = |name| record_of(name, &engine_from(&["databases"]));
        b.register_remote(Arc::new(Blocking(snapshot("blocking"))))
            .unwrap();
        b.install_snapshot(snapshot("ghost"), None, Some("nowhere:0".into()))
            .unwrap();
        let req = SearchRequest::new("databases").policy(SelectionPolicy::All);
        let outcome = |resp: &SearchResponse, name| {
            let s = resp.per_engine_stats.iter().find(|s| s.engine == name);
            s.map(|s| (s.outcome, s.error.as_ref().map(|e| e.kind)))
        };

        let resp = b.execute(&req);
        assert_eq!(outcome(&resp, "blocking"), Some((Completed, None)));
        assert!(resp.hits.iter().any(|h| h.engine == "blocking"));
        assert_eq!(outcome(&resp, "ghost"), Some((Failed, Some(Refused))));
        // Answered at its begin, after the deadline: too late.
        let resp = b.execute(&req.timeout(Duration::ZERO));
        assert_eq!(outcome(&resp, "blocking"), Some((TimedOut, None)));
    }

    #[test]
    fn reestimate_sweeps_thresholds_without_reanalysis() {
        let b = broker();
        let plan = b.plan(
            &SearchRequest::new("soup").policy(SelectionPolicy::All),
            None,
        );
        for t in [0.0, 0.1, 0.3, 0.9] {
            assert_eq!(b.reestimate(&plan, t), b.estimate_all("soup", t), "t={t}");
        }
    }

    #[test]
    fn mixed_analyzer_configs_are_each_analyzed() {
        let b = Broker::new(SubrangeEstimator::paper_six_subrange());
        b.register("plain", engine_from(&["btree indexes win for range scans"]));
        let mut stemmed = CollectionBuilder::new(
            Analyzer::new(seu_text::AnalyzerConfig {
                remove_stopwords: true,
                stem: true,
            }),
            WeightingScheme::CosineTf,
        );
        stemmed.add_document("d0", "btree indexes win for range scans");
        b.register("stemmed", SearchEngine::new(stemmed.build()));

        let analysis = b.analyze("indexes scanning");
        assert_eq!(analysis.configs(), 2);
        // The stemmed engine resolves both stems; the plain engine only
        // the literal surface form.
        let plan = b.plan(
            &SearchRequest::new("indexes scanning").policy(SelectionPolicy::All),
            None,
        );
        let by =
            |n: &str| &plan.engines()[plan.engines().iter().position(|e| e.name == n).unwrap()];
        assert_eq!(by("plain").query().len(), 1);
        assert_eq!(by("stemmed").query().len(), 2);
    }

    /// Tied hits go by engine name, whatever order the engines were
    /// registered in.
    #[test]
    fn tied_hits_list_engines_by_name() {
        let b = Broker::new(SubrangeEstimator::paper_six_subrange());
        b.register("zeta", engine_from(&["shared words"]));
        b.register("alpha", engine_from(&["shared words"]));
        let hits = b.search("shared", 0.0, SelectionPolicy::All);
        let engines: Vec<&str> = hits.iter().map(|h| h.engine.as_str()).collect();
        assert_eq!(engines, ["alpha", "zeta"]);
        assert_eq!(hits[0].sim.to_bits(), hits[1].sim.to_bits());
    }

    #[test]
    fn explain_returns_connected_span_tree() {
        let b = broker();
        let resp = b.execute(
            &SearchRequest::new("databases")
                .policy(SelectionPolicy::All)
                .explain(true),
        );
        let trace = resp.trace.as_ref().expect("explain forces a trace");
        assert!(trace.sampled);
        assert_eq!(trace.spans[0].name, "search");
        assert_eq!(trace.spans[0].parent, seu_obs::SpanId(0));
        let root = trace.spans[0].id;
        // The request pipeline's phases are all present.
        for phase in ["plan", "analyze", "select", "dispatch", "merge"] {
            assert!(
                trace.spans.iter().any(|s| s.name == phase),
                "missing span {phase:?}"
            );
        }
        assert!(trace.spans.iter().any(|s| s.name == "shard_walk"));
        // One dispatch child per selected engine ("cooking" holds no
        // query term), carrying the queue-wait attribute.
        let dispatch = trace.spans.iter().find(|s| s.name == "dispatch").unwrap();
        assert_eq!(dispatch.parent, root);
        let engine_spans: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("dispatch:"))
            .collect();
        assert_eq!(engine_spans.len(), 2);
        for s in &engine_spans {
            assert_eq!(s.parent, dispatch.id);
            assert!(s.attrs.iter().any(|(k, _)| k == "queue_wait_s"));
        }
        // Every non-root span's parent exists: the tree is connected.
        for s in &trace.spans[1..] {
            assert!(
                trace.spans.iter().any(|p| p.id == s.parent),
                "orphan span {:?}",
                s.name
            );
        }
        // The trace is queryable from the store afterwards.
        let stored = seu_obs::tracer().store().get(trace.trace_id).unwrap();
        assert_eq!(stored.trace_id, trace.trace_id);
    }

    #[test]
    fn unexplained_query_returns_no_trace() {
        let b = broker();
        let resp = b.execute(&SearchRequest::new("databases").policy(SelectionPolicy::All));
        assert!(resp.trace.is_none());
    }

    #[test]
    fn traced_reestimate_records_span() {
        let b = broker();
        let plan = b.plan(
            &SearchRequest::new("soup").policy(SelectionPolicy::All),
            None,
        );
        let trace = seu_obs::tracer().start_trace("reestimate_test", true);
        let handle = trace.handle();
        let ests = b.try_reestimate(&plan, 0.2, Some(&handle)).unwrap();
        assert_eq!(ests.len(), 3);
        let finished = trace.finish().unwrap();
        let span = finished
            .spans
            .iter()
            .find(|s| s.name == "reestimate")
            .unwrap();
        assert!(span.attrs.iter().any(|(k, v)| k == "engines" && v == "3"));
    }
}
