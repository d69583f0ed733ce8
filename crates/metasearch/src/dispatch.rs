//! Executing a plan: dispatch over the bounded worker pool, merge by
//! global similarity, account, trace. [`Broker::execute`] (plan +
//! dispatch behind the results cache) and [`Broker::execute_plan`] both
//! end in the one private `dispatch`, which records its spans into the
//! [`TraceHandle`] it is given — a disabled one records nothing.

use crate::broker::{metrics, Broker, MergedHit};
use crate::cache::{CacheKey, CacheTier, CachedResponse};
use crate::merge::merge_results;
use crate::plan::QueryPlan;
use crate::pool::JobStatus;
use crate::registry::{EngineHandle, StalePlanError};
use crate::remote::{Pending, RemoteHit, SearchReply, TransportError, TransportErrorKind};
use crate::request::{
    DispatchOutcome, EngineDispatchStats, SearchRequest, SearchResponse, StaleMode,
};
use crate::selection::SelectionPolicy;
use seu_core::UsefulnessEstimator;
use seu_obs::{SpanGuard, SpanId, SpanRecord, TraceHandle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// What one engine's dispatch produced: its merged hits and its
/// wall-clock, or the typed transport failure that produced neither.
type DispatchResult = Result<(Vec<MergedHit>, f64), TransportError>;

/// One in-process engine's dispatch job.
type DispatchJob = Box<dyn FnOnce() -> DispatchResult + Send>;

/// Fewest engines of an all-local plan that go to the pool: a hand-off
/// to a worker and back costs about as much as searching this many
/// newsgroup-sized collections (traced `pool.queue_wait_us_p50` ≈ 150 µs
/// against 3–8 µs a search on the 2-core box), and when it lands behind
/// other runnable threads, milliseconds.
const MIN_POOLED_LOCAL: usize = 64;

/// One pool job of a dispatch: the jobs of one or more engines run back
/// to back, `None` for an engine whose job panicked.
type DispatchBatch = Box<dyn FnOnce() -> Vec<Option<DispatchResult>> + Send>;

/// Opens one engine's `dispatch:<engine>` span under the dispatch span.
/// An unsampled trace formats nothing: this runs once per selected
/// engine of every request.
fn engine_span(trace: &TraceHandle, parent: SpanId, name: &str, kind: &str) -> SpanGuard {
    if !trace.is_sampled() {
        return SpanGuard::disabled();
    }
    let mut span = trace.child_span(&format!("dispatch:{name}"), parent);
    span.attr("engine", name);
    span.attr("kind", kind);
    span
}

/// Notes on a job's span how long the job sat queued: from submission
/// to its start, separate from the span's own run time.
fn queued_since(span: &mut SpanGuard, enqueued: Instant) {
    if span.is_recording() {
        span.attr(
            "queue_wait_s",
            format!("{:.6}", enqueued.elapsed().as_secs_f64()),
        );
    }
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

impl<E: UsefulnessEstimator + Sync> Broker<E> {
    /// Executes a request end to end: plan, dispatch the selected engines
    /// over the bounded worker pool, merge by global similarity.
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
    pub fn execute(&self, req: &SearchRequest) -> SearchResponse {
        let m = metrics();
        let timer = m.query_latency.start_timer();
        let mut active = seu_obs::tracer().start_trace("search", req.explain);
        active.root_attr("query", &req.query);
        active.root_attr("threshold", req.threshold);
        let trace = active.handle();
        let cache = self.cache_for(req);
        if let Some(c) = cache {
            let epoch = self.registry.epoch();
            if let Some(r) = c.get(&CacheKey::results(req, epoch)) {
                m.queries.inc();
                let mut resp = SearchResponse {
                    hits: r.hits.clone(),
                    estimates: r.estimates.clone(),
                    per_engine_stats: r.per_engine_stats.clone(),
                    trace: None,
                    served_from: Some(CacheTier::Results),
                };
                timer.stop();
                resp.trace = self.finish_trace(active, req, &resp);
                return resp;
            }
        }
        let mut plan = self.plan(req, Some(&trace));
        if self.check_fresh(&plan).is_err() {
            plan = self.plan(req, Some(&trace));
        }
        let mut resp = self.dispatch(req, &plan, &trace);
        // Only complete responses are cached: a response missing an
        // engine's hits (timeout, failure) must not be replayed after
        // the engine recovers.
        if let Some(c) = cache.filter(|_| req.cache.writes() && resp.is_complete()) {
            c.insert(
                CacheKey::results(req, plan.epoch),
                Arc::new(CachedResponse {
                    hits: resp.hits.clone(),
                    estimates: resp.estimates.clone(),
                    per_engine_stats: resp.per_engine_stats.clone(),
                }),
            );
        }
        timer.stop();
        resp.trace = self.finish_trace(active, req, &resp);
        resp
    }

    /// Closes a request's trace: back-fills coarse per-engine spans for
    /// slow-but-unsampled traces, emits the slow-query log line when the
    /// request ran over budget, and returns the finished trace when the
    /// request asked for it (`explain`).
    fn finish_trace(
        &self,
        mut active: seu_obs::ActiveTrace,
        req: &SearchRequest,
        resp: &SearchResponse,
    ) -> Option<Arc<seu_obs::FinishedTrace>> {
        let tracer = seu_obs::tracer();
        let elapsed = active.elapsed();
        let slow = tracer.is_slow(elapsed);
        active.root_attr("hits", resp.hits.len());
        active.root_attr("complete", resp.is_complete());
        if slow && !active.is_sampled() {
            // The head sampler skipped this request, so no fine-grained
            // spans were recorded — synthesize one coarse span per
            // engine from the dispatch stats so the retained slow trace
            // still shows where the time went. Start offsets are
            // unknown at this point; only the durations are meaningful.
            let root = active.root_span();
            let handle = active.handle();
            handle.adopt_spans(resp.per_engine_stats.iter().map(|s| SpanRecord {
                id: seu_obs::SpanId(0),
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
        let finished = active.finish();
        if slow {
            self.emit_slow_query_line(trace_id, req, resp, elapsed);
        }
        if req.explain {
            finished
        } else {
            None
        }
    }

    /// One structured line per over-budget request: total latency plus
    /// the per-engine breakdown, to the tracer's slow-query sink
    /// (stderr or the `--trace-out` file).
    fn emit_slow_query_line(
        &self,
        trace_id: seu_obs::TraceId,
        req: &SearchRequest,
        resp: &SearchResponse,
        elapsed: std::time::Duration,
    ) {
        use std::fmt::Write as _;
        let mut line = String::from("{\"event\": \"slow_query\", \"trace_id\": \"");
        let _ = write!(line, "{}", trace_id.to_hex());
        line.push_str("\", \"query\": ");
        seu_obs::json::write_escaped(&mut line, &req.query);
        let _ = write!(
            line,
            ", \"threshold\": {}, \"duration_ms\": {:.3}, \"hits\": {}, \"engines\": [",
            req.threshold,
            elapsed.as_secs_f64() * 1e3,
            resp.hits.len()
        );
        for (i, s) in resp.per_engine_stats.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            line.push_str("{\"engine\": ");
            seu_obs::json::write_escaped(&mut line, &s.engine);
            let outcome = match s.outcome {
                crate::DispatchOutcome::Completed => "completed",
                crate::DispatchOutcome::Failed => "failed",
                crate::DispatchOutcome::TimedOut => "timed_out",
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
        let resp = match (self.check_fresh(plan), req.stale_mode) {
            (Ok(()), _) => self.dispatch(req, plan, &untraced),
            (Err(stale), StaleMode::Error) => return Err(stale),
            (Err(_), StaleMode::Replan) => self.dispatch(req, &self.plan(req, None), &untraced),
        };
        timer.stop();
        Ok(resp)
    }

    /// Runs a dispatch's in-process searches, one job per engine, and
    /// returns one status per job, in their order.
    ///
    /// An in-process search takes microseconds — less than handing it to
    /// a worker and waking the caller for its result — so fewer than
    /// [`MIN_POOLED_LOCAL`] of them are run by the caller itself, and
    /// more go to the pool as at most one batch per worker. A plan over a
    /// handful of small engines then crosses no thread, a plan over a
    /// thousand crosses a few instead of a thousand, and how long either
    /// takes does not depend on how promptly the host schedules a
    /// hand-off. Every job still runs under its own `catch_unwind`. A
    /// batch that misses the deadline times out all its engines; on the
    /// caller an engine that has not finished by the deadline times
    /// out, and the ones after it are not started.
    fn run_dispatch_jobs(
        &self,
        jobs: Vec<DispatchJob>,
        deadline: Option<Instant>,
    ) -> Vec<JobStatus<DispatchResult>> {
        let n = jobs.len();
        if n < MIN_POOLED_LOCAL {
            return jobs
                .into_iter()
                .map(|job| {
                    if late(deadline) {
                        return JobStatus::TimedOut;
                    }
                    match catch_unwind(AssertUnwindSafe(job)) {
                        _ if late(deadline) => JobStatus::TimedOut,
                        Ok(result) => JobStatus::Done(result),
                        Err(_) => JobStatus::Panicked,
                    }
                })
                .collect();
        }
        let pool = self.pool();
        let per_batch = n.div_ceil(pool.threads()).max(1);
        let mut out: Vec<JobStatus<DispatchResult>> = (0..n).map(|_| JobStatus::TimedOut).collect();
        let mut jobs = jobs.into_iter();
        let batches: Vec<DispatchBatch> = out
            .chunks(per_batch)
            .map(|slots| {
                let batch: Vec<DispatchJob> = jobs.by_ref().take(slots.len()).collect();
                Box::new(move || {
                    batch
                        .into_iter()
                        .map(|job| catch_unwind(AssertUnwindSafe(job)).ok())
                        .collect()
                }) as DispatchBatch
            })
            .collect();
        let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        for (slots, status) in out
            .chunks_mut(per_batch)
            .zip(pool.run_collect(batches, timeout))
        {
            match status {
                JobStatus::Done(results) => {
                    for (slot, result) in slots.iter_mut().zip(results) {
                        *slot = result.map_or(JobStatus::Panicked, JobStatus::Done);
                    }
                }
                JobStatus::Panicked => slots.fill_with(|| JobStatus::Panicked),
                JobStatus::Rejected => slots.fill_with(|| JobStatus::Rejected),
                JobStatus::TimedOut => {}
            }
        }
        out
    }

    /// Dispatches a plan's invocation set and merges the results — the
    /// accounting half of [`Broker::execute`].
    ///
    /// Ask once, wait once: every selected remote engine is sent its
    /// request [in two halves](crate::RemoteTransport::begin_search) from
    /// this thread, in invocation order, and a detached engine's refusal
    /// is recorded on the spot; the plan's in-process engines are then
    /// searched (see [`Broker::run_dispatch_jobs`]) while those replies
    /// are on their way; and the replies are collected, in order, each
    /// under its own `catch_unwind`. The request's timeout, counted from
    /// here, is the deadline of all three steps: a transport that can
    /// only block and answers its begin late, or a reply that has not
    /// arrived by it, is that engine's `TimedOut`. The retries of
    /// several *failing* engines thus back off one after another on
    /// this thread — bounded by that same deadline.
    ///
    /// Records one `dispatch` span with a `dispatch:<engine>` child per
    /// invoked engine and a `merge` child. A job's span carries the
    /// queue-wait measured from submission to job start, separate from
    /// its own run time; an asked engine's span runs from the send to
    /// the collection and waited in no queue. Remote engines are called
    /// with the trace context so their server-side spans come back over
    /// the wire and join the same tree.
    fn dispatch(
        &self,
        req: &SearchRequest,
        plan: &QueryPlan,
        trace: &TraceHandle,
    ) -> SearchResponse {
        let m = metrics();
        let dispatch_timer = m.dispatch_latency.start_timer();
        let mut dispatch_span = trace.span("dispatch");
        dispatch_span.attr("engines", plan.selected.len());
        let dispatch_span_id = dispatch_span.id();
        let threshold = req.threshold;
        let deadline = req.timeout.map(|t| Instant::now() + t);
        let mut statuses: Vec<JobStatus<DispatchResult>> =
            plan.selected.iter().map(|_| JobStatus::TimedOut).collect();
        // Positions in `plan.selected`, beside what was made of them.
        let mut asked: Vec<(usize, Asked)> = Vec::new();
        let mut queued: Vec<usize> = Vec::with_capacity(statuses.len());
        let mut jobs: Vec<DispatchJob> = Vec::with_capacity(statuses.len());
        for (p, &i) in plan.selected.iter().enumerate() {
            let e = &plan.engines[i];
            match &e.handle {
                EngineHandle::Local(engine) => {
                    let enqueued = Instant::now();
                    let engine = engine.clone();
                    let query = e.query.clone();
                    let (name, job_trace) = (e.name.clone(), trace.clone());
                    queued.push(p);
                    jobs.push(Box::new(move || {
                        let mut span = engine_span(&job_trace, dispatch_span_id, &name, "local");
                        queued_since(&mut span, enqueued);
                        let start = Instant::now();
                        let hits: Vec<MergedHit> = engine
                            .search_threshold(&query, threshold)
                            .into_iter()
                            .map(|h| MergedHit {
                                engine: name.clone(),
                                doc: engine.collection().doc(h.doc).name.clone(),
                                sim: h.sim,
                            })
                            .collect();
                        span.attr("hits", hits.len());
                        Ok((hits, start.elapsed().as_secs_f64()))
                    }));
                }
                EngineHandle::Remote { transport, .. } => {
                    let mut span = engine_span(trace, dispatch_span_id, &e.name, "remote");
                    if span.is_recording() {
                        span.attr("endpoint", transport.endpoint());
                    }
                    span.attr("queue_wait_s", "0.000000");
                    let ctx = trace.context(span.id());
                    let begun = catch_unwind(AssertUnwindSafe(|| {
                        transport.begin_search(&plan.query, threshold, Some(&ctx))
                    }));
                    match begun {
                        // A transport that can only block answered at its
                        // begin, on this thread: as late as a local search.
                        _ if late(deadline) => statuses[p] = JobStatus::TimedOut,
                        Ok(reply) => asked.push((p, Asked { span, reply })),
                        Err(_) => statuses[p] = JobStatus::Panicked,
                    }
                }
                EngineHandle::Detached { .. } => {
                    let mut span = engine_span(trace, dispatch_span_id, &e.name, "detached");
                    span.attr("queue_wait_s", "0.000000");
                    statuses[p] = JobStatus::Done(Err(TransportError::new(
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
        for (p, status) in queued
            .into_iter()
            .zip(self.run_dispatch_jobs(jobs, deadline))
        {
            statuses[p] = status;
        }
        for (p, Asked { mut span, reply }) in asked {
            let name = &plan.engines[plan.selected[p]].name;
            statuses[p] = match catch_unwind(AssertUnwindSafe(|| reply.finish(deadline))) {
                Ok(Ok(reply)) => {
                    trace.adopt_spans(reply.spans);
                    span.attr("hits", reply.hits.len());
                    JobStatus::Done(Ok((named_hits(name, reply.hits), reply.seconds)))
                }
                Ok(Err(e)) => JobStatus::Done(Err(e)),
                Err(_) => JobStatus::Panicked,
            };
        }

        let mut per_engine: Vec<Vec<MergedHit>> = Vec::with_capacity(statuses.len());
        let mut per_engine_stats = Vec::with_capacity(statuses.len());
        for (&i, status) in plan.selected.iter().zip(statuses) {
            let name = plan.engines[i].name.clone();
            let (hits, seconds, outcome, error) = match status {
                JobStatus::Done(Ok((hits, seconds))) => {
                    (hits, seconds, DispatchOutcome::Completed, None)
                }
                JobStatus::Done(Err(err)) => {
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
                JobStatus::Panicked | JobStatus::Rejected => {
                    m.engine_failures.inc();
                    (Vec::new(), 0.0, DispatchOutcome::Failed, None)
                }
                JobStatus::TimedOut => {
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
        m.considered.add(plan.engines.len() as u64);
        m.selected.add(plan.selected.len() as u64);
        m.merge_hits.add(merged.len() as u64);
        m.merge_size.observe(merged.len() as f64);

        SearchResponse {
            hits: merged,
            estimates: if req.with_estimates {
                plan.estimates()
            } else {
                Vec::new()
            },
            per_engine_stats,
            trace: None,
            served_from: None,
        }
    }

    /// Full metasearch: select engines, dispatch the query to them over
    /// the worker pool, and merge results above the threshold by global
    /// similarity.
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
    use crate::{EngineSnapshot, SearchEngine};
    use seu_core::SubrangeEstimator;
    use seu_engine::{CollectionBuilder, TrueUsefulness, WeightingScheme};
    use seu_repr::Representative;
    use seu_text::Analyzer;
    use std::time::Duration;

    fn engine_from(texts: &[&str]) -> SearchEngine {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for (i, t) in texts.iter().enumerate() {
            b.add_document(&format!("doc{i}"), t);
        }
        SearchEngine::new(b.build())
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
    fn representative_refresh_and_update() {
        let b = broker();
        // Cripple one engine's representative, watch selection change,
        // then refresh it back.
        let empty = Representative::from_parts(0, Vec::new(), 0);
        assert!(b.update_representative("cooking", empty));
        let sel = b.select("mushroom soup", 0.25, SelectionPolicy::EstimatedUseful);
        assert!(!sel.contains(&"cooking".to_string()), "{sel:?}");
        assert!(b.refresh_representative("cooking"));
        let sel = b.select("mushroom soup", 0.25, SelectionPolicy::EstimatedUseful);
        assert!(sel.contains(&"cooking".to_string()), "{sel:?}");
        // Unknown names report failure.
        assert!(!b.refresh_representative("nope"));
        assert!(!b.update_representative("nope", Representative::from_parts(0, Vec::new(), 0)));
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
        assert_eq!(plan.len(), 3);
        assert_eq!(
            plan.estimates(),
            b.estimate_all("databases processing", 0.05)
        );
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
        assert_eq!(resp.estimates.len(), 3);
        assert_eq!(resp.per_engine_stats.len(), 3);
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
        let ghost = EngineSnapshot::of_engine("ghost", &engine_from(&["ghost databases"]));
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
    struct Blocking(EngineSnapshot);

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

        fn fetch_snapshot(&self) -> Result<EngineSnapshot, TransportError> {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn a_blocking_transport_answers_on_the_caller_beside_a_detached_engine() {
        use {DispatchOutcome::*, TransportErrorKind::Refused};
        let b = broker();
        let snapshot = |name| EngineSnapshot::of_engine(name, &engine_from(&["databases"]));
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
        assert_eq!(b.pool_stats().1, 0, "asked from the calling thread");
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

    #[test]
    fn pool_stats_reflect_builder_override() {
        let b = Broker::builder(SubrangeEstimator::paper_six_subrange())
            .worker_threads(2)
            .build();
        // Enough engines for the plan to go to the pool.
        for i in 0..MIN_POOLED_LOCAL {
            b.register(&format!("e{i}"), engine_from(&["solo document here"]));
        }
        assert_eq!(b.pool_stats(), (2, 0));
        let _ = b.search("solo", 0.0, SelectionPolicy::All);
        let (threads, peak) = b.pool_stats();
        assert_eq!(threads, 2);
        assert!((1..=2).contains(&peak), "{peak}");
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
        // One dispatch child per selected engine, carrying the
        // queue-wait attribute.
        let dispatch = trace.spans.iter().find(|s| s.name == "dispatch").unwrap();
        assert_eq!(dispatch.parent, root);
        let engine_spans: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("dispatch:"))
            .collect();
        assert_eq!(engine_spans.len(), 3);
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
