//! Correctness checks, run on the live deployment before anything is
//! timed. Every comparison counts as one attempted operation; a failed
//! one fails the run.

use crate::deploy::{Deployment, Door, Federated, Fixture, SeuBroker, Workload};
use crate::http;
use crate::inputs::THRESHOLD;
use seu_core::SubrangeEstimator;
use seu_metasearch::{Broker, CacheMode, CacheTier, EngineEstimate, SearchRequest, SearchResponse};
use seu_net::RemoteEngine;
use seu_obs::json::{self, Json};
use std::sync::Arc;

/// Requests each content check samples from the head of the stream.
const SAMPLED: usize = 32;
/// Single-term queries the selection check runs.
const SINGLE_TERM: usize = 64;

/// What the checks found.
#[derive(Debug, Default)]
pub struct Checked {
    pub attempted: usize,
    /// One line per failed comparison.
    pub failures: Vec<String>,
}

impl Checked {
    fn expect(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(describe());
        }
    }
}

/// `(engine, NoDoc bits, AvgSim bits)` per estimate: two estimate lists
/// are bit-identical iff these agree.
fn estimate_bits(estimates: &[EngineEstimate]) -> Vec<(String, u64, u64)> {
    estimates
        .iter()
        .map(|e| {
            (
                e.engine.clone(),
                e.usefulness.no_doc.to_bits(),
                e.usefulness.avg_sim.to_bits(),
            )
        })
        .collect()
}

/// The estimate bits plus `(engine, doc, sim bits)` per hit, in order:
/// two responses are bit-identical iff these agree.
type Bits = (Vec<(String, u64, u64)>, Vec<(String, String, u64)>);

fn bits(resp: &SearchResponse) -> Bits {
    (
        estimate_bits(&resp.estimates),
        resp.hits
            .iter()
            .map(|h| (h.engine.clone(), h.doc.clone(), h.sim.to_bits()))
            .collect(),
    )
}

/// The `(engine, doc)` ids of a `POST /search` reply's hits, in order.
/// Only the `hits` member is parsed: the estimates that follow it run
/// to 10 000 rows.
fn reply_hit_ids(body: &str) -> Option<Vec<(String, String)>> {
    let end = body.find("],\"estimates\":[")?;
    let doc = json::parse(&format!("{}]}}", &body[..end])).ok()?;
    doc.get("hits")?
        .as_arr()?
        .iter()
        .map(|h| {
            Some((
                h.get("engine").and_then(Json::as_str)?.to_string(),
                h.get("doc").and_then(Json::as_str)?.to_string(),
            ))
        })
        .collect()
}

/// A flat broker over the cluster's engine servers, cache off: what the
/// two-tier answer must equal bit for bit.
pub fn control_broker(cluster: &Federated) -> SeuBroker {
    let control = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .cache_bytes(0)
        .build();
    for server in &cluster.engines {
        let client = RemoteEngine::new(server.addr()).expect("resolving loopback");
        control
            .register_remote(Arc::new(client))
            .expect("registering a control engine");
    }
    control
}

/// Runs the workload's checks. `reference` is the broker the deployment
/// must agree with: the one that wrote `registry_10k`'s store, the flat
/// control broker of `remote_federated`.
pub fn run(fx: &Fixture, deployment: &Deployment, reference: Option<&SeuBroker>) -> Checked {
    let mut checked = Checked::default();
    let sample: Vec<&str> = (0..SAMPLED).map(|i| fx.request(i)).collect();

    // Every workload: the HTTP door answers what the door behind it
    // answers in process — same hits, same order.
    for q in &sample {
        let expected: Vec<(String, String)> = deployment
            .door
            .search(&fx.search_request(q).cache(CacheMode::Bypass))
            .hits
            .into_iter()
            .map(|h| (h.engine, h.doc))
            .collect();
        let reply = http::post_search(deployment.addr(), &http::search_body(q));
        let got = reply
            .as_ref()
            .ok()
            .filter(|r| r.is_complete())
            .and_then(|r| reply_hit_ids(&r.body));
        checked.expect(got.as_ref() == Some(&expected), || {
            format!("http reply for {q:?} differs from the in-process answer")
        });
    }

    match (&deployment.door, fx.workload) {
        (Door::Broker(broker), Workload::LocalCold) => {
            // Paper §3.1: for a single-term query the estimate is exact,
            // so the engines estimated useful are the truly useful ones.
            let single = fx
                .requests
                .iter()
                .filter(|q| !q.contains(' '))
                .take(SINGLE_TERM);
            for q in single {
                let estimated: Vec<String> = broker
                    .estimate_all(q, THRESHOLD)
                    .into_iter()
                    .filter(|e| e.usefulness.identifies_useful())
                    .map(|e| e.engine)
                    .collect();
                checked.expect(estimated == broker.oracle_select(q, THRESHOLD), || {
                    format!("single-term {q:?}: estimated-useful engines differ from the oracle")
                });
            }
        }
        (Door::Federated(cluster), _) => {
            let control = reference.expect("remote_federated brings its control broker");
            for q in &sample {
                let req = fx.search_request(q);
                let (fed, report) = cluster.front_door.execute_with_report(&req);
                checked.expect(
                    report.failures.is_empty() && report.unresolved.is_empty(),
                    || format!("federated {q:?}: degraded on a healthy cluster: {report:?}"),
                );
                checked.expect(bits(&fed) == bits(&control.execute(&req)), || {
                    format!("federated {q:?}: differs from the flat control broker")
                });
            }
        }
        (Door::Broker(broker), Workload::ZipfChurn) => {
            // A reply served from the cache equals a cold one computed
            // at the same registry epoch.
            for q in &sample {
                let req: SearchRequest = fx.search_request(q);
                broker.execute(&req);
                let epoch = broker.registry_epoch();
                let cached = broker.execute(&req);
                let cold = broker.execute(&req.clone().cache(CacheMode::Bypass));
                checked.expect(
                    cached.served_from == Some(CacheTier::Results)
                        && broker.registry_epoch() == epoch
                        && bits(&cached) == bits(&cold),
                    || format!("cached reply for {q:?} differs from the bypass reply"),
                );
            }
        }
        (Door::Broker(warm), Workload::Registry10k) => {
            let cold = reference.expect("registry_10k brings the broker that wrote its store");
            let mut planned = 0usize;
            let invocations = || {
                seu_obs::global()
                    .snapshot()
                    .counters
                    .get("estimator_subrange_invocations_total")
                    .copied()
                    .unwrap_or(0)
            };
            let before = invocations();
            for q in &sample {
                let req = fx.search_request(q);
                let plan = warm.plan(&req, None);
                planned += plan
                    .engines()
                    .iter()
                    .filter(|e| !e.query().is_empty())
                    .count();
                let same = estimate_bits(&plan.estimates())
                    == estimate_bits(&cold.plan(&req, None).estimates());
                checked.expect(same, || {
                    format!("restored estimates for {q:?} differ from the cold-built broker's")
                });
            }
            // Non-degeneracy: a 10k-engine plan that estimates nothing
            // (query terms foreign to the registry) measures nothing.
            let mean = planned as f64 / sample.len() as f64;
            let floor = fx.collections.len() as f64 / 100.0;
            checked.expect(mean >= floor && invocations() > before, || {
                format!(
                    "degenerate registry workload: {mean:.1} engines planned per request \
                     (need {floor:.0}), estimator invocations grew by {}",
                    invocations() - before
                )
            });
        }
        (Door::Broker(_), Workload::RemoteFederated) => {
            unreachable!("remote_federated deploys a front-door")
        }
    }
    checked
}
