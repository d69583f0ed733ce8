//! `TopK` across a double failover: a front door's answer stays a flat
//! broker's, bit for bit.
//!
//! A replica asked for `TopK(k)` can rank only the engines it is asked
//! about. It ranks them the way the flat broker ranks all of them: NoDoc,
//! then AvgSim, then position. So the position it sees must be the
//! engine's place in cluster registration order — on a standby too, when
//! the engines of two failed replicas fail over to it in one attempt.
//!
//! The fleet is built so that every estimate ties: each engine indexes
//! the same documents, so `TopK(k)` chooses by registration order alone,
//! the last tie-break. The engines of later-joined replicas are
//! registered first, and two of four replicas are killed, chosen from the
//! placements so that taking the failed groups replica by replica would
//! put one of the first three engines behind more engines than precede
//! it in registration order. Every answer must still equal the flat
//! broker's (`f64::to_bits`), with nothing unresolved.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::{
    EngineSource, FrontDoor, FrontDoorConfig, InstallSpec, LocalReplica, ReplicaClient, Ring,
    SubsetAnswer, SubsetResults,
};
use seu_metasearch::{
    Broker, EngineEstimate, EngineRecord, Pending, SearchRequest, SearchResponse, SelectionPolicy,
    TransportError, TransportErrorKind,
};
use seu_text::Analyzer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const DOCS: &[&str] = &[
    "relational databases and query optimization",
    "soup recipes with wild mushrooms",
    "estimating the usefulness of search engines",
];

const QUERIES: &[&str] = &[
    "databases",
    "wild mushroom soup",
    "usefulness of search engines for database queries",
];

const ENGINES: usize = 24;
const REPLICAS: usize = 4;

fn engine() -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, text) in DOCS.iter().enumerate() {
        b.add_document(&format!("d{i}"), text);
    }
    SearchEngine::new(b.build())
}

fn broker() -> Arc<Broker<SubrangeEstimator>> {
    Arc::new(Broker::new(SubrangeEstimator::paper_six_subrange()))
}

/// An in-process replica that refuses every call once killed.
struct Killable {
    inner: LocalReplica,
    dead: AtomicBool,
}

impl Killable {
    fn check(&self) -> Result<(), TransportError> {
        if self.dead.load(Ordering::SeqCst) {
            let why = "replica killed by test";
            return Err(TransportError::new(TransportErrorKind::Refused, why));
        }
        Ok(())
    }
}

impl ReplicaClient for Killable {
    fn ping(&self) -> Result<(), TransportError> {
        self.check()
    }

    fn estimate_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<Vec<EngineEstimate>, TransportError> {
        self.check()?;
        self.inner.estimate_subset(query, threshold, engines)
    }

    fn search_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
    ) -> Result<SubsetResults, TransportError> {
        self.check()?;
        self.inner.search_subset(query, threshold, engines)
    }

    fn begin_plan_subset(
        &self,
        query: &str,
        threshold: f64,
        engines: &[String],
        policy: Option<SelectionPolicy>,
    ) -> Box<dyn Pending<SubsetAnswer>> {
        match self.check() {
            Ok(()) => self
                .inner
                .begin_plan_subset(query, threshold, engines, policy),
            Err(e) => Box::new(Err::<SubsetAnswer, _>(e)),
        }
    }

    fn install(&self, spec: &InstallSpec) -> Result<(), TransportError> {
        self.check()?;
        self.inner.install(spec)
    }

    fn remove_engine(&self, name: &str) -> Result<bool, TransportError> {
        self.check()?;
        self.inner.remove_engine(name)
    }

    fn export_engine(&self, name: &str) -> Result<Arc<EngineRecord>, TransportError> {
        self.check()?;
        self.inner.export_engine(name)
    }
}

/// The placements a front door over `ids` gives `names`.
fn placements(ids: &[String], names: &[String]) -> Vec<(String, Vec<String>)> {
    let mut ring = Ring::new(FrontDoorConfig::default().vnodes);
    for id in ids {
        ring.add_replica(id);
    }
    let holders = |name: &String| ring.candidates(name).into_iter().take(2).map(String::from);
    names
        .iter()
        .map(|name| (name.clone(), holders(name).collect()))
        .collect()
}

/// Whether killing `dead` leaves every engine a live holder and sends
/// some standby engines of both: taken replica by replica in join order,
/// they put an engine `e` of the first three behind more than `e`
/// others, so a local `TopK(e + 1)` in that order would miss an engine
/// the global one chooses.
fn out_of_order(placements: &[(String, Vec<String>)], ids: &[String], dead: [usize; 2]) -> bool {
    let is_dead = |id: &String| dead.iter().any(|&r| ids[r] == *id);
    if placements
        .iter()
        .any(|(_, holders)| holders.iter().all(is_dead))
    {
        return false;
    }
    let mut inherited: HashMap<&str, Vec<usize>> = HashMap::new();
    for r in dead {
        for (e, (_, holders)) in placements.iter().enumerate() {
            if holders[0] == ids[r] {
                inherited.entry(holders[1].as_str()).or_default().push(e);
            }
        }
    }
    let behind = |group: &Vec<usize>| group.iter().enumerate().any(|(at, &e)| e < 3 && at > e);
    inherited.values().any(behind)
}

/// The fleet and the two replicas to kill. Per pair, the fleet drops the
/// engines held by both and registers the engines of later-joined
/// primaries first, so a standby meets what it inherits against
/// registration order; the first pair for which that is [`out_of_order`]
/// wins.
fn fleet(ids: &[String]) -> (Vec<String>, [usize; 2]) {
    let pool: Vec<String> = (0..ENGINES).map(|i| format!("engine-{i:02}")).collect();
    let pool = placements(ids, &pool);
    let joined = |id: &String| ids.iter().position(|i| i == id);
    let mut pairs = (0..ids.len()).flat_map(|x| (x + 1..ids.len()).map(move |y| [x, y]));
    let found = pairs.find_map(|dead| {
        let kept = |(_, holders): &&(String, Vec<String>)| {
            holders.iter().any(|h| !dead.map(|r| &ids[r]).contains(&h))
        };
        let mut kept: Vec<_> = pool.iter().filter(kept).cloned().collect();
        kept.sort_by_key(|(_, holders)| std::cmp::Reverse(joined(&holders[0])));
        out_of_order(&kept, ids, dead)
            .then(|| (kept.into_iter().map(|(name, _)| name).collect(), dead))
    });
    found.expect("some pair of replicas fails over out of order")
}

fn assert_identical(flat: &SearchResponse, door: &SearchResponse, ctx: &str) {
    let estimates = |r: &SearchResponse| -> Vec<(String, u64, u64)> {
        let bits = |e: &EngineEstimate| {
            let u = e.usefulness;
            (e.engine.clone(), u.no_doc.to_bits(), u.avg_sim.to_bits())
        };
        r.estimates.iter().map(bits).collect()
    };
    assert_eq!(estimates(flat), estimates(door), "{ctx}: estimates");
    let hits = |r: &SearchResponse| -> Vec<(String, String, u64)> {
        let bits =
            |h: &seu_metasearch::MergedHit| (h.engine.clone(), h.doc.clone(), h.sim.to_bits());
        r.hits.iter().map(bits).collect()
    };
    assert_eq!(hits(flat), hits(door), "{ctx}: hits");
    let invoked = |r: &SearchResponse| -> Vec<(String, usize, String)> {
        let row = |s: &seu_metasearch::EngineDispatchStats| {
            (s.engine.clone(), s.hits, format!("{:?}", s.outcome))
        };
        r.per_engine_stats.iter().map(row).collect()
    };
    assert_eq!(invoked(flat), invoked(door), "{ctx}: invocation");
}

#[test]
fn topk_over_a_double_failover_is_the_flat_brokers() {
    let door = FrontDoor::new(FrontDoorConfig::default());
    let ids: Vec<String> = (0..REPLICAS).map(|r| format!("replica-{r}")).collect();
    let replicas: Vec<Arc<Killable>> = ids
        .iter()
        .map(|id| {
            let replica = Arc::new(Killable {
                inner: LocalReplica::new(broker()),
                dead: AtomicBool::new(false),
            });
            door.add_replica(id, replica.clone());
            replica
        })
        .collect();
    let (names, dead) = fleet(&ids);
    let flat = broker();
    for name in &names {
        let engine = Arc::new(engine());
        flat.register_shared(name, engine.clone());
        door.register_engine(name, EngineSource::Local(engine))
            .expect("an in-process replica accepts an in-process engine");
    }
    let placements = door.placements();
    assert!(
        out_of_order(&placements, &ids, dead),
        "{dead:?}: {placements:?}"
    );
    for &r in &dead {
        replicas[r].dead.store(true, Ordering::SeqCst);
    }

    for query in QUERIES {
        for k in 1..=3 {
            for threshold in [0.0, 0.1] {
                let ctx = format!("{query:?}, TopK({k}), t={threshold}, dead {dead:?}");
                let req = SearchRequest::new(*query)
                    .threshold(threshold)
                    .policy(SelectionPolicy::TopK(k))
                    .with_estimates(true);
                let (fed, report) = door.execute_with_report(&req);
                assert!(report.unresolved.is_empty(), "{ctx}: {report:?}");
                let failed = report.failures.iter();
                let only_dead = |f: &seu_metasearch::federation::ReplicaFailure| {
                    dead.iter().any(|&r| f.replica == ids[r])
                };
                assert!(failed.clone().all(only_dead), "{ctx}: {report:?}");
                assert!(
                    failed.count() > 0,
                    "{ctx}: the dead replicas were never asked"
                );
                let control = flat.execute(&req);
                assert_eq!(
                    control.per_engine_stats.len(),
                    k,
                    "{ctx}: every engine ties"
                );
                assert_identical(&control, &fed, &ctx);
            }
        }
    }
}
