//! Experiment drivers — one per paper table (or table group) plus the
//! ablations called out in DESIGN.md.

use crate::metrics::MethodResult;
use crate::runner::{evaluate, query_from_tokens, EvalConfig};
use crate::tables::{render_dn_ds_table, render_match_table, render_side_by_side};
use seu_core::guarantee::{ideal_databases, selected_databases};
use seu_core::{
    DisjointEstimator, Expansion, HighCorrelationEstimator, PrevMethodEstimator, SubrangeEstimator,
    UsefulnessEstimator,
};
use seu_corpus::{scalability_collections, PaperDatasets};
use seu_engine::Collection;
use seu_repr::{MaxWeightMode, QuantizedRepresentative, Representative, SubrangeScheme};

/// Output of one experiment: the rendered text plus the structured
/// per-database results (empty for analytic experiments).
#[derive(Debug)]
pub struct ExperimentOutput {
    /// Human-readable tables, ready to print.
    pub text: String,
    /// `(database name, per-method results)`.
    pub results: Vec<(String, Vec<MethodResult>)>,
}

fn databases(ds: &PaperDatasets) -> [(&'static str, &Collection); 3] {
    [("D1", &ds.d1), ("D2", &ds.d2), ("D3", &ds.d3)]
}

/// Tables 1–6: high-correlation vs previous method vs subrange method on
/// D1–D3, full-precision quadruplet representatives.
pub fn run_main_tables(ds: &PaperDatasets, config: &EvalConfig) -> ExperimentOutput {
    let high = HighCorrelationEstimator::new();
    let prev = PrevMethodEstimator::new();
    let sub = SubrangeEstimator::paper_six_subrange();
    let methods: [&(dyn UsefulnessEstimator + Sync); 3] = [&high, &prev, &sub];

    let mut text = String::new();
    let mut results = Vec::new();
    for (i, (name, coll)) in databases(ds).into_iter().enumerate() {
        let repr = Representative::build(coll);
        let res = evaluate(coll, &repr, &ds.queries, &methods, config);
        text.push_str(&render_match_table(
            &format!(
                "Table {}: Comparison of Match/Mismatch Using {name}",
                2 * i + 1
            ),
            &res,
        ));
        text.push('\n');
        text.push_str(&render_dn_ds_table(
            &format!(
                "Table {}: Comparison of d-N and d-S Using {name}",
                2 * i + 2
            ),
            &res,
        ));
        text.push('\n');
        results.push((name.to_string(), res));
    }
    ExperimentOutput { text, results }
}

/// Tables 7–9: the subrange method with every representative number
/// quantized to one byte.
pub fn run_quantized_tables(ds: &PaperDatasets, config: &EvalConfig) -> ExperimentOutput {
    let sub = SubrangeEstimator::paper_six_subrange();
    let methods: [&(dyn UsefulnessEstimator + Sync); 1] = [&sub];
    let mut text = String::new();
    let mut results = Vec::new();
    for (i, (name, coll)) in databases(ds).into_iter().enumerate() {
        let repr =
            QuantizedRepresentative::from_representative(&Representative::build(coll)).decode();
        let res = evaluate(coll, &repr, &ds.queries, &methods, config);
        text.push_str(&render_side_by_side(
            &format!("Table {}: Using One Byte for Each Number for {name}", 7 + i),
            &res[0],
        ));
        text.push('\n');
        results.push((name.to_string(), res));
    }
    ExperimentOutput { text, results }
}

/// Tables 10–12: triplet representatives — the maximum normalized weight
/// is not stored but estimated as the 99.9 percentile of the normal fit.
pub fn run_triplet_tables(ds: &PaperDatasets, config: &EvalConfig) -> ExperimentOutput {
    let sub = SubrangeEstimator::paper_triplet();
    let methods: [&(dyn UsefulnessEstimator + Sync); 1] = [&sub];
    let mut text = String::new();
    let mut results = Vec::new();
    for (i, (name, coll)) in databases(ds).into_iter().enumerate() {
        let repr = Representative::build(coll);
        let res = evaluate(coll, &repr, &ds.queries, &methods, config);
        text.push_str(&render_side_by_side(
            &format!(
                "Table {}: Result for {name} When Maximum Weights Are Estimated",
                10 + i
            ),
            &res[0],
        ));
        text.push('\n');
        results.push((name.to_string(), res));
    }
    ExperimentOutput { text, results }
}

/// The §3.2 scalability table: representative size as a fraction of
/// collection size, for D1–D3 and three larger WSJ/FR/DOE-scale stand-ins.
pub fn run_scalability(ds: &PaperDatasets, seed: u64) -> ExperimentOutput {
    let mut text = String::new();
    text.push_str("Representative sizes (pages of 2 KB):\n");
    text.push_str(&format!(
        "{:<10} {:>9} {:>13} {:>10} {:>7} {:>10} {:>7}\n",
        "collection", "size", "#dist. terms", "rep. size", "%", "1B size", "%"
    ));
    let mut row = |name: &str, coll: &Collection| {
        let rep = Representative::build(coll).size_report();
        text.push_str(&format!(
            "{:<10} {:>9} {:>13} {:>10} {:>7.2} {:>10} {:>7.2}\n",
            name,
            rep.collection_pages,
            rep.distinct_terms,
            rep.representative_pages,
            rep.percent(),
            rep.quantized_pages,
            rep.quantized_percent()
        ));
    };
    for (name, coll) in databases(ds) {
        row(name, coll);
    }
    for (name, coll) in scalability_collections(seed) {
        row(name, &coll);
    }
    ExperimentOutput {
        text,
        results: Vec::new(),
    }
}

/// The §3.1 single-term guarantee, checked empirically: over every
/// single-term query of the workload and every threshold, the subrange
/// method's selected database set must equal the ideal set.
pub fn run_guarantee(ds: &PaperDatasets, thresholds: &[f64]) -> ExperimentOutput {
    let reprs: Vec<Representative> = databases(ds)
        .iter()
        .map(|(_, c)| Representative::build(c))
        .collect();
    let refs: Vec<&Representative> = reprs.iter().collect();
    let est = SubrangeEstimator::paper_six_subrange();

    let mut checked = 0u64;
    let mut exact = 0u64;
    let mut violations = Vec::new();
    for tokens in ds.queries.iter().filter(|q| q.len() == 1) {
        // A single-term query names one term string; find its id in each
        // database (ids differ per collection, so check per database).
        for &t in thresholds {
            let mut selected = Vec::new();
            let mut ideal = Vec::new();
            for (i, (_, coll)) in databases(ds).iter().enumerate() {
                if let Some(term) = coll.vocab().get(&tokens[0]) {
                    if !selected_databases(&est, &[refs[i]], term, t).is_empty() {
                        selected.push(i);
                    }
                    if !ideal_databases(&[refs[i]], term, t).is_empty() {
                        ideal.push(i);
                    }
                }
            }
            checked += 1;
            if selected == ideal {
                exact += 1;
            } else if violations.len() < 5 {
                violations.push(format!(
                    "term {:?} T={t}: selected {selected:?} ideal {ideal:?}",
                    tokens[0]
                ));
            }
        }
    }
    let mut text = format!(
        "Single-term guarantee: {exact}/{checked} (query, threshold) pairs identified exactly\n"
    );
    for v in &violations {
        text.push_str(&format!("  VIOLATION: {v}\n"));
    }
    ExperimentOutput {
        text,
        results: Vec::new(),
    }
}

/// Ablation: number of subranges and the effect of the singleton max
/// subrange, on D1.
pub fn run_ablation_subranges(ds: &PaperDatasets, config: &EvalConfig) -> ExperimentOutput {
    let variants: Vec<(String, SubrangeEstimator)> = vec![
        (
            "1 subrange (basic)".into(),
            SubrangeEstimator::new(
                SubrangeScheme::single(),
                MaxWeightMode::Stored,
                Expansion::Exact,
            ),
        ),
        (
            "2 equal, no max".into(),
            SubrangeEstimator::new(
                SubrangeScheme::equal(2, false),
                MaxWeightMode::Stored,
                Expansion::Exact,
            ),
        ),
        (
            "4 equal, no max".into(),
            SubrangeEstimator::new(
                SubrangeScheme::four_equal(),
                MaxWeightMode::Stored,
                Expansion::Exact,
            ),
        ),
        (
            "4 equal + max".into(),
            SubrangeEstimator::new(
                SubrangeScheme::equal(4, true),
                MaxWeightMode::Stored,
                Expansion::Exact,
            ),
        ),
        ("paper six".into(), SubrangeEstimator::paper_six_subrange()),
        (
            "8 equal + max".into(),
            SubrangeEstimator::new(
                SubrangeScheme::equal(8, true),
                MaxWeightMode::Stored,
                Expansion::Exact,
            ),
        ),
    ];
    let repr = Representative::build(&ds.d1);
    let mut text = String::from("Ablation: subrange schemes on D1\n");
    let mut results = Vec::new();
    for (label, est) in &variants {
        let res = evaluate(
            &ds.d1,
            &repr,
            &ds.queries,
            &[est as &(dyn UsefulnessEstimator + Sync)],
            config,
        );
        text.push_str(&render_side_by_side(label, &res[0]));
        text.push('\n');
        results.push((label.clone(), res));
    }
    ExperimentOutput { text, results }
}

/// Ablation: the gGlOSS disjoint baseline the paper omits from its tables.
pub fn run_ablation_disjoint(ds: &PaperDatasets, config: &EvalConfig) -> ExperimentOutput {
    let high = HighCorrelationEstimator::new();
    let dis = DisjointEstimator::new();
    let methods: [&(dyn UsefulnessEstimator + Sync); 2] = [&high, &dis];
    let mut text = String::from("Ablation: disjoint vs high-correlation\n");
    let mut results = Vec::new();
    for (name, coll) in databases(ds) {
        let repr = Representative::build(coll);
        let res = evaluate(coll, &repr, &ds.queries, &methods, config);
        text.push_str(&render_match_table(
            &format!("{name}: match/mismatch"),
            &res,
        ));
        text.push('\n');
        results.push((name.to_string(), res));
    }
    ExperimentOutput { text, results }
}

/// Ablation: grid-convolution resolution vs the exact expansion, on D1.
pub fn run_ablation_grid(ds: &PaperDatasets, config: &EvalConfig) -> ExperimentOutput {
    let variants: Vec<(String, SubrangeEstimator)> = [64usize, 256, 1024, 4096]
        .into_iter()
        .map(|cells| {
            (
                format!("grid {cells} cells"),
                SubrangeEstimator::new(
                    SubrangeScheme::paper_six(),
                    MaxWeightMode::Stored,
                    Expansion::Grid { cells },
                ),
            )
        })
        .chain(std::iter::once((
            "exact".to_string(),
            SubrangeEstimator::paper_six_subrange(),
        )))
        .collect();
    let repr = Representative::build(&ds.d1);
    let mut text = String::from("Ablation: expansion strategy on D1\n");
    let mut results = Vec::new();
    for (label, est) in &variants {
        let res = evaluate(
            &ds.d1,
            &repr,
            &ds.queries,
            &[est as &(dyn UsefulnessEstimator + Sync)],
            config,
        );
        text.push_str(&render_side_by_side(label, &res[0]));
        text.push('\n');
        results.push((label.clone(), res));
    }
    ExperimentOutput { text, results }
}

/// E11 — the paper's stated future work: ranking *many* databases. All 53
/// single-topic newsgroup databases are ranked per query by the subrange
/// method, the gGlOSS high-correlation baseline, CORI and a static
/// by-size baseline; quality is `R_n` recall of the truly useful
/// databases.
pub fn run_many_database_ranking(
    seed: u64,
    queries: &[Vec<String>],
    threshold: f64,
) -> ExperimentOutput {
    let fixture = crate::ranking::RankingFixture::new(seu_corpus::many_databases(seed, 220));
    let results = crate::ranking::rank_databases(&fixture, queries, threshold, &[1, 3, 5, 10]);
    let text = crate::ranking::render_ranking(
        &format!(
            "E11: ranking {} databases, {} queries, threshold {threshold}",
            fixture.len(),
            queries.len()
        ),
        &results,
    );
    ExperimentOutput {
        text,
        results: Vec::new(),
    }
}

/// E12 — beyond the paper's ≤ 6-term workload: long queries (up to 12
/// terms), where the exact expansion grows exponentially and the dense
/// grid convolution is the scalable path. Reports accuracy *and* wall
/// time per expansion strategy on D1.
pub fn run_long_queries(ds: &PaperDatasets, seed: u64, config: &EvalConfig) -> ExperimentOutput {
    use seu_corpus::{QueryLogSpec, SyntheticCorpus};
    let corpus = SyntheticCorpus::standard();
    let long_queries = corpus.generate_query_log(&QueryLogSpec {
        n_queries: 1500,
        single_term_fraction: 0.05,
        max_terms: 12,
        on_topic_prob: 0.65,
        seed: seed ^ 0x10ac,
    });
    let repr = Representative::build(&ds.d1);
    let variants: Vec<(String, SubrangeEstimator)> = vec![
        ("exact".into(), SubrangeEstimator::paper_six_subrange()),
        (
            "grid 1024".into(),
            SubrangeEstimator::new(
                SubrangeScheme::paper_six(),
                MaxWeightMode::Stored,
                Expansion::Grid { cells: 1024 },
            ),
        ),
        (
            "grid 4096".into(),
            SubrangeEstimator::new(
                SubrangeScheme::paper_six(),
                MaxWeightMode::Stored,
                Expansion::Grid { cells: 4096 },
            ),
        ),
    ];
    let mut text = String::from("E12: long queries (<= 12 terms) on D1\n");
    let mut results = Vec::new();
    for (label, est) in &variants {
        let start = std::time::Instant::now();
        let res = evaluate(
            &ds.d1,
            &repr,
            &long_queries,
            &[est as &(dyn UsefulnessEstimator + Sync)],
            config,
        );
        let elapsed = start.elapsed();
        text.push_str(&render_side_by_side(
            &format!("{label} ({} ms total)", elapsed.as_millis()),
            &res[0],
        ));
        text.push('\n');
        results.push((label.clone(), res));
    }
    ExperimentOutput { text, results }
}

/// E13 — a broker of brokers ("the approach can be generalized to more
/// than two levels"): the 53 databases placed on 8 replica brokers
/// behind a [`FrontDoor`](seu_metasearch::FrontDoor) with the default
/// configuration, against one flat broker over all 53. Every count is a
/// delta of the product's own counters: representatives consulted
/// (`broker_estimates_total`), engine searches (`engine_searches_total`)
/// and replica calls (`federation_replica_calls_total`). Recall is
/// against the engine-level oracle, and the front door's selections are
/// compared with the flat broker's query by query. The headroom line
/// sizes term routing: per query, how many replicas are primary for an
/// engine that holds a query term. The same queries then run under
/// `TopK(3)`, where each replica searches its own top three in its one
/// call: the engine searches the front door makes beyond the flat
/// broker's are the price of that single round, stated with the count
/// that predicts them.
pub fn run_hierarchy(seed: u64, queries: &[Vec<String>], threshold: f64) -> ExperimentOutput {
    use seu_corpus::many_databases;
    use seu_metasearch::{
        Broker, EngineSource, FrontDoor, FrontDoorConfig, LocalReplica, SearchRequest,
        SearchResponse, SelectionPolicy,
    };
    use std::collections::{HashMap, HashSet};
    use std::sync::Arc;

    const REPLICAS: usize = 8;
    let dbs = many_databases(seed, 220);
    let flat = Broker::new(SubrangeEstimator::paper_six_subrange());
    let door = FrontDoor::new(FrontDoorConfig::default());
    for r in 0..REPLICAS {
        let replica = Broker::new(SubrangeEstimator::paper_six_subrange());
        door.add_replica(
            &format!("region{r}"),
            Arc::new(LocalReplica::new(Arc::new(replica))),
        );
    }
    for (name, coll) in &dbs {
        let engine = Arc::new(seu_engine::SearchEngine::new(coll.clone()));
        flat.register_shared(name, engine.clone());
        door.register_engine(name, EngineSource::Local(engine))
            .expect("an in-process replica accepts an in-process engine");
    }
    let primary: HashMap<String, String> = door
        .placements()
        .into_iter()
        .map(|(engine, holders)| (engine, holders[0].clone()))
        .collect();

    // In the order the table prints them.
    let counters = [
        "broker_estimates_total",
        "federation_replica_calls_total",
        "engine_searches_total",
    ]
    .map(seu_obs::counter);
    let read = || -> [u64; 3] { std::array::from_fn(|i| counters[i].get()) };
    // Per architecture: the three counters' deltas, then the useful
    // engines (by the oracle) it selected.
    let (mut flat_row, mut door_row) = ([0u64; 4], [0u64; 4]);
    let (mut identical, mut useful_total, mut term_primaries) = (0usize, 0usize, 0usize);
    for tokens in queries {
        let text = tokens.join(" ");
        let oracle: HashSet<String> = flat.oracle_select(&text, threshold).into_iter().collect();
        let req = SearchRequest::new(text)
            .threshold(threshold)
            .policy(SelectionPolicy::EstimatedUseful);
        let tally = |row: &mut [u64; 4], before: [u64; 3], resp: SearchResponse| {
            let after = read();
            for i in 0..3 {
                row[i] += after[i] - before[i];
            }
            let selected: Vec<String> = resp
                .per_engine_stats
                .into_iter()
                .map(|s| s.engine)
                .collect();
            row[3] += selected.iter().filter(|e| oracle.contains(*e)).count() as u64;
            selected
        };

        let before = read();
        let plan = flat.plan(&req, None);
        let resp = flat
            .execute_plan(&req, &plan)
            .expect("nothing changes the registry");
        let flat_sel = tally(&mut flat_row, before, resp);
        let before = read();
        let door_sel = tally(&mut door_row, before, door.execute(&req));

        identical += usize::from(flat_sel == door_sel);
        useful_total += oracle.len();
        let holding = plan.engines().iter().filter(|e| !e.query().is_empty());
        term_primaries += holding
            .map(|e| &primary[&e.name])
            .collect::<HashSet<_>>()
            .len();
    }
    // The same queries under `TopK(3)`. A replica searches its own top
    // three, a superset of its share of the global top three, so the
    // front door searches Σ min(3, a replica's rows) − min(3, all rows)
    // engines it then leaves out.
    const K: usize = 3;
    let selected = |resp: SearchResponse| -> Vec<String> {
        resp.per_engine_stats
            .into_iter()
            .map(|s| s.engine)
            .collect()
    };
    let (mut top_flat, mut top_door) = ([0u64; 3], [0u64; 3]);
    let (mut top_identical, mut predicted) = (0usize, 0usize);
    for tokens in queries {
        let req = SearchRequest::new(tokens.join(" "))
            .threshold(threshold)
            .policy(SelectionPolicy::TopK(K));
        let before = read();
        let plan = flat.plan(&req, None);
        let resp = flat.execute_plan(&req, &plan);
        let flat_sel = selected(resp.expect("nothing changes the registry"));
        let between = read();
        let door_sel = selected(door.execute(&req));
        let after = read();
        for i in 0..3 {
            top_flat[i] += between[i] - before[i];
            top_door[i] += after[i] - between[i];
        }
        top_identical += usize::from(flat_sel == door_sel);
        let mut rows_at: HashMap<&String, usize> = HashMap::new();
        for e in plan.engines() {
            *rows_at.entry(&primary[&e.name]).or_default() += 1;
        }
        let searched: usize = rows_at.values().map(|&rows| rows.min(K)).sum();
        predicted += searched - plan.engines().len().min(K);
    }

    let row = |name: &str, r: [u64; 4]| {
        format!(
            "{name:<12} {:>10} {:>14} {:>16} {:>7.3}\n",
            r[0],
            r[1],
            r[2],
            ratio(r[3] as usize, useful_total)
        )
    };
    let top_row = |name: &str, r: [u64; 3]| format!("{name:<12} {:>14} {:>16}\n", r[1], r[2]);
    let wasted = (top_door[2] - top_flat[2]) as usize;
    let n = queries.len();
    let text = format!(
        "E13: front door over {} databases on {REPLICAS} replicas, {n} queries, threshold {threshold}\n\
         architecture  consulted  replica calls  engine searches  recall\n\
         {}{}\
         front-door selections identical to the flat broker's in {identical} of {n} queries\n\
         term-routing headroom: {:.2} of {REPLICAS} replicas a query are primary for an engine holding a query term\n\
         (oracle useful engine-hits: {useful_total})\n\
         under TopK({K})  replica calls  engine searches\n\
         {}{}\
         wasted engine searches: {wasted} ({:.2} a query; Σ min({K}, a replica's rows) − min({K}, all rows) predicts {predicted})\n\
         top-{K} selections identical to the flat broker's in {top_identical} of {n} queries\n",
        dbs.len(),
        row("flat broker", flat_row),
        row("front door", door_row),
        ratio(term_primaries, n),
        top_row("flat broker", top_flat),
        top_row("front door", top_door),
        ratio(wasted, n),
    );
    ExperimentOutput {
        text,
        results: Vec::new(),
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// E16 — term dependence (the paper's \[14\] direction carried into the
/// subrange framework): multi-term queries on D1, plain subrange vs the
/// dependence-adjusted estimator with pairwise co-occurrence statistics.
/// The cluster structure of the synthetic corpus makes query terms
/// co-occur, which is exactly what the independence assumption misses.
pub fn run_dependence(ds: &PaperDatasets, config: &EvalConfig) -> ExperimentOutput {
    use seu_core::DependenceAdjustedEstimator;
    use seu_repr::CooccurrenceStats;
    let repr = Representative::build(&ds.d1);
    let stats = CooccurrenceStats::build(&ds.d1, 200_000, 48);
    let (n_pairs, kib) = (stats.len(), stats.size_bytes() / 1024);
    let base = SubrangeEstimator::paper_six_subrange();
    let dep = DependenceAdjustedEstimator::new(base.clone(), stats);
    let multi: Vec<Vec<String>> = ds
        .queries
        .iter()
        .filter(|q| q.len() >= 2)
        .cloned()
        .collect();
    let res = evaluate(
        &ds.d1,
        &repr,
        &multi,
        &[
            &base as &(dyn UsefulnessEstimator + Sync),
            &dep as &(dyn UsefulnessEstimator + Sync),
        ],
        config,
    );
    let mut text = format!(
        "E16: term dependence on D1, {} multi-term queries \
         (co-occurrence side table: {n_pairs} pairs, {kib} KiB)\n",
        multi.len(),
    );
    text.push_str(&render_match_table("match/mismatch", &res));
    text.push('\n');
    text.push_str(&render_dn_ds_table("d-N and d-S", &res));
    ExperimentOutput {
        text,
        results: vec![("D1".to_string(), res)],
    }
}

/// E17 — the binary-vector information-loss claim (§2, reference \[18\]):
/// the binary-and-independent estimator vs the basic and subrange
/// methods on D1. Identical machinery; the only difference is what the
/// representative keeps about weights.
pub fn run_binary_baseline(ds: &PaperDatasets, config: &EvalConfig) -> ExperimentOutput {
    use seu_core::BinaryIndependentEstimator;
    let repr = Representative::build(&ds.d1);
    let binary = BinaryIndependentEstimator::new();
    let basic = seu_core::BasicEstimator::new();
    let sub = SubrangeEstimator::paper_six_subrange();
    let methods: [&(dyn UsefulnessEstimator + Sync); 3] = [&binary, &basic, &sub];
    let res = evaluate(&ds.d1, &repr, &ds.queries, &methods, config);
    let mut text =
        String::from("E17: binary vectors (ref [18] of the paper) vs weighted estimation on D1\n");
    text.push_str(&render_match_table("match/mismatch", &res));
    text.push('\n');
    text.push_str(&render_dn_ds_table("d-N and d-S", &res));
    ExperimentOutput {
        text,
        results: vec![("D1".to_string(), res)],
    }
}

/// E20 — pricing the normal approximation: §3.1 approximates subrange
/// medians as `w + z(q) * sigma` "since it is expensive to find and to
/// store" the true ones. The exact-percentile estimator stores them
/// (4 bytes per median per term) and runs side by side with the normal
/// approximation on D1.
pub fn run_exact_percentiles(ds: &PaperDatasets, config: &EvalConfig) -> ExperimentOutput {
    use seu_core::EmpiricalSubrangeEstimator;
    use seu_repr::PercentileRepresentative;
    let repr = Representative::build(&ds.d1);
    let table = PercentileRepresentative::build(&ds.d1, SubrangeScheme::paper_six());
    let extra_kib = table.size_bytes() / 1024;
    let normal = SubrangeEstimator::paper_six_subrange();
    let exact = EmpiricalSubrangeEstimator::new(table);
    let methods: [&(dyn UsefulnessEstimator + Sync); 2] = [&normal, &exact];
    let res = evaluate(&ds.d1, &repr, &ds.queries, &methods, config);
    let mut text = format!(
        "E20: normal-approximated vs exact subrange medians on D1 \
         (exact table costs {extra_kib} KiB extra)\n",
    );
    text.push_str(&render_match_table("match/mismatch", &res));
    text.push('\n');
    text.push_str(&render_dn_ds_table("d-N and d-S", &res));
    ExperimentOutput {
        text,
        results: vec![("D1".to_string(), res)],
    }
}

/// E19 — weighting-scheme robustness: §3.1 claims the single-term
/// argument "applies to other similarity functions such as \[16\]"
/// (pivoted normalization). D1's token stream is rebuilt under raw-tf
/// cosine, log-tf cosine, and pivoted log-tf; the subrange method and the
/// high-correlation baseline run under each, plus the single-term
/// identification check.
pub fn run_weighting_robustness(ds: &PaperDatasets, config: &EvalConfig) -> ExperimentOutput {
    use seu_corpus::{CollectionSpec, SyntheticCorpus};
    use seu_engine::{SearchEngine, WeightingScheme};
    let corpus = SyntheticCorpus::standard();
    let spec = CollectionSpec {
        name: "D1".into(),
        n_docs: 761,
        topics: vec![0],
        seed: 42 ^ 0xD1, // the standard D1' token stream
    };
    let schemes: [(&str, WeightingScheme); 3] = [
        ("cosine tf", WeightingScheme::CosineTf),
        ("cosine log-tf", WeightingScheme::CosineLogTf),
        (
            "pivoted log-tf (s=0.3)",
            WeightingScheme::PivotedLogTf { slope: 0.3 },
        ),
    ];
    let high = HighCorrelationEstimator::new();
    let sub = SubrangeEstimator::paper_six_subrange();
    let methods: [&(dyn UsefulnessEstimator + Sync); 2] = [&high, &sub];

    let mut text = String::from("E19: weighting-scheme robustness on D1\n");
    let mut results = Vec::new();
    for (label, scheme) in schemes {
        let coll = corpus.generate_collection_with(&spec, scheme);
        let repr = Representative::build(&coll);
        let res = evaluate(&coll, &repr, &ds.queries, &methods, config);
        text.push_str(&render_match_table(
            &format!("{label}: match/mismatch"),
            &res,
        ));

        // Single-term identification under this scheme.
        let engine = SearchEngine::new(coll.clone());
        let mut checked = 0u64;
        let mut exact = 0u64;
        for tokens in ds.queries.iter().filter(|q| q.len() == 1) {
            let q = query_from_tokens(&coll, tokens);
            if q.is_empty() {
                continue;
            }
            for &t in &config.thresholds {
                checked += 1;
                let predicted = sub.estimate(&repr, &q, t).no_doc > 0.0;
                let truly = engine.true_usefulness(&q, t).no_doc >= 1;
                if predicted == truly {
                    exact += 1;
                }
            }
        }
        text.push_str(&format!(
            "  single-term identification: {exact}/{checked} exact\n\n"
        ));
        results.push((label.to_string(), res));
    }
    ExperimentOutput { text, results }
}

/// E18 — selection-policy sweep at the broker: what each policy costs
/// (engines the request pipeline searches, which are only ever engines
/// holding a query term) and what it keeps (fraction of the broadcast's
/// result documents), over D1–D3.
pub fn run_policy_sweep(ds: &PaperDatasets, threshold: f64, n_queries: usize) -> ExperimentOutput {
    use seu_engine::SearchEngine;
    use seu_metasearch::{Broker, SearchRequest, SelectionPolicy};
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    for (name, coll) in databases(ds) {
        broker.register(name, SearchEngine::new(coll.clone()));
    }
    let policies: [(&str, SelectionPolicy); 5] = [
        ("all (broadcast)", SelectionPolicy::All),
        ("estimated-useful", SelectionPolicy::EstimatedUseful),
        ("top-1", SelectionPolicy::TopK(1)),
        ("top-2", SelectionPolicy::TopK(2)),
        ("min-nodoc-5", SelectionPolicy::MinNoDoc(5.0)),
    ];
    let queries: Vec<String> = ds
        .queries
        .iter()
        .take(n_queries)
        .map(|toks| toks.join(" "))
        .collect();

    // Broadcast results once, per query, through the request pipeline.
    let broadcast: Vec<Vec<seu_metasearch::MergedHit>> = queries
        .iter()
        .map(|q| {
            broker
                .execute(
                    &SearchRequest::new(q)
                        .threshold(threshold)
                        .policy(SelectionPolicy::All),
                )
                .hits
        })
        .collect();
    let total_hits: usize = broadcast.iter().map(Vec::len).sum();

    let mut text = format!(
        "E18: selection-policy sweep, {} queries at threshold {threshold} over 3 engines\n",
        queries.len()
    );
    text.push_str(&format!(
        "{:<18} {:>10} {:>12} {:>12}\n",
        "policy", "searches", "hits kept", "kept %"
    ));
    for (label, policy) in policies {
        let mut searches = 0usize;
        let mut kept = 0usize;
        for (q, full) in queries.iter().zip(&broadcast) {
            // What the request pipeline dispatches: never an engine that
            // holds no query term.
            let req = SearchRequest::new(q.as_str())
                .threshold(threshold)
                .policy(policy);
            let selected = broker.plan(&req, None).selected_names();
            searches += selected.len();
            if policy == SelectionPolicy::All {
                kept += full.len();
            } else {
                kept += full.iter().filter(|h| selected.contains(&h.engine)).count();
            }
        }
        text.push_str(&format!(
            "{label:<18} {searches:>10} {kept:>12} {:>11.1} %\n",
            100.0 * kept as f64 / total_hits.max(1) as f64
        ));
    }
    ExperimentOutput {
        text,
        results: Vec::new(),
    }
}

/// E14 — selection quality at the broker: per threshold, precision and
/// recall of the "estimated useful" policy against the oracle over
/// D1–D3, plus the traffic saved vs broadcasting.
pub fn run_selection_quality(ds: &PaperDatasets, thresholds: &[f64]) -> ExperimentOutput {
    use seu_engine::SearchEngine;
    let engines: Vec<(&str, SearchEngine)> = databases(ds)
        .into_iter()
        .map(|(name, coll)| (name, SearchEngine::new(coll.clone())))
        .collect();
    let reprs: Vec<Representative> = databases(ds)
        .iter()
        .map(|(_, c)| Representative::build(c))
        .collect();
    let est = SubrangeEstimator::paper_six_subrange();

    let mut text = String::from("E14: selection quality of the estimated-useful policy (D1-D3)\n");
    text.push_str(&format!(
        "{:>4} {:>10} {:>10} {:>10} {:>12}\n",
        "T", "precision", "recall", "selected", "of broadcast"
    ));
    for &t in thresholds {
        let mut tp = 0u64;
        let mut fp = 0u64;
        let mut fneg = 0u64;
        let mut selected = 0u64;
        for tokens in &ds.queries {
            for (i, (_, engine)) in engines.iter().enumerate() {
                let q = query_from_tokens(engine.collection(), tokens);
                if q.is_empty() {
                    continue;
                }
                let truly = engine.true_usefulness(&q, t).no_doc >= 1;
                let predicted = est.estimate(&reprs[i], &q, t).identifies_useful();
                if predicted {
                    selected += 1;
                    if truly {
                        tp += 1;
                    } else {
                        fp += 1;
                    }
                } else if truly {
                    fneg += 1;
                }
            }
        }
        let broadcast = (ds.queries.len() * engines.len()) as f64;
        text.push_str(&format!(
            "{t:>4.1} {:>10.3} {:>10.3} {:>10} {:>11.1} %\n",
            ratio(tp as usize, (tp + fp) as usize),
            ratio(tp as usize, (tp + fneg) as usize),
            selected,
            100.0 * selected as f64 / broadcast
        ));
    }
    ExperimentOutput {
        text,
        results: Vec::new(),
    }
}

/// E15 — the gGlOSS bounds claim (Section 2 of the paper): "when the
/// measure of similarity sum is used, the estimates produced by the two
/// methods in gGlOSS form lower and upper bounds to the true similarity
/// sum" — and, per the paper, this does **not** carry over to the NoDoc
/// measure. Both claims are checked empirically over the workload.
pub fn run_gloss_bounds(ds: &PaperDatasets, thresholds: &[f64]) -> ExperimentOutput {
    use seu_engine::SearchEngine;
    let high = HighCorrelationEstimator::new();
    let dis = DisjointEstimator::new();
    let mut text = String::from("E15: gGlOSS similarity-sum bounds check\n");
    for (name, coll) in databases(ds) {
        let engine = SearchEngine::new(coll.clone());
        let repr = Representative::build(coll);
        let mut sum_checked = 0u64;
        let mut sum_bounded = 0u64;
        let mut nodoc_bounded = 0u64;
        let mut both_under = 0u64;
        for tokens in &ds.queries {
            let q = query_from_tokens(coll, tokens);
            if q.is_empty() {
                continue;
            }
            for &t in thresholds {
                let truth = engine.true_usefulness(&q, t);
                if truth.no_doc == 0 {
                    continue;
                }
                let true_sum = truth.no_doc as f64 * truth.avg_sim;
                let uh = high.estimate(&repr, &q, t);
                let ud = dis.estimate(&repr, &q, t);
                let hc_sum = uh.no_doc * uh.avg_sim;
                let dis_sum = ud.no_doc * ud.avg_sim;
                sum_checked += 1;
                // The bounds as proved under the gGlOSS model: the two
                // estimates bracket the truth (in either order).
                let (lo, hi) = if hc_sum <= dis_sum {
                    (hc_sum, dis_sum)
                } else {
                    (dis_sum, hc_sum)
                };
                if lo <= true_sum + 1e-9 && true_sum <= hi + 1e-9 {
                    sum_bounded += 1;
                }
                if true_sum > hi + 1e-9 {
                    both_under += 1;
                }
                let (nlo, nhi) = if uh.no_doc <= ud.no_doc {
                    (uh.no_doc, ud.no_doc)
                } else {
                    (ud.no_doc, uh.no_doc)
                };
                if nlo <= truth.no_doc as f64 + 1e-9 && (truth.no_doc as f64) <= nhi + 1e-9 {
                    nodoc_bounded += 1;
                }
            }
        }
        text.push_str(&format!(
            "{name}: sim-sum bracketed {sum_bounded}/{sum_checked} ({:.1} %), \
             NoDoc bracketed {nodoc_bounded}/{sum_checked} ({:.1} %), \
             truth above both {both_under}/{sum_checked} ({:.1} %)\n",
            100.0 * ratio(sum_bounded as usize, sum_checked as usize),
            100.0 * ratio(nodoc_bounded as usize, sum_checked as usize),
            100.0 * ratio(both_under as usize, sum_checked as usize),
        ));
    }
    text.push_str(
        "(reading: the gGlOSS lower/upper-bound theorem is internal to its \
         uniform-average-weight model — on heterogeneous weights both \
         estimates usually land on the same side of the truth, overwhelmingly \
         *below* it, which is why the paper finds them inaccurate and why \
         bracketing fails for NoDoc too)\n",
    );
    ExperimentOutput {
        text,
        results: Vec::new(),
    }
}

/// Query-length diagnostics: how many workload queries reach each
/// database's vocabulary at all (context for interpreting U columns).
pub fn run_workload_diagnostics(ds: &PaperDatasets) -> ExperimentOutput {
    let mut text = String::from("Workload diagnostics\n");
    let single = ds.queries.iter().filter(|q| q.len() == 1).count();
    text.push_str(&format!(
        "queries: {} ({} single-term, {:.1} %)\n",
        ds.queries.len(),
        single,
        100.0 * single as f64 / ds.queries.len() as f64
    ));
    for (name, coll) in databases(ds) {
        let known = ds
            .queries
            .iter()
            .filter(|q| !query_from_tokens(coll, q).is_empty())
            .count();
        text.push_str(&format!(
            "{name}: {} docs, {} distinct terms, {}/{} queries with at least one known term\n",
            coll.len(),
            coll.vocab().len(),
            known,
            ds.queries.len()
        ));
        // How normal are the per-term weight distributions? The subrange
        // method's quantile medians assume skewness ~ 0; this is the
        // empirical check (terms in >= 8 docs, where skewness means
        // something).
        let mut acc: Vec<seu_stats::Moments> = vec![seu_stats::Moments::new(); coll.vocab().len()];
        for doc in coll.docs() {
            for &(term, w) in &doc.terms {
                acc[term.index()].push(w);
            }
        }
        let mut skews: Vec<f64> = acc
            .iter()
            .filter(|m| m.count() >= 8)
            .map(|m| m.skewness())
            .collect();
        if !skews.is_empty() {
            skews.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let med = seu_stats::percentile_linear(&skews, 0.5);
            let p90 = seu_stats::percentile_linear(&skews, 0.9);
            let heavy = skews.iter().filter(|s| s.abs() > 1.0).count();
            text.push_str(&format!(
                "    weight skewness over {} frequent terms: median {:.2}, p90 {:.2}, |skew|>1: {:.1} %\n",
                skews.len(),
                med,
                p90,
                100.0 * heavy as f64 / skews.len() as f64
            ));
        }
    }
    ExperimentOutput {
        text,
        results: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_engine::{Collection, CollectionBuilder, WeightingScheme};
    use seu_text::Analyzer;

    /// A miniature stand-in for the full PaperDatasets — three tiny
    /// topical collections and a handful of queries — so every driver
    /// gets an end-to-end smoke test without generating the real corpus.
    fn tiny_datasets() -> PaperDatasets {
        let mk = |docs: &[&str]| -> Collection {
            let mut b =
                CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
            for (i, d) in docs.iter().enumerate() {
                b.add_document(&format!("d{i}"), d);
            }
            b.build()
        };
        let d1 = mk(&[
            "databases indexes queries optimizer",
            "databases transactions logging",
            "databases storage pages buffers",
            "query plans and databases",
        ]);
        let d2 = mk(&[
            "soup recipes mushrooms cream",
            "bread baking sourdough rye",
            "databases of recipes and menus",
            "soup stock reduction",
            "bread crumb troubleshooting",
        ]);
        let d3 = mk(&[
            "orbital mechanics launch",
            "cheap propellant storage",
            "databases orbit catalogs",
            "soup dumplings steaming",
        ]);
        let mut queries: Vec<Vec<String>> = vec![
            vec!["databases".into()],
            vec!["soup".into()],
            vec!["databases".into(), "queries".into()],
            vec!["bread".into(), "baking".into()],
            vec!["orbital".into(), "launch".into()],
            vec!["unknownterm".into()],
            vec!["recipes".into(), "soup".into(), "bread".into()],
        ];
        // Repeat to give the metrics a little mass.
        let base = queries.clone();
        for _ in 0..3 {
            queries.extend(base.iter().cloned());
        }
        PaperDatasets {
            d1,
            d2,
            d3,
            queries,
        }
    }

    fn cfg() -> EvalConfig {
        EvalConfig {
            thresholds: vec![0.1, 0.3, 0.5],
            threads: 2,
        }
    }

    #[test]
    fn main_tables_smoke() {
        let ds = tiny_datasets();
        let out = run_main_tables(&ds, &cfg());
        assert_eq!(out.results.len(), 3);
        assert!(out.text.contains("Table 1"));
        assert!(out.text.contains("Table 6"));
        // Three methods per database, rows per threshold.
        for (_, res) in &out.results {
            assert_eq!(res.len(), 3);
            assert_eq!(res[0].rows.len(), 3);
        }
        // Subrange matches at least as much as high-correlation overall.
        let (_, d1) = &out.results[0];
        assert!(d1[2].rows[0].matches >= d1[0].rows[0].matches);
    }

    #[test]
    fn quantized_and_triplet_tables_smoke() {
        let ds = tiny_datasets();
        let q = run_quantized_tables(&ds, &cfg());
        assert!(q.text.contains("Table 7"));
        let t = run_triplet_tables(&ds, &cfg());
        assert!(t.text.contains("Table 12"));
    }

    #[test]
    fn guarantee_smoke_is_exact() {
        let ds = tiny_datasets();
        let out = run_guarantee(&ds, &[0.1, 0.3, 0.5, 0.7]);
        assert!(out.text.contains("identified exactly"));
        assert!(!out.text.contains("VIOLATION"), "{}", out.text);
    }

    #[test]
    fn ablations_smoke() {
        let ds = tiny_datasets();
        assert!(run_ablation_subranges(&ds, &cfg())
            .text
            .contains("paper six"));
        assert!(run_ablation_disjoint(&ds, &cfg()).text.contains("disjoint"));
        assert!(run_ablation_grid(&ds, &cfg()).text.contains("exact"));
    }

    #[test]
    fn diagnostics_smoke() {
        let ds = tiny_datasets();
        let out = run_workload_diagnostics(&ds);
        assert!(out.text.contains("queries: 28"));
        assert!(out.text.contains("D3"));
    }

    #[test]
    fn selection_quality_smoke() {
        let ds = tiny_datasets();
        let out = run_selection_quality(&ds, &[0.1, 0.3]);
        assert!(out.text.contains("precision"));
        // On these tiny, clean collections selection is accurate.
        assert!(out.text.contains("1.000"), "{}", out.text);
    }

    #[test]
    fn gloss_bounds_smoke() {
        let ds = tiny_datasets();
        let out = run_gloss_bounds(&ds, &[0.1, 0.3]);
        assert!(out.text.contains("sim-sum bracketed"));
        assert!(out.text.contains("D1"));
    }
}
