//! A full metasearch deployment in miniature: engines ship records —
//! representative, vocabulary and content fingerprint, serialized — to a
//! broker, the broker selects engines per query with the subrange
//! estimator, searches them in parallel, and merges the results. Each
//! engine also reports what its representative would weigh quantized
//! to one byte per number.
//!
//! ```text
//! cargo run --example metasearch_broker
//! ```

use seu::metasearch::{Broker, EngineRecord};
use seu::prelude::*;
use seu::repr::QuantizedRepresentative;
use seu_net::wire::{record_from_bytes, record_to_bytes};
use std::sync::Arc;

fn engine(topic_docs: &[&str]) -> SearchEngine {
    let mut builder = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, text) in topic_docs.iter().enumerate() {
        builder.add_document(&format!("msg-{i}"), text);
    }
    SearchEngine::new(builder.build())
}

fn main() {
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());

    let engines = [
        (
            "comp.databases",
            engine(&[
                "tuning postgres query plans with partial indexes",
                "comparing btree and hash indexes for point lookups",
                "write amplification in log structured storage engines",
                "metasearch brokers and database selection research",
            ]),
        ),
        (
            "rec.food",
            engine(&[
                "slow roasted tomato sauce for winter pasta",
                "which mushrooms work best in a cream soup",
                "trouble shooting dense sourdough crumb",
            ]),
        ),
        (
            "sci.space",
            engine(&[
                "delta v budgets for lunar transfer orbits",
                "storage tanks boiloff rates for cryogenic propellant",
                "selecting landing sites from orbital imagery databases",
            ]),
        ),
    ];

    for (name, engine) in engines {
        // The engine serializes its record (what would cross the
        // network); the broker installs what arrives.
        let engine = Arc::new(engine);
        let repr = Representative::build(engine.collection());
        let quantized = QuantizedRepresentative::from_representative(&repr);
        let shipped = record_to_bytes(&EngineRecord::of_engine(name, &engine, repr));
        println!(
            "{name}: record {} bytes serialized, representative {} bytes quantized",
            shipped.len(),
            quantized.size_bytes()
        );
        let record = record_from_bytes(&shipped).expect("intact record");
        broker
            .install_snapshot(Arc::new(record), Some(engine), None)
            .expect("consistent snapshot");
    }

    let threshold = 0.15;
    for query in ["database indexes", "mushroom soup", "orbital databases"] {
        println!("\nquery {query:?}");
        let estimates = broker.estimate_all(query, threshold);
        for e in &estimates {
            println!(
                "  {:<15} est NoDoc {:.2}  AvgSim {:.3}",
                e.engine, e.usefulness.no_doc, e.usefulness.avg_sim
            );
        }
        let selected = broker.select(query, threshold, SelectionPolicy::EstimatedUseful);
        println!(
            "  selected: {selected:?}  (oracle: {:?})",
            broker.oracle_select(query, threshold)
        );
        for hit in broker.search(query, threshold, SelectionPolicy::EstimatedUseful) {
            println!("    {:<15} {:<8} sim {:.3}", hit.engine, hit.doc, hit.sim);
        }
    }
}
