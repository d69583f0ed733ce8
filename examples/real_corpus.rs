//! Working with *real* text instead of the synthetic workload: three
//! newsgroup-style mbox spools are parsed, indexed, persisted, and
//! served through a broker that receives each engine's record as bytes
//! — representative, vocabulary and content fingerprint — the same flow
//! the `seu` command-line tool wraps.
//!
//! ```text
//! cargo run --example real_corpus
//! ```

use seu::corpus::loader::load_mbox;
use seu::engine::Collection;
use seu::metasearch::{Broker, EngineRecord};
use seu::prelude::*;
use seu_net::wire::{record_from_bytes, record_to_bytes};
use std::sync::Arc;

/// Tiny inline stand-ins for on-disk spools.
const COMP_DATABASES: &str = "\
From alice@example.com Tue Jan 5 10:00:00 1999
Subject: btree vs hash indexes

for range scans a btree index wins every time, hash indexes
only help point lookups

From bob@example.com Tue Jan 5 12:30:00 1999
Subject: re: btree vs hash indexes

also consider covering indexes to skip heap fetches entirely

From carol@example.com Wed Jan 6 09:00:00 1999
Subject: query planner statistics

stale statistics make the planner choose terrible join orders,
analyze your tables after bulk loads
";

const REC_FOOD: &str = "\
From dave@example.com Tue Jan 5 11:00:00 1999
Subject: sourdough starter rescue

my starter smells like acetone, feed it twice daily at warmer
room temperature and it recovers

From erin@example.com Wed Jan 6 14:00:00 1999
Subject: mushroom soup depth

roast the mushrooms before simmering, deglaze with sherry
";

const SCI_SPACE: &str = "\
From frank@example.com Tue Jan 5 16:00:00 1999
Subject: aerobraking passes

each aerobraking pass trims apoapsis cheaply compared to a
propulsive burn

From grace@example.com Thu Jan 7 08:00:00 1999
Subject: cryogenic boiloff

zero boiloff storage needs active cooling, passive insulation
only slows the loss
";

fn main() {
    let analyzer = Analyzer::new(AnalyzerConfig {
        remove_stopwords: true,
        stem: true, // real text benefits from stemming
    });

    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    for (name, spool) in [
        ("comp.databases", COMP_DATABASES),
        ("rec.food", REC_FOOD),
        ("sci.space", SCI_SPACE),
    ] {
        let collection = load_mbox(name, spool, analyzer.clone(), WeightingScheme::CosineTf);
        println!(
            "{name}: {} messages, {} distinct stems, {} tokens",
            collection.len(),
            collection.vocab().len(),
            collection.total_tokens()
        );

        // Persist + reload (what `seu index` does), then install the
        // engine's record shipped as bytes (what a remote engine would
        // send).
        let restored = Collection::from_bytes(collection.to_bytes()).expect("round trip");
        let engine = Arc::new(SearchEngine::new(restored));
        let repr = Representative::build(engine.collection());
        let shipped = record_to_bytes(&EngineRecord::of_engine(name, &engine, repr));
        let record = record_from_bytes(&shipped).expect("wire ok");
        broker
            .install_snapshot(Arc::new(record), Some(engine), None)
            .expect("consistent snapshot");
    }

    // Each collection remembers its analysis pipeline, so the broker's
    // per-engine query analysis stems these queries to match the stemmed
    // indexes automatically.
    for query in ["mushroom soup", "hash indexes", "boiloff storage"] {
        println!("\nquery {query:?}");
        let estimates = broker.estimate_all(query, 0.1);
        for e in &estimates {
            println!(
                "  {:<16} est NoDoc {:.2}  AvgSim {:.3}",
                e.engine, e.usefulness.no_doc, e.usefulness.avg_sim
            );
        }
        for hit in broker.search(query, 0.1, SelectionPolicy::EstimatedUseful) {
            println!("    {:<16} {:<22} sim {:.3}", hit.engine, hit.doc, hit.sim);
        }
    }
}
