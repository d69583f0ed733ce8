//! Result merging: combining hit lists from multiple engines.
//!
//! Because every engine scores with the same *global* similarity function
//! (cosine over its own collection statistics), merged ranking by raw
//! similarity is meaningful — the single-database property the paper's
//! usefulness measure is designed around.

use crate::broker::MergedHit;

/// Merges per-engine hit lists into one list sorted by descending
/// similarity (ties: engine name, then document name — by name, not
/// by registration order).
pub fn merge_results(mut per_engine: Vec<Vec<MergedHit>>) -> Vec<MergedHit> {
    let mut all: Vec<MergedHit> = per_engine.drain(..).flatten().collect();
    all.sort_by(|a, b| {
        b.sim
            .partial_cmp(&a.sim)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.engine.cmp(&b.engine))
            .then(a.doc.cmp(&b.doc))
    });
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(engine: &str, doc: &str, sim: f64) -> MergedHit {
        MergedHit {
            engine: engine.to_string(),
            doc: doc.to_string(),
            sim,
        }
    }

    #[test]
    fn merges_sorted_desc() {
        let merged = merge_results(vec![
            vec![hit("a", "d1", 0.9), hit("a", "d2", 0.2)],
            vec![hit("b", "d3", 0.5)],
        ]);
        let sims: Vec<f64> = merged.iter().map(|h| h.sim).collect();
        assert_eq!(sims, vec![0.9, 0.5, 0.2]);
    }

    #[test]
    fn tie_break_is_deterministic() {
        let m1 = merge_results(vec![vec![hit("b", "x", 0.5)], vec![hit("a", "y", 0.5)]]);
        let m2 = merge_results(vec![vec![hit("a", "y", 0.5)], vec![hit("b", "x", 0.5)]]);
        assert_eq!(m1[0].engine, "a");
        assert_eq!(m1, m2);
    }

    #[test]
    fn empty_input() {
        assert!(merge_results(vec![]).is_empty());
        assert!(merge_results(vec![vec![], vec![]]).is_empty());
    }
}
