//! Selection policies: from per-engine estimates to an invocation set.

use seu_core::Usefulness;

/// How a broker chooses which engines to invoke, given each engine's
/// estimated usefulness for the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionPolicy {
    /// Invoke every engine it is given — in a plan, every engine holding
    /// a query term (the naive broker the paper argues against, less the
    /// engines that could find nothing).
    All,
    /// Invoke engines whose rounded estimated NoDoc is at least 1 — the
    /// paper's notion of "identified as useful".
    EstimatedUseful,
    /// Invoke the `k` engines with the largest estimated NoDoc (ties by
    /// estimated AvgSim, then registration order).
    TopK(usize),
    /// Invoke engines with estimated NoDoc at least this value
    /// (un-rounded).
    MinNoDoc(f64),
}

impl SelectionPolicy {
    /// Applies the policy to per-engine estimates, returning selected
    /// indices in the order they should be invoked (TopK: best first;
    /// others: registration order).
    pub fn select(&self, estimates: &[Usefulness]) -> Vec<usize> {
        match *self {
            SelectionPolicy::All => (0..estimates.len()).collect(),
            SelectionPolicy::EstimatedUseful => estimates
                .iter()
                .enumerate()
                .filter(|(_, u)| u.identifies_useful())
                .map(|(i, _)| i)
                .collect(),
            SelectionPolicy::TopK(k) => {
                let mut order: Vec<usize> = (0..estimates.len()).collect();
                order.sort_by(|&a, &b| {
                    let (ua, ub) = (&estimates[a], &estimates[b]);
                    ub.no_doc
                        .partial_cmp(&ua.no_doc)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(
                            ub.avg_sim
                                .partial_cmp(&ua.avg_sim)
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                        .then(a.cmp(&b))
                });
                order.truncate(k);
                order
            }
            SelectionPolicy::MinNoDoc(min) => estimates
                .iter()
                .enumerate()
                .filter(|(_, u)| u.no_doc >= min)
                .map(|(i, _)| i)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(no_doc: f64, avg_sim: f64) -> Usefulness {
        Usefulness { no_doc, avg_sim }
    }

    #[test]
    fn all_selects_everything() {
        let es = [est(0.0, 0.0), est(5.0, 0.5)];
        assert_eq!(SelectionPolicy::All.select(&es), vec![0, 1]);
    }

    #[test]
    fn estimated_useful_uses_rounding() {
        let es = [est(0.4, 0.1), est(0.5, 0.1), est(3.0, 0.4)];
        assert_eq!(SelectionPolicy::EstimatedUseful.select(&es), vec![1, 2]);
    }

    #[test]
    fn top_k_orders_by_no_doc_then_avg_sim() {
        let es = [est(2.0, 0.1), est(5.0, 0.3), est(5.0, 0.6), est(1.0, 0.9)];
        assert_eq!(SelectionPolicy::TopK(2).select(&es), vec![2, 1]);
        assert_eq!(SelectionPolicy::TopK(10).select(&es), vec![2, 1, 0, 3]);
        assert!(SelectionPolicy::TopK(0).select(&es).is_empty());
    }

    #[test]
    fn min_no_doc_is_unrounded() {
        let es = [est(0.4, 0.0), est(0.6, 0.0)];
        assert_eq!(SelectionPolicy::MinNoDoc(0.5).select(&es), vec![1]);
        assert_eq!(SelectionPolicy::MinNoDoc(0.0).select(&es), vec![0, 1]);
    }

    /// The superset lemma a federation replica relies on. Split the
    /// estimates into order-preserving parts (a replica's rows, named in
    /// global order) and apply the policy to each part alone: the whole's
    /// picks are among the parts' picks. A per-engine policy picks the
    /// same from any split; `TopK` ranks a part in the whole's tie order,
    /// so an engine's rank in its part is at most its rank in the whole.
    /// Any order both apply alike keeps the lemma, so the tie order itself
    /// is pinned too: `TopK(k)` picks, best first, exactly the engines
    /// fewer than `k` others beat on (NoDoc, AvgSim, earlier position).
    #[test]
    fn the_whole_picks_among_its_parts_picks() {
        use SelectionPolicy::*;
        // Ties in NoDoc, in AvgSim, and in both.
        let values = [est(2.0, 0.5), est(2.0, 0.25), est(0.5, 0.5), est(0.0, 0.0)];
        let m = values.len();
        for n in 0..=4u32 {
            let len = n as usize;
            for code in 0..m.pow(n) {
                let es: Vec<Usefulness> = (0..n).map(|i| values[code / m.pow(i) % m]).collect();
                let key = |i: usize| (es[i].no_doc, es[i].avg_sim, std::cmp::Reverse(i));
                let beaten_by = |i: usize| (0..len).filter(|&j| key(j) > key(i)).count();
                for k in 0..=len {
                    let mut best: Vec<usize> = (0..len).filter(|&i| beaten_by(i) < k).collect();
                    best.sort_by_key(|&i| beaten_by(i));
                    assert_eq!(TopK(k).select(&es), best, "TopK({k}) of {es:?}");
                }
                let policies = (0..=len).map(TopK);
                for policy in policies.chain([All, EstimatedUseful, MinNoDoc(0.5)]) {
                    let whole = policy.select(&es);
                    for parts in 2..=3usize {
                        for split in 0..parts.pow(n) {
                            let part = |i: usize| split / parts.pow(i as u32) % parts;
                            let mut picked = vec![false; len];
                            for p in 0..parts {
                                let members: Vec<usize> =
                                    (0..len).filter(|&i| part(i) == p).collect();
                                let share: Vec<Usefulness> =
                                    members.iter().map(|&i| es[i]).collect();
                                for local in policy.select(&share) {
                                    picked[members[local]] = true;
                                }
                            }
                            let ctx = format!("{policy:?} of {es:?}, split {split} in {parts}");
                            assert!(whole.iter().all(|&i| picked[i]), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_estimates() {
        assert!(SelectionPolicy::All.select(&[]).is_empty());
        assert!(SelectionPolicy::TopK(3).select(&[]).is_empty());
    }
}
