//! Selection policies: from per-engine estimates to an invocation set.

use serde::{Deserialize, Serialize};
use seu_core::Usefulness;

/// How a broker chooses which engines to invoke, given each engine's
/// estimated usefulness for the query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// Whether the policy decides each engine from its own estimate alone
    /// (all but `TopK`), and so picks the same engines from any split of
    /// the estimates: a federation replica can apply it to its share.
    pub fn is_per_engine(&self) -> bool {
        !matches!(self, SelectionPolicy::TopK(_))
    }

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

    #[test]
    fn per_engine_policies_pick_the_same_from_any_split() {
        use SelectionPolicy::*;
        let es = [est(0.4, 0.1), est(3.0, 0.4), est(0.6, 0.2), est(0.0, 0.0)];
        for policy in [All, EstimatedUseful, MinNoDoc(0.5), TopK(1)] {
            let mut split = policy.select(&es[..2]);
            split.extend(policy.select(&es[2..]).into_iter().map(|i| i + 2));
            assert_eq!(split == policy.select(&es), policy.is_per_engine());
        }
    }

    #[test]
    fn empty_estimates() {
        assert!(SelectionPolicy::All.select(&[]).is_empty());
        assert!(SelectionPolicy::TopK(3).select(&[]).is_empty());
    }
}
