//! Rebalance planning: pure diffs between where engines are and where
//! the ring says they should be.
//!
//! A membership change (join, leave, breaker-driven eviction) changes
//! the ring, and the ring alone decides the desired holders of every
//! engine: the first `replication` candidates on its chain. The
//! rebalance planner compares that desired set with the recorded
//! current holders and emits per-engine diffs; the front-door executes
//! each diff by shipping the engine's record to new holders (exported
//! from a live current holder over the frame protocol, so the moved
//! engine hydrates without re-registration; the engine's source alone
//! when no holder answers) and then removing it from former holders —
//! installs strictly before removals, so an engine never has zero
//! holders mid-move. A registration is the same diff from no holders.

use crate::remote::TransportError;

/// One engine's placement delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementDiff {
    /// The engine to move.
    pub engine: String,
    /// Replicas that must newly receive the engine, candidate order.
    pub install: Vec<String>,
    /// Replicas that must drop it once the installs land.
    pub remove: Vec<String>,
    /// The full desired holder list, candidate order (primary first).
    pub desired: Vec<String>,
}

/// Diffs one engine's current holders against the ring's desired
/// holders; `None` when nothing has to move.
pub fn diff_placement(
    engine: &str,
    current: &[String],
    desired: &[String],
) -> Option<PlacementDiff> {
    if current == desired {
        return None;
    }
    Some(PlacementDiff {
        engine: engine.to_string(),
        install: desired
            .iter()
            .filter(|d| !current.contains(d))
            .cloned()
            .collect(),
        remove: current
            .iter()
            .filter(|c| !desired.contains(c))
            .cloned()
            .collect(),
        desired: desired.to_vec(),
    })
}

/// One engine movement performed by a rebalance.
#[derive(Debug, Clone)]
pub struct Move {
    /// The engine that moved.
    pub engine: String,
    /// The holder its record was exported from (`None` when no current
    /// holder exported one: the engine's source was sent alone).
    pub from: Option<String>,
    /// The replica it was installed on.
    pub to: String,
    /// Whether a record was shipped (vs a source-only registration).
    pub shipped_snapshot: bool,
}

/// What a rebalance did.
#[derive(Debug, Clone, Default)]
pub struct RebalanceReport {
    /// Engines installed on new holders.
    pub moves: Vec<Move>,
    /// `(engine, replica)` pairs removed from former holders.
    pub removals: Vec<(String, String)>,
    /// Typed failures, per engine.
    pub errors: Vec<(String, TransportError)>,
}

impl RebalanceReport {
    /// Whether the rebalance completed without errors.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_placement_needs_no_move() {
        assert_eq!(
            diff_placement("e", &ids(&["r1", "r2"]), &ids(&["r1", "r2"])),
            None
        );
    }

    #[test]
    fn reordered_holders_update_without_installs() {
        // Same replicas, different candidate order (e.g. a join changed
        // which holder is primary): the diff records the new desired
        // order but ships and removes nothing.
        let d = diff_placement("e", &ids(&["r1", "r2"]), &ids(&["r2", "r1"])).unwrap();
        assert!(d.install.is_empty());
        assert!(d.remove.is_empty());
        assert_eq!(d.desired, ids(&["r2", "r1"]));
    }

    #[test]
    fn join_and_leave_produce_minimal_installs_and_removes() {
        let d = diff_placement("e", &ids(&["r1", "r2"]), &ids(&["r1", "r3"])).unwrap();
        assert_eq!(d.install, ids(&["r3"]));
        assert_eq!(d.remove, ids(&["r2"]));
    }
}
