//! Consistent-hash placement of engine names onto broker replicas.
//!
//! The front-door broker owns no engines; it decides, for every engine
//! name, which back-end replica holds it. The decision must be **pure**
//! (a function of the name and the replica set alone, so every
//! front-door instance and every restart agrees), **stable** (adding or
//! removing one replica moves only the keys that have to move), and
//! **spreadable** (names land evenly). A consistent-hash ring with
//! virtual nodes gives all three: each replica contributes `vnodes`
//! points hashed onto a `u64` circle, and an engine name is owned by
//! the first point clockwise of its own hash.
//!
//! Hashing is the same pure FNV-1a used by
//! [`shard_for`](crate::registry::shard_for) (finished with a
//! splitmix64 avalanche before landing on the circle — see
//! `ring_position`), so placement needs no state, no RNG, and no
//! coordination — the ring *is* the membership list plus arithmetic.

/// FNV-1a offset basis: the hash of the empty key.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h`: the crate's one string
/// hash, behind ring placement, [`shard_for`](crate::shard_for) and the
/// query cache's shard routing.
pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Default virtual nodes per replica. 192 points per replica keeps the
/// keyspace share of 8 replicas within ±20% of fair over an 8k-name
/// keyspace (measured in `tests/federation_placement.rs`) while the
/// ring stays tiny (8 × 192 points = 24 KiB).
pub const DEFAULT_VNODES: usize = 192;

/// Pure FNV-1a over a key's bytes — the hash that positions both ring
/// points and engine names on the circle.
pub fn hash_key(key: &str) -> u64 {
    fnv1a(FNV_OFFSET, key.as_bytes())
}

/// The hash of one virtual node: replica id and vnode index joined with
/// `#` (a character the CLI forbids in replica ids), so `r1#2` and
/// `r12#…` never collide structurally. Runs at ring build only.
fn point_hash(replica: &str, vnode: usize) -> u64 {
    hash_key(&format!("{replica}#{vnode}"))
}

/// The splitmix64 finalizer, applied to every hash before it lands on
/// the circle. FNV-1a alone disperses similar keys (sequential
/// `engine-0001`, `engine-0002`, … names) poorly across the high bits,
/// which skews arc shares far past the ±20% uniformity bound; the
/// finalizer's avalanche fixes that while placement stays a pure
/// function of the FNV hash. Purity and golden pins live on
/// [`hash_key`]; this is only the circle coordinate.
fn ring_position(h: u64) -> u64 {
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A consistent-hash ring over named replicas.
///
/// ```
/// use seu_metasearch::federation::Ring;
///
/// let mut ring = Ring::new(64);
/// ring.add_replica("r1");
/// ring.add_replica("r2");
/// let owner = ring.owner("engine-7").unwrap().to_string();
/// ring.add_replica("r3");
/// // The owner either stayed put or moved to the new replica — never
/// // to the other survivor.
/// let now = ring.owner("engine-7").unwrap();
/// assert!(now == owner || now == "r3");
/// ```
#[derive(Debug, Clone)]
pub struct Ring {
    vnodes: usize,
    /// Replica ids in join order (the id namespace; points refer into
    /// it by index).
    replicas: Vec<String>,
    /// `(point hash, replica index)`, sorted by hash then index — the
    /// index tie-break makes even a hash collision deterministic.
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// An empty ring with `vnodes` virtual nodes per replica (clamped
    /// to at least 1).
    pub fn new(vnodes: usize) -> Ring {
        Ring {
            vnodes: vnodes.max(1),
            replicas: Vec::new(),
            points: Vec::new(),
        }
    }

    /// A ring pre-populated with `replicas`, in order.
    pub fn with_replicas<I, S>(vnodes: usize, replicas: I) -> Ring
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut ring = Ring::new(vnodes);
        for r in replicas {
            ring.add_replica(r.as_ref());
        }
        ring
    }

    /// Virtual nodes per replica.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Replica ids, in join order.
    pub fn replicas(&self) -> &[String] {
        &self.replicas
    }

    /// Number of replicas on the ring.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the ring has no replicas.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Adds a replica (its `vnodes` points join the circle). Returns
    /// `false` if the id is already present — the ring is unchanged.
    pub fn add_replica(&mut self, id: &str) -> bool {
        if self.replicas.iter().any(|r| r == id) {
            return false;
        }
        let index = self.replicas.len() as u32;
        self.replicas.push(id.to_string());
        for v in 0..self.vnodes {
            self.points.push((ring_position(point_hash(id, v)), index));
        }
        self.points.sort_unstable();
        true
    }

    /// Removes a replica and its points. Returns `false` for an unknown
    /// id.
    pub fn remove_replica(&mut self, id: &str) -> bool {
        let Some(gone) = self.replicas.iter().position(|r| r == id) else {
            return false;
        };
        let gone = gone as u32;
        self.replicas.remove(gone as usize);
        self.points.retain(|&(_, i)| i != gone);
        for p in &mut self.points {
            if p.1 > gone {
                p.1 -= 1;
            }
        }
        true
    }

    /// The replica owning an engine name: the first ring point at or
    /// clockwise of the name's hash. `None` on an empty ring.
    pub fn owner(&self, engine: &str) -> Option<&str> {
        let key = ring_position(hash_key(engine));
        let start = self.points.partition_point(|&(h, _)| h < key);
        let (_, idx) = self.points.get(start).or_else(|| self.points.first())?;
        Some(&self.replicas[*idx as usize])
    }

    /// Every replica in failover order for an engine name: the owner
    /// first, then each further distinct replica in clockwise point
    /// order. The order is pure in (name, membership), so independent
    /// front-doors agree on the whole candidate chain, not just the
    /// owner.
    pub fn candidates(&self, engine: &str) -> Vec<&str> {
        let key = ring_position(hash_key(engine));
        let start = self.points.partition_point(|&(h, _)| h < key);
        let mut seen = vec![false; self.replicas.len()];
        let mut order = Vec::with_capacity(self.replicas.len());
        for offset in 0..self.points.len() {
            let (_, idx) = self.points[(start + offset) % self.points.len()];
            if !seen[idx as usize] {
                seen[idx as usize] = true;
                order.push(self.replicas[idx as usize].as_str());
                if order.len() == self.replicas.len() {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_shard_for_constants() {
        // Golden values computed independently from the FNV-1a
        // reference definition; hash_key must never drift from them
        // (placement purity across versions depends on it).
        assert_eq!(hash_key("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_key("soup"), 0x5fe3_df18_f075_cfc2);
        assert_eq!(hash_key("engine-0000"), 0x93bc_f93d_4f26_bc62);
    }

    #[test]
    fn point_hash_is_the_hash_of_id_hash_vnode() {
        assert_eq!(point_hash("replica-a", 0), hash_key("replica-a#0"));
        assert_eq!(point_hash("replica-a", 1), hash_key("replica-a#1"));
        assert_eq!(point_hash("r1", 15), hash_key("r1#15"));
        // Golden pins for the ring-point layout itself.
        assert_eq!(point_hash("replica-a", 0), 0xb2f7_54b4_a48c_5cce);
        assert_eq!(point_hash("replica-b", 0), 0x99da_cfb4_9692_4e3f);
    }

    #[test]
    fn ring_position_finalizer_is_pinned() {
        // The circle coordinate = splitmix64(FNV-1a). Pinned like the
        // raw hashes: a drift here re-places every engine everywhere.
        assert_eq!(ring_position(hash_key("a")), 0x02c0_bdbf_4814_20f8);
        assert_eq!(
            ring_position(hash_key("replica-a#0")),
            0xb400_7d5b_88b0_546f
        );
    }

    #[test]
    fn owner_is_pure_and_total() {
        let ring = Ring::with_replicas(16, ["r1", "r2", "r3"]);
        for name in ["a", "b", "soup", "engine-17"] {
            let first = ring.owner(name).unwrap().to_string();
            let again = ring.clone().owner(name).unwrap().to_string();
            assert_eq!(first, again);
        }
        assert!(Ring::new(8).owner("a").is_none());
    }

    #[test]
    fn join_order_does_not_change_ownership() {
        let ab = Ring::with_replicas(32, ["alpha", "beta", "gamma"]);
        let ba = Ring::with_replicas(32, ["gamma", "alpha", "beta"]);
        for i in 0..200 {
            let name = format!("engine-{i}");
            assert_eq!(ab.owner(&name), ba.owner(&name));
        }
    }

    #[test]
    fn candidates_start_at_the_owner_and_cover_everyone() {
        let ring = Ring::with_replicas(16, ["r1", "r2", "r3", "r4"]);
        for i in 0..50 {
            let name = format!("engine-{i}");
            let c = ring.candidates(&name);
            assert_eq!(c.len(), 4);
            assert_eq!(c[0], ring.owner(&name).unwrap());
            let mut sorted = c.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "duplicate candidate for {name}");
        }
    }

    #[test]
    fn duplicate_add_and_unknown_remove_are_rejected() {
        let mut ring = Ring::new(8);
        assert!(ring.add_replica("r1"));
        assert!(!ring.add_replica("r1"));
        assert_eq!(ring.len(), 1);
        assert!(!ring.remove_replica("nope"));
        assert!(ring.remove_replica("r1"));
        assert!(ring.is_empty());
        assert!(ring.candidates("a").is_empty());
    }

    #[test]
    fn remove_keeps_other_replicas_points_intact() {
        let mut ring = Ring::with_replicas(16, ["r1", "r2", "r3"]);
        let before: Vec<String> = (0..100)
            .filter_map(|i| {
                let name = format!("engine-{i}");
                let owner = ring.owner(&name)?;
                (owner != "r2").then(|| format!("{name}:{owner}"))
            })
            .collect();
        ring.remove_replica("r2");
        // Every name that was NOT on r2 keeps its owner — the minimal
        // disruption property at the unit scale (the property test in
        // tests/federation_placement.rs measures the bound over 8k
        // names).
        for pair in &before {
            let (name, owner) = pair.split_once(':').unwrap();
            assert_eq!(ring.owner(name), Some(owner), "{name} moved");
        }
    }
}
