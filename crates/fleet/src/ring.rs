//! Deterministic rendezvous (highest-random-weight) hashing over a
//! shard list.
//!
//! Each `(key, shard)` pair gets a pseudo-random weight from the
//! in-tree [`XorShift64`] generator, seeded by mixing the ring seed, the
//! key's hash, and the shard address's FNV-1a hash. Sorting a key's
//! weights descending yields its *preference order*: the first live
//! shard in that order owns the key, and failover walks down the same
//! list — so losing a shard only remaps the keys that shard owned
//! (HRW's minimal-disruption property), and every client that shares
//! the shard list and seed computes identical routes with no
//! coordination.

use cbrain::persist::fnv1a64;
use cbrain_model::rng::XorShift64;

/// A consistent-hash ring over `cbrand` shard addresses.
///
/// # Examples
///
/// ```
/// use cbrain_fleet::Ring;
///
/// let ring = Ring::new(vec!["a:1".into(), "b:2".into(), "c:3".into()], 0);
/// let prefs = ring.preference(0xdead_beef);
/// assert_eq!(prefs.len(), 3);
/// assert_eq!(ring.owner(0xdead_beef), prefs[0]);
/// ```
#[derive(Debug, Clone)]
pub struct Ring {
    shards: Vec<String>,
    /// Per-shard address hashes, precomputed once.
    shard_hashes: Vec<u64>,
    seed: u64,
}

impl Ring {
    /// Builds a ring over `shards` (addresses, order preserved) with a
    /// routing seed. Peers must agree on both to route identically.
    ///
    /// # Panics
    ///
    /// Panics on an empty shard list — a fleet needs at least one node.
    pub fn new(shards: Vec<String>, seed: u64) -> Self {
        assert!(!shards.is_empty(), "a ring needs at least one shard");
        let shard_hashes = shards.iter().map(|s| fnv1a64(s.as_bytes())).collect();
        Self {
            shards,
            shard_hashes,
            seed,
        }
    }

    /// The shard addresses, in construction order (the indices returned
    /// by [`Ring::preference`] and [`Ring::owner`] point into this).
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring is empty (never true: construction requires a
    /// non-empty list).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The rendezvous weight of `(key_hash, shard)`.
    fn weight(&self, key_hash: u64, shard: usize) -> u64 {
        XorShift64::seed_from_u64(self.seed ^ key_hash ^ self.shard_hashes[shard]).next_u64()
    }

    /// Shard indices in descending-weight order for a key: element 0 is
    /// the owner, the rest is the failover order. Ties (vanishingly
    /// rare) break toward the lower index, so the order is total.
    pub fn preference(&self, key_hash: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        order.sort_by(|&a, &b| {
            self.weight(key_hash, b)
                .cmp(&self.weight(key_hash, a))
                .then(a.cmp(&b))
        });
        order
    }

    /// The index of the shard that owns a key when every shard is live.
    pub fn owner(&self, key_hash: u64) -> usize {
        (0..self.shards.len())
            .max_by(|&a, &b| {
                self.weight(key_hash, a)
                    .cmp(&self.weight(key_hash, b))
                    .then(b.cmp(&a))
            })
            .expect("ring is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring3(seed: u64) -> Ring {
        Ring::new(
            vec![
                "127.0.0.1:4001".into(),
                "127.0.0.1:4002".into(),
                "127.0.0.1:4003".into(),
            ],
            seed,
        )
    }

    #[test]
    fn routing_is_deterministic_across_instances() {
        let a = ring3(7);
        let b = ring3(7);
        for key in 0..500u64 {
            let hash = fnv1a64(&key.to_le_bytes());
            assert_eq!(a.preference(hash), b.preference(hash));
            assert_eq!(a.owner(hash), b.owner(hash));
        }
    }

    #[test]
    fn owner_is_preference_head_and_orders_are_permutations() {
        let ring = ring3(42);
        for key in 0..200u64 {
            let hash = fnv1a64(&key.to_le_bytes());
            let prefs = ring.preference(hash);
            assert_eq!(prefs.len(), 3);
            let mut sorted = prefs.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            assert_eq!(ring.owner(hash), prefs[0]);
        }
    }

    #[test]
    fn keys_spread_over_every_shard() {
        let ring = ring3(0);
        let mut counts = [0usize; 3];
        for key in 0..3000u64 {
            counts[ring.owner(fnv1a64(&key.to_le_bytes()))] += 1;
        }
        for (i, count) in counts.iter().enumerate() {
            // Perfectly uniform would be 1000 each; demand a loose band.
            assert!((600..=1400).contains(count), "shard {i}: {count}");
        }
    }

    #[test]
    fn seed_changes_the_layout() {
        let a = ring3(1);
        let b = ring3(2);
        let moved = (0..500u64)
            .filter(|key| {
                let hash = fnv1a64(&key.to_le_bytes());
                a.owner(hash) != b.owner(hash)
            })
            .count();
        assert!(moved > 100, "only {moved} keys moved between seeds");
    }

    #[test]
    fn removing_a_shard_only_remaps_its_own_keys() {
        // The HRW property the failover path relies on: for keys NOT
        // owned by the dead shard, the surviving preference order is
        // unchanged, so routing around a death never moves other keys.
        let full = ring3(9);
        let survivors = Ring::new(vec!["127.0.0.1:4001".into(), "127.0.0.1:4003".into()], 9);
        for key in 0..500u64 {
            let hash = fnv1a64(&key.to_le_bytes());
            let full_first_alive = *full
                .preference(hash)
                .iter()
                .find(|&&i| i != 1)
                .expect("two survivors remain");
            let survivor_owner = survivors.owner(hash);
            let survivor_addr = &survivors.shards()[survivor_owner];
            assert_eq!(&full.shards()[full_first_alive], survivor_addr);
        }
    }
}
