//! Rank → PE directory.
//!
//! Charm++ performs *distributed* location management with forwarding and
//! caching so that no node needs a global view; messages sent to a
//! migrated rank chase at most a short forwarding chain. In this
//! single-address-space reproduction the directory is centralized, but it
//! keeps the same interface: a sender's lookup may be stale, and `update`
//! is the migration commit point. A message that reaches a rank's old PE
//! is charged one more network hop to its current one (the lane's
//! `Deliver` handler).

use crate::{PeId, RankId};

#[derive(Debug)]
pub struct LocationManager {
    home: Vec<PeId>,
}

impl LocationManager {
    /// Initial block mapping of `n_ranks` onto PEs, `ratio` per PE.
    pub fn new_block(n_ranks: usize, n_pes: usize) -> LocationManager {
        assert!(n_ranks > 0 && n_pes > 0);
        let ratio = n_ranks.div_ceil(n_pes);
        LocationManager {
            home: (0..n_ranks).map(|r| (r / ratio).min(n_pes - 1)).collect(),
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.home.len()
    }

    pub fn lookup(&self, rank: RankId) -> PeId {
        self.home[rank]
    }

    /// Commit a migration.
    pub fn update(&mut self, rank: RankId, to: PeId) {
        self.home[rank] = to;
    }

    /// Ranks resident on `pe` (the PIEglobals reduction-operator
    /// requirement: a PE applying a user op must host at least one rank).
    pub fn residents(&self, pe: PeId) -> impl Iterator<Item = RankId> + '_ {
        self.home
            .iter()
            .enumerate()
            .filter(move |(_, &p)| p == pe)
            .map(|(r, _)| r)
    }

    pub fn resident_count(&self, pe: PeId) -> usize {
        self.home.iter().filter(|&&p| p == pe).count()
    }

    /// Current rank → PE assignment snapshot.
    pub fn placements(&self) -> Vec<PeId> {
        self.home.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping() {
        let lm = LocationManager::new_block(8, 2);
        assert_eq!(lm.lookup(0), 0);
        assert_eq!(lm.lookup(3), 0);
        assert_eq!(lm.lookup(4), 1);
        assert_eq!(lm.lookup(7), 1);
        assert_eq!(lm.resident_count(0), 4);
    }

    #[test]
    fn uneven_mapping_covers_all_pes_range() {
        let lm = LocationManager::new_block(7, 3); // ratio 3: 3,3,1
        assert_eq!(lm.lookup(6), 2);
        let counts: Vec<usize> = (0..3).map(|p| lm.resident_count(p)).collect();
        assert_eq!(counts.iter().sum::<usize>(), 7);
    }

    #[test]
    fn update_tracks_migrations() {
        let mut lm = LocationManager::new_block(4, 2);
        lm.update(0, 1);
        assert_eq!(lm.lookup(0), 1);
        lm.update(0, 1); // no-op
        assert_eq!(lm.lookup(0), 1);
        assert_eq!(lm.resident_count(1), 3);
        assert_eq!(lm.residents(0).collect::<Vec<_>>(), vec![1]);
    }
}
