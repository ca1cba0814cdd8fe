//! Dynamic load balancing strategies.
//!
//! The runtime measures per-rank load between sync points (`AtSync` —
//! AMPI's `MPI_Migrate`), hands the measurements to a [`LoadBalancer`],
//! and migrates ranks to realize the returned placement. The key AMPI
//! property is preserved: rebalancing logic is entirely separate from
//! application logic — ranks never know where they run.
//!
//! Strategies mirror Charm++'s stock balancers. The ADCIRC experiment
//! (§4.6) uses **GreedyRefineLB**: greedy quality with far fewer
//! migrations, which matters under PIEglobals where each migration also
//! ships the rank's code-segment copy.

use crate::{PeId, RankId};

/// Measured input to one LB step.
#[derive(Debug, Clone)]
pub struct LbStats {
    /// Per-rank load (seconds of work since the last LB step).
    pub loads: Vec<f64>,
    /// Current rank → PE placement.
    pub placement: Vec<PeId>,
    pub n_pes: usize,
    /// Per-rank migration cost in bytes (heap+stack+segments) — exposed
    /// to strategies that weigh movement cost.
    pub migration_bytes: Vec<usize>,
    /// Communication graph since the last LB step: bytes exchanged per
    /// ordered (from, to) rank pair. One of the metrics the paper says
    /// the runtime monitors for rebalancing decisions (§2.1).
    pub comm_bytes: Vec<(RankId, RankId, u64)>,
}

impl LbStats {
    /// Per-PE total load under `placement`.
    ///
    /// Defensive against malformed input from a buggy strategy: entries
    /// addressing a PE outside `0..n_pes` and placements longer than the
    /// load vector contribute nothing instead of panicking — LB is
    /// advisory, and the runtime must not crash on a bad placement it is
    /// only *evaluating*.
    pub fn pe_loads(&self, placement: &[PeId]) -> Vec<f64> {
        let mut v = vec![0.0; self.n_pes];
        for (&pe, &load) in placement.iter().zip(&self.loads) {
            if let Some(slot) = v.get_mut(pe) {
                *slot += load;
            }
        }
        v
    }

    pub fn makespan(&self, placement: &[PeId]) -> f64 {
        self.pe_loads(placement)
            .into_iter()
            .fold(0.0, f64::max)
    }

    /// Lower bound on any placement's makespan.
    /// Kept for tests: oracle of every balancer's makespan.
    pub fn lower_bound(&self) -> f64 {
        let max = self.loads.iter().copied().fold(0.0, f64::max);
        if self.n_pes == 0 {
            // degenerate: no PEs to spread over — avoid the 0/0 NaN
            return max;
        }
        let total: f64 = self.loads.iter().sum();
        (total / self.n_pes as f64).max(max)
    }

    /// How many ranks `new` moves relative to the current placement.
    pub fn migration_count(&self, new: &[PeId]) -> usize {
        self.placement
            .iter()
            .zip(new)
            .filter(|(a, b)| a != b)
            .count()
    }
}

/// A load balancing strategy: maps measured stats to a new placement.
pub trait LoadBalancer: Send {
    fn name(&self) -> &'static str;
    fn rebalance(&self, stats: &LbStats) -> Vec<PeId>;
}

/// No-op balancer (the "without load balancing" baseline).
pub struct NullLb;

impl LoadBalancer for NullLb {
    fn name(&self) -> &'static str {
        "NullLB"
    }
    fn rebalance(&self, stats: &LbStats) -> Vec<PeId> {
        stats.placement.clone()
    }
}

/// GreedyLB: longest-processing-time-first onto the least-loaded PE.
/// Best balance, but reassigns nearly everything (many migrations).
pub struct GreedyLb;

fn greedy_assign(stats: &LbStats) -> Vec<PeId> {
    let mut order: Vec<RankId> = (0..stats.loads.len()).collect();
    order.sort_by(|&a, &b| stats.loads[b].total_cmp(&stats.loads[a]).then(a.cmp(&b)));
    debug_assert!(stats.n_pes > 0, "no PE to place ranks on");
    let mut pe_load = vec![0.0f64; stats.n_pes];
    let mut placement = vec![0; stats.loads.len()];
    for r in order {
        let Some((pe, _)) = pe_load.iter().enumerate().min_by(|(_, a), (_, b)| a.total_cmp(b))
        else {
            break;
        };
        placement[r] = pe;
        pe_load[pe] += stats.loads[r];
    }
    placement
}

impl LoadBalancer for GreedyLb {
    fn name(&self) -> &'static str {
        "GreedyLB"
    }
    fn rebalance(&self, stats: &LbStats) -> Vec<PeId> {
        greedy_assign(stats)
    }
}

/// GreedyRefineLB (the paper's choice for ADCIRC): compute the greedy
/// placement for its balance quality, then revert moves that barely
/// matter, drastically cutting migration volume.
pub struct GreedyRefineLb {
    pub tolerance: f64,
}

impl Default for GreedyRefineLb {
    fn default() -> Self {
        GreedyRefineLb { tolerance: 0.05 }
    }
}

impl LoadBalancer for GreedyRefineLb {
    fn name(&self) -> &'static str {
        "GreedyRefineLB"
    }
    fn rebalance(&self, stats: &LbStats) -> Vec<PeId> {
        let greedy = greedy_assign(stats);
        let target = stats.makespan(&greedy) * (1.0 + self.tolerance);
        let mut placement = greedy;
        let mut pe_load = stats.pe_loads(&placement);
        // Revert moves (heaviest movers last — revert cheap ones first)
        let mut movers: Vec<RankId> = (0..placement.len())
            .filter(|&r| placement[r] != stats.placement[r])
            .collect();
        movers.sort_by(|&a, &b| stats.loads[a].total_cmp(&stats.loads[b]));
        for r in movers {
            let old_pe = stats.placement[r];
            let new_pe = placement[r];
            if pe_load[old_pe] + stats.loads[r] <= target {
                // put it back home — balance stays within tolerance
                pe_load[new_pe] -= stats.loads[r];
                pe_load[old_pe] += stats.loads[r];
                placement[r] = old_pe;
            }
        }
        placement
    }
}

/// RotateLB: shift every rank to the next PE (testing/migration stress).
pub struct RotateLb;

impl LoadBalancer for RotateLb {
    fn name(&self) -> &'static str {
        "RotateLB"
    }
    fn rebalance(&self, stats: &LbStats) -> Vec<PeId> {
        stats
            .placement
            .iter()
            .map(|&pe| (pe + 1) % stats.n_pes)
            .collect()
    }
}

/// CommLB: communication-aware greedy placement. Ranks are placed
/// heaviest-first like GreedyLB, but each candidate PE's score blends
/// its load with the bytes the rank exchanges with ranks already placed
/// there — co-locating chatty ranks to convert network traffic into
/// intra-process messaging (what AMPI's SMP optimizations reward).
pub struct CommLb {
    /// Seconds of PE load one byte of co-located traffic is worth.
    /// Larger = stronger clustering.
    pub secs_per_byte: f64,
}

impl Default for CommLb {
    fn default() -> Self {
        CommLb {
            secs_per_byte: 1e-9,
        }
    }
}

impl LoadBalancer for CommLb {
    fn name(&self) -> &'static str {
        "CommLB"
    }
    fn rebalance(&self, stats: &LbStats) -> Vec<PeId> {
        let n = stats.loads.len();
        // symmetric per-pair traffic
        let mut traffic: std::collections::HashMap<(RankId, RankId), f64> =
            std::collections::HashMap::new();
        for &(a, b, bytes) in &stats.comm_bytes {
            let key = (a.min(b), a.max(b));
            *traffic.entry(key).or_default() += bytes as f64;
        }
        let mut order: Vec<RankId> = (0..n).collect();
        order.sort_by(|&a, &b| stats.loads[b].total_cmp(&stats.loads[a]).then(a.cmp(&b)));
        let mut pe_load = vec![0.0f64; stats.n_pes];
        let mut placed: Vec<Option<PeId>> = vec![None; n];
        let avg = stats.loads.iter().sum::<f64>() / stats.n_pes as f64;
        for r in order {
            // affinity to each PE = co-located traffic with already-placed
            // partners
            let mut best_pe = 0;
            let mut best_score = f64::INFINITY;
            for (pe, &load_on_pe) in pe_load.iter().enumerate() {
                // refuse to overload a PE for the sake of affinity
                if load_on_pe + stats.loads[r] > avg * 1.5 && load_on_pe > 0.0 {
                    continue;
                }
                let mut affinity = 0.0;
                for (other, &opt) in placed.iter().enumerate() {
                    if opt == Some(pe) {
                        let key = (r.min(other), r.max(other));
                        affinity += traffic.get(&key).copied().unwrap_or(0.0);
                    }
                }
                let score = load_on_pe - affinity * self.secs_per_byte;
                if score < best_score {
                    best_score = score;
                    best_pe = pe;
                }
            }
            placed[r] = Some(best_pe);
            pe_load[best_pe] += stats.loads[r];
        }
        placed.into_iter().flatten().collect()
    }
}

/// RandomLB: seeded uniform placement (testing).
pub struct RandomLb {
    pub seed: u64,
}

impl LoadBalancer for RandomLb {
    fn name(&self) -> &'static str {
        "RandomLB"
    }
    fn rebalance(&self, stats: &LbStats) -> Vec<PeId> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        (0..stats.loads.len())
            .map(|_| rng.gen_range(0..stats.n_pes))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stats(loads: Vec<f64>, n_pes: usize) -> LbStats {
        let n = loads.len();
        let ratio = n.div_ceil(n_pes);
        LbStats {
            placement: (0..n).map(|r| (r / ratio).min(n_pes - 1)).collect(),
            migration_bytes: vec![1 << 20; n],
            comm_bytes: Vec::new(),
            loads,
            n_pes,
        }
    }

    #[test]
    fn greedy_balances_skewed_load() {
        // all load initially on PE 0's ranks
        let s = stats(vec![4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0], 2);
        assert_eq!(s.makespan(&s.placement), 10.0);
        let new = GreedyLb.rebalance(&s);
        assert_eq!(s.makespan(&new), 5.0); // 4+1 / 3+2 split
    }

    #[test]
    fn greedy_refine_matches_greedy_quality_with_fewer_moves() {
        let s = stats(
            vec![8.0, 7.0, 1.0, 1.0, 1.0, 1.0, 6.0, 5.0, 1.0, 1.0, 1.0, 1.0],
            4,
        );
        let greedy = GreedyLb.rebalance(&s);
        let gr = GreedyRefineLb::default().rebalance(&s);
        assert!(s.makespan(&gr) <= s.makespan(&greedy) * 1.05 + 1e-9);
        assert!(
            s.migration_count(&gr) <= s.migration_count(&greedy),
            "refinement must not move more than greedy"
        );
    }

    #[test]
    fn rotate_shifts_everything() {
        let s = stats(vec![1.0; 6], 3);
        let new = RotateLb.rebalance(&s);
        for (r, &pe) in new.iter().enumerate() {
            assert_eq!(pe, (s.placement[r] + 1) % 3);
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let s = stats(vec![1.0; 16], 4);
        let a = RandomLb { seed: 7 }.rebalance(&s);
        let b = RandomLb { seed: 7 }.rebalance(&s);
        let c = RandomLb { seed: 8 }.rebalance(&s);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn comm_lb_clusters_chatty_ranks() {
        // 4 equal-load ranks on 2 PEs; ranks (0,3) and (1,2) exchange
        // heavily. CommLB should co-locate each pair.
        let mut s = stats(vec![1.0; 4], 2);
        s.comm_bytes = vec![(0, 3, 50 << 20), (1, 2, 50 << 20)];
        let lb = CommLb::default();
        let new = lb.rebalance(&s);
        assert_eq!(new[0], new[3], "chatty pair (0,3) co-located: {new:?}");
        assert_eq!(new[1], new[2], "chatty pair (1,2) co-located: {new:?}");
        assert_ne!(new[0], new[1], "load still balanced: {new:?}");
    }

    #[test]
    fn comm_lb_does_not_sacrifice_balance() {
        // one huge rank chats with everyone — affinity must not pile all
        // load onto one PE
        let mut s = stats(vec![10.0, 10.0, 10.0, 10.0], 2);
        s.comm_bytes = (1..4).map(|r| (0, r, 100 << 20)).collect();
        let new = CommLb::default().rebalance(&s);
        let makespan = s.makespan(&new);
        assert!(
            makespan <= 30.0,
            "affinity must not destroy balance: {new:?} makespan {makespan}"
        );
    }

    #[test]
    fn strategies_break_ties_as_pinned() {
        // Tied loads on every side: GreedyLB's order, GreedyRefineLB's
        // revert order and CommLB's affinity all meet equal values. The
        // literals are the placements each strategy has always returned
        // here.
        let mut s = stats(vec![2.0, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 0.5, 1.0], 3);
        s.comm_bytes = vec![(0, 4, 1 << 20), (1, 7, 4 << 20), (2, 8, 2 << 20)];
        let got: Vec<Vec<PeId>> = vec![
            GreedyLb.rebalance(&s),
            GreedyRefineLb::default().rebalance(&s),
            CommLb::default().rebalance(&s),
        ];
        let want: Vec<Vec<PeId>> = vec![
            vec![1, 2, 2, 0, 0, 2, 1, 1, 0],
            vec![1, 2, 2, 1, 0, 2, 1, 2, 0],
            vec![1, 2, 2, 0, 0, 2, 1, 0, 2],
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn null_lb_is_identity() {
        let s = stats(vec![3.0, 1.0], 2);
        assert_eq!(NullLb.rebalance(&s), s.placement);
    }

    #[test]
    fn pe_loads_tolerates_malformed_placements() {
        let s = stats(vec![2.0, 3.0, 5.0], 2);
        // a PE index out of range must not panic; in-range entries
        // still accumulate
        let v = s.pe_loads(&[0, 9, 1]);
        assert_eq!(v, vec![2.0, 5.0]);
        // placement longer than the load vector: extra entries ignored
        let v = s.pe_loads(&[0, 1, 1, 0, 1]);
        assert_eq!(v, vec![2.0, 8.0]);
        // shorter placement: unplaced ranks contribute nothing
        let v = s.pe_loads(&[1]);
        assert_eq!(v, vec![0.0, 2.0]);
        // empty everything stays finite and sane
        let empty = LbStats {
            loads: vec![],
            placement: vec![],
            n_pes: 0,
            migration_bytes: vec![],
            comm_bytes: vec![],
        };
        assert!(empty.pe_loads(&[]).is_empty());
        assert_eq!(empty.makespan(&[]), 0.0);
    }

    #[test]
    fn lower_bound_defined_for_degenerate_stats() {
        // zero PEs: no division by zero / NaN
        let s = LbStats {
            loads: vec![4.0, 1.0],
            placement: vec![],
            n_pes: 0,
            migration_bytes: vec![],
            comm_bytes: vec![],
        };
        assert!(s.lower_bound().is_finite());
        assert_eq!(s.lower_bound(), 4.0);
        // no ranks: bound is zero
        let s = stats(vec![], 3);
        assert_eq!(s.lower_bound(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_all_strategies_produce_valid_placements(
            loads in proptest::collection::vec(0.0f64..100.0, 1..64),
            n_pes in 1usize..16,
        ) {
            let s = stats(loads, n_pes);
            let strategies: Vec<Box<dyn LoadBalancer>> = vec![
                Box::new(NullLb),
                Box::new(GreedyLb),
                Box::new(GreedyRefineLb::default()),
                Box::new(RotateLb),
                Box::new(RandomLb { seed: 1 }),
                Box::new(CommLb::default()),
            ];
            for lb in strategies {
                let new = lb.rebalance(&s);
                prop_assert_eq!(new.len(), s.loads.len(), "{} lost ranks", lb.name());
                for &pe in &new {
                    prop_assert!(pe < n_pes, "{} placed out of range", lb.name());
                }
            }
        }

        #[test]
        fn prop_greedy_within_list_scheduling_bound(
            loads in proptest::collection::vec(0.01f64..100.0, 1..64),
            n_pes in 1usize..16,
        ) {
            let s = stats(loads, n_pes);
            let new = GreedyLb.rebalance(&s);
            // list scheduling: makespan <= avg + max <= 2 * lower bound
            prop_assert!(s.makespan(&new) <= 2.0 * s.lower_bound() + 1e-9);
        }
    }
}
