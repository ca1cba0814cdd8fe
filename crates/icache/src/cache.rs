//! Set-associative cache with true-LRU replacement.

use crate::counters::Counters;

/// Replacement policy. Real L1I caches are rarely true-LRU (Zen 2 and
/// Ice Lake use tree-PLRU-like schemes); the choice shifts the
/// shared-vs-duplicated comparison, which is part of why PAPI counters
/// disagree across machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Round-robin (FIFO) victim selection per set.
    RoundRobin,
}

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// AMD EPYC 7742 (Zen 2) L1I: 32 KiB, 8-way, 64 B lines — the
    /// paper's Bridges-2 nodes.
    pub fn epyc_l1i() -> CacheConfig {
        CacheConfig {
            size: 32 * 1024,
            line: 64,
            assoc: 8,
        }
    }

    pub fn n_sets(&self) -> usize {
        self.size / self.line / self.assoc
    }
}

struct Set {
    /// (tag, last-use tick) per way; empty ways hold None.
    ways: Vec<Option<(u64, u64)>>,
    /// Round-robin cursor (RoundRobin policy).
    cursor: usize,
}

/// A simulated cache.
pub struct Cache {
    config: CacheConfig,
    replacement: Replacement,
    sets: Vec<Set>,
    tick: u64,
    counters: Counters,
}

impl Cache {
    pub fn new(config: CacheConfig) -> Cache {
        Cache::with_replacement(config, Replacement::Lru)
    }

    pub fn with_replacement(config: CacheConfig, replacement: Replacement) -> Cache {
        assert!(config.line.is_power_of_two(), "line size power of two");
        let n_sets = config.n_sets();
        assert!(n_sets > 0 && n_sets.is_power_of_two(), "sets power of two");
        Cache {
            config,
            replacement,
            sets: (0..n_sets)
                .map(|_| Set {
                    ways: vec![None; config.assoc],
                    cursor: 0,
                })
                .collect(),
            tick: 0,
            counters: Counters::default(),
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Fetch one address; returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        self.counters.accesses += 1;
        let line_addr = addr / self.config.line as u64;
        let set_idx = (line_addr as usize) & (self.sets.len() - 1);
        let tag = line_addr / self.sets.len() as u64;
        let set = &mut self.sets[set_idx];

        for (t, used) in set.ways.iter_mut().flatten() {
            if *t == tag {
                *used = self.tick;
                return true;
            }
        }
        self.counters.misses += 1;
        // fill: an empty way if any, else a policy-chosen victim
        let victim = if let Some(empty) = set.ways.iter().position(|w| w.is_none()) {
            empty
        } else {
            self.counters.evictions += 1;
            match self.replacement {
                Replacement::Lru => set
                    .ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.map_or(0, |(_, used)| used))
                    .map(|(i, _)| i)
                    .unwrap(),
                Replacement::RoundRobin => {
                    let v = set.cursor;
                    set.cursor = (set.cursor + 1) % set.ways.len();
                    v
                }
            }
        };
        set.ways[victim] = Some((tag, self.tick));
        false
    }

    pub fn counters(&self) -> Counters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CacheConfig {
        /// A deliberately small cache: 8 sets, 2-way.
        pub(super) fn tiny() -> CacheConfig {
            CacheConfig {
                size: 1024,
                line: 64,
                assoc: 2,
            }
        }
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheConfig::tiny());
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004), "same line");
        assert!(!c.access(0x1040), "next line misses");
        let k = c.counters();
        assert_eq!(k.accesses, 4);
        assert_eq!(k.misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // tiny: 1024/64/2 = 8 sets, 2-way. Three lines mapping to set 0:
        // line numbers 0, 8, 16 (stride 8 lines = 512B).
        let mut c = Cache::new(CacheConfig::tiny());
        c.access(0); // A miss
        c.access(512); // B miss
        assert!(c.access(0)); // A hit (B is now LRU)
        c.access(1024); // C miss, evicts B
        assert!(c.access(0), "A must survive");
        assert!(!c.access(512), "B was evicted");
    }

    #[test]
    fn working_set_within_cache_has_no_capacity_misses() {
        let cfg = CacheConfig::epyc_l1i();
        let mut c = Cache::new(cfg);
        let lines = cfg.size / cfg.line;
        // touch every line twice
        for round in 0..2 {
            for i in 0..lines {
                let hit = c.access((i * cfg.line) as u64);
                if round == 1 {
                    assert!(hit, "second pass must hit (line {i})");
                }
            }
        }
        assert_eq!(c.counters().misses as usize, lines);
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::epyc_l1i().n_sets(), 64);
    }
}

#[cfg(test)]
mod replacement_tests {
    use super::*;

    #[test]
    fn round_robin_cycles_victims() {
        // tiny: 8 sets, 2-way; set 0 lines: 0, 512, 1024 bytes
        let mut c = Cache::with_replacement(CacheConfig::tiny(), Replacement::RoundRobin);
        c.access(0); // way 0
        c.access(512); // way 1
        assert!(c.access(0), "both resident");
        c.access(1024); // evicts way 0 (cursor) = line 0
        assert!(!c.access(0), "round-robin evicted the oldest slot");
        // unlike LRU, the recent touch of line 0 did not protect it
    }

    #[test]
    fn lru_and_rr_diverge_on_looping_pattern() {
        // classic: loop over assoc+1 lines of one set — LRU thrashes
        // (0% hits after warmup), round-robin also thrashes; but a
        // re-reference pattern distinguishes them
        let cfg = CacheConfig::tiny(); // 2-way
        let seq = [0u64, 512, 0, 1024, 0, 512, 0, 1024];
        let run = |r: Replacement| {
            let mut c = Cache::with_replacement(cfg, r);
            for &a in &seq {
                c.access(a);
            }
            c.counters().misses
        };
        let lru = run(Replacement::Lru);
        let rr = run(Replacement::RoundRobin);
        assert!(
            lru != rr,
            "policies should diverge on this pattern: lru={lru} rr={rr}"
        );
        assert!(lru < rr, "LRU protects the hot line 0: lru={lru} rr={rr}");
    }
}
