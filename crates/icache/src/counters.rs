//! PAPI-style hardware counters (the subset the experiment reads).

/// Counter block, after PAPI's `PAPI_L1_ICM` / access counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub accesses: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl Counters {
    pub fn hits(&self) -> u64 {
        self.accesses - self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let c = Counters {
            accesses: 100,
            misses: 25,
            evictions: 10,
        };
        assert_eq!(c.hits(), 75);
    }
}
