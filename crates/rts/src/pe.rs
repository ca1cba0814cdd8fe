//! Per-PE scheduler state.

use crate::RankId;
use pvr_des::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One processing element: a scheduler with its own virtual clock and
/// ready queue of resident ranks.
#[derive(Debug, Default)]
pub struct PeState {
    /// Virtual clock (virtual mode only; stays 0 in real time).
    pub clock: SimTime,
    /// Ranks ready to run, FIFO (message-driven cooperative scheduling).
    pub ready: VecDeque<RankId>,
    /// Time this PE spent with nothing to run (virtual mode) — one of the
    /// metrics the runtime monitors for LB decisions.
    pub idle: SimDuration,
    /// Busy virtual time.
    pub busy: SimDuration,
}

impl PeState {
    /// Advance the clock to `t`, accounting the gap as idle time.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.clock {
            self.idle += t - self.clock;
            self.clock = t;
        }
    }

    /// Advance the clock by busy work.
    pub fn work(&mut self, d: SimDuration) {
        self.clock += d;
        self.busy += d;
    }

    /// Utilization in [0, 1] of elapsed virtual time.
    pub fn utilization(&self) -> f64 {
        let total = self.busy + self.idle;
        if total.nanos() == 0 {
            return 0.0;
        }
        self.busy.as_secs_f64() / total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_accounting() {
        let mut pe = PeState::default();
        pe.work(SimDuration::from_micros(10));
        assert_eq!(pe.clock, SimTime(10_000));
        pe.advance_to(SimTime(15_000));
        assert_eq!(pe.idle, SimDuration(5_000));
        // moving backwards is a no-op
        pe.advance_to(SimTime(12_000));
        assert_eq!(pe.clock, SimTime(15_000));
        assert!((pe.utilization() - 10.0 / 15.0).abs() < 1e-9);
    }
}
