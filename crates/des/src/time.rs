//! Virtual time: nanosecond ticks on a u64 (585 simulated years — ample).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// The end of virtual time — useful as an "unbounded" horizon for
    /// [`crate::EventQueue::drain_until`].
    pub const MAX: SimTime = SimTime(u64::MAX);

    pub fn nanos(self) -> u64 {
        self.0
    }

    /// `self + d`, clamped at [`SimTime::MAX`] instead of overflowing.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn max_of(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_nanos(n: u64) -> SimDuration {
        SimDuration(n)
    }

    pub fn from_micros(n: u64) -> SimDuration {
        SimDuration(n * 1_000)
    }

    /// Kept for tests: input language.
    pub fn from_millis(n: u64) -> SimDuration {
        SimDuration(n * 1_000_000)
    }

    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite duration");
        SimDuration((s * 1e9).round() as u64)
    }

    pub fn nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl From<Duration> for SimDuration {
    fn from(d: Duration) -> Self {
        SimDuration(d.as_nanos().min(u64::MAX as u128) as u64)
    }
}

impl From<SimDuration> for Duration {
    fn from(d: SimDuration) -> Self {
        Duration::from_nanos(d.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

fn fmt_nanos(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{}ns", ns)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(t.nanos(), 5_000);
        let t2 = t + SimDuration::from_nanos(10);
        assert_eq!(t2 - t, SimDuration(10));
        let mut t3 = t2;
        t3 += SimDuration::from_millis(1);
        assert_eq!(t3.nanos(), 1_005_010);
    }

    #[test]
    fn duration_roundtrip_with_std() {
        let d = Duration::from_micros(123);
        let s: SimDuration = d.into();
        assert_eq!(s.nanos(), 123_000);
        let back: Duration = s.into();
        assert_eq!(back, d);
    }

    #[test]
    fn secs_f64_conversion() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.nanos(), 1_500_000_000);
        assert_eq!(d.as_secs_f64(), 1.5);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(5.0)), "5.000s");
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
