//! Seeded faults for the live-extent differential test
//! (`rank_memory::extent_tests`). In this crate's test build
//! `mutant!(Name)` reads a thread-local switch that the test flips around
//! one run of the differential; in every other build it is the constant
//! `false`, and the mutated branch compiles away.

#[cfg(test)]
macro_rules! mutant {
    ($m:ident) => {
        $crate::mutant::active($crate::mutant::Mutant::$m)
    };
}

#[cfg(not(test))]
macro_rules! mutant {
    ($m:ident) => {
        false
    };
}

/// One deliberate defect in how live extents are kept or used. Each must
/// make the differential fail.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mutant {
    /// The stored range starts one grid cell late.
    ExtentShortLo,
    /// The stored range ends one grid cell early.
    ExtentShortHi,
    /// A stack's extent starts at `sp`, not 128 bytes below it.
    RedZoneDropped,
    /// `unpack` leaves live bytes outside the stored range as they are.
    ZeroFillSkipped,
    /// An allocation that needed no alignment padding does not raise its
    /// chunk's high-water mark.
    AlignedAllocNotRaised,
    /// A diff chunk straddling the base's stored range (a page size off
    /// the 4 KiB grid) is taken as unchanged.
    StraddleTakenAsEqual,
}

#[cfg(test)]
pub(crate) const ALL: [Mutant; 6] = [
    Mutant::ExtentShortLo,
    Mutant::ExtentShortHi,
    Mutant::RedZoneDropped,
    Mutant::ZeroFillSkipped,
    Mutant::AlignedAllocNotRaised,
    Mutant::StraddleTakenAsEqual,
];

#[cfg(test)]
thread_local! {
    static ACTIVE: std::cell::Cell<Option<Mutant>> = const { std::cell::Cell::new(None) };
}

#[cfg(test)]
pub(crate) fn active(m: Mutant) -> bool {
    ACTIVE.with(|a| a.get() == Some(m))
}

/// Run `f` with `m` switched on (off again even if `f` panics).
#[cfg(test)]
pub(crate) fn with<T>(m: Mutant, f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(None));
        }
    }
    let _reset = Reset;
    ACTIVE.with(|a| a.set(Some(m)));
    f()
}
