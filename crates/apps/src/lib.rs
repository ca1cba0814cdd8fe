//! # pvr-apps — the evaluation applications
//!
//! Three programs exercising the privatization runtime, matching the
//! paper's workloads:
//!
//! * [`hello`] — the Fig. 2/3 "unsafe MPI hello world": a mutable global
//!   holding the rank number, demonstrating the virtualization bug
//!   unprivatized and its absence under every privatization method.
//! * [`jacobi3d`] — a 3-D Jacobi solver (~100 source lines in the paper,
//!   ~3 MB code segment) whose *innermost-loop scalars are privatized
//!   globals*, used for the per-access overhead experiment (Fig. 7) and
//!   as the small-binary subject of the migration and i-cache studies.
//! * [`surge`] — an ADCIRC-like storm-surge proxy (ADCIRC: ~50 kLoC
//!   Fortran, ~14 MB code segment): 2-D shallow-water flooding with
//!   wetting/drying, so the computational load follows the flood front —
//!   the dynamic imbalance that makes AMPI's load balancing pay off in
//!   Fig. 9 / Table 2.
//!
//! All three declare their mutable program state as [`pvr_progimage`]
//! globals and access it through the active privatization method, exactly
//! as the paper's subjects do through their compiled PIE binaries.

pub mod hello;
pub mod jacobi3d;
pub mod surge;
