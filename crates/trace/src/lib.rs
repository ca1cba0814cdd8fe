//! # pvr-trace — low-overhead runtime event tracing
//!
//! A Projections-inspired per-PE event recorder for the `pvr` runtime:
//! the scheduler (and the AMPI/privatization/Isomalloc layers beneath
//! it) emit fixed-size events — context switches, rank block/unblock,
//! message send/receive with byte counts, migrations, LB steps,
//! privatizer segment copies and GOT fixups — into fixed-capacity ring
//! buffers, one per PE.
//!
//! Priorities, in order:
//!
//! 1. **Off means off.** Without a tracer configured the machine's hooks
//!    reduce to an `Option` branch, and library-crate hooks to one
//!    relaxed atomic load — the Fig. 6 context-switch numbers are
//!    unaffected.
//! 2. **No hot-path allocation.** Rings are pre-allocated; full rings
//!    overwrite their oldest event and count the loss.
//! 3. **Exact aggregates.** Counters are bumped on every event, so a
//!    trace can always be reconciled against the scheduler's own
//!    `RunReport` totals, even after rings wrap.
//!
//! Each event kind is declared once, in the `events!` table of the
//! `event` module: its fields, export tag, JSON keys and the counters it
//! bumps. The enum, [`EventKind::tag`], the JSON field writer and the
//! counter bumps are generated from that entry, and the counters
//! themselves from `recorder.rs`'s `counters!` table, whose order is the
//! export's `counts` order.
//!
//! ## Usage
//!
//! ```
//! use pvr_trace::{EventKind, Tracer};
//!
//! let tracer = Tracer::new(2);       // 2 PEs
//! tracer.enable();
//! tracer.record(0, 0, 100, EventKind::CtxSwitchIn { ctx_work: false });
//! let snap = tracer.snapshot();
//! assert_eq!(snap.counts.ctx_switches, 1);
//! println!("{}", snap.summary(10));  // Projections-style overview
//! let _json = snap.to_json();        // machine-readable export
//! ```
//!
//! The runtime integration: pass the tracer to
//! `MachineBuilder::tracer(...)` (in `pvr-rts`) and the machine installs
//! a [`ThreadScope`] around rank execution, so hooks deep in `pvr-ampi`,
//! `pvr-privatize` and `pvr-isomalloc` attribute their events to the
//! currently running rank via [`emit`].

mod event;
mod json;
mod recorder;
mod report;
mod scope;

pub use event::{ArenaTrip, CopyDir, Event, EventKind, PrivReg, ProbeVerdict, Segment, NO_RANK};
pub use json::json_u64;
pub use recorder::{PeTrace, TraceCounts, TraceSnapshot, Tracer, DEFAULT_PE_CAPACITY};
pub use scope::{emit, set_context, ThreadScope};
