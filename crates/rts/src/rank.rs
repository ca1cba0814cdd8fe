//! Scheduler-side state of one virtual rank.

use crate::command::{RankShared, Slot};
use crate::matching::Matcher;
use crate::{PeId, RankId};
use pvr_des::SimDuration;
use pvr_isomalloc::RankMemory;
use pvr_privatize::RankInstance;
use pvr_ult::Ult;
use std::sync::Arc;

/// Scheduling status of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankStatus {
    /// In some PE's ready queue (or currently running).
    Ready,
    /// Suspended in a blocking receive or a wait-family call (the
    /// rank's [`Matcher`] records which).
    Waiting,
    /// Parked at an `AtSync` barrier.
    AtSync,
    /// Body returned.
    Done,
}

/// Everything the runtime owns for one virtual rank.
///
/// Field order matters: `ult` must drop before `memory`, because a
/// suspended ULT's cancellation unwinds frames living on the stack region
/// inside `memory`.
pub struct RankState {
    /// The coroutine (None only transiently during teardown).
    pub ult: Option<Ult>,
    /// The rank's migratable memory: heap, stack, TLS block, and — under
    /// PIEglobals — its code/data segment copies.
    pub memory: RankMemory,
    pub instance: Arc<RankInstance>,
    pub slot: Arc<Slot>,
    pub shared: Arc<RankShared>,
    pub status: RankStatus,
    pub location: PeId,
    /// Posted receives, the request table, the unexpected queue and the
    /// sends awaiting their ack.
    pub matcher: Matcher,
    /// Work accumulated since the last LB step (virtual mode), or wall
    /// time measured around resumes (real mode) — the LB input.
    pub load_since_lb: SimDuration,
    /// Lifetime totals for reports.
    pub total_load: SimDuration,
    pub messages_sent: u64,
    pub messages_received: u64,
    pub migrations: u32,
}

impl RankState {
    pub fn id(&self) -> RankId {
        self.instance.rank()
    }

    pub fn is_done(&self) -> bool {
        self.status == RankStatus::Done
    }

    /// Bytes that must move if this rank migrates now.
    pub fn migration_bytes(&self) -> usize {
        self.memory.migration_bytes()
    }
}

impl std::fmt::Debug for RankState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankState")
            .field("rank", &self.id())
            .field("status", &self.status)
            .field("pe", &self.location)
            .field("unexpected", &self.matcher.buffered())
            .finish()
    }
}
