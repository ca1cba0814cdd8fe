//! Communicators.

use crate::Ampi;

/// Communicator handle (index into the per-rank communicator table; the
/// table evolves identically on every member because communicator
/// construction is collective and deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommId(pub(crate) u16);

/// `MPI_COMM_WORLD`.
pub const COMM_WORLD: CommId = CommId(0);

#[derive(Debug, Clone)]
pub struct Comm {
    /// Global (COMM_WORLD) ranks of the members, ordered by local rank.
    pub members: Vec<usize>,
    /// This rank's index in `members`.
    pub my_index: usize,
}

impl Comm {
    pub fn world(n: usize) -> Comm {
        Comm {
            members: (0..n).collect(),
            my_index: 0, // fixed up by Ampi::init caller context
        }
    }
}

impl Ampi {
    /// `MPI_Comm_dup`. Kept for tests: MPI surface.
    pub fn comm_dup(&self, comm: CommId) -> CommId {
        // Collective in MPI; deterministic here, but keep the barrier for
        // semantic fidelity (all members synchronize).
        self.barrier(comm);
        let mut st = self.state.borrow_mut();
        let c = st.comms[comm.0 as usize].clone();
        st.comms.push(c);
        st.coll_seq.push(0);
        CommId((st.comms.len() - 1) as u16)
    }

    /// `MPI_Comm_split`: ranks with equal `color` form a new
    /// communicator, ordered by `(key, old rank)`. Kept for tests: MPI surface.
    pub fn comm_split(&self, comm: CommId, color: i64, key: i64) -> CommId {
        // allgather (color, key) over comm — deterministic on all members
        let mine = [color, key];
        let bytes: Vec<u8> = mine.iter().flat_map(|v| v.to_le_bytes()).collect();
        let all = self.allgather_bytes(comm, bytes.into());
        let my_local = self.comm_rank(comm);
        let my_color = color;

        // build my group: (key, local, global) sorted
        let mut group: Vec<(i64, usize, usize)> = Vec::new();
        for (local, b) in all.iter().enumerate() {
            let c = i64::from_le_bytes(b[0..8].try_into().unwrap());
            let k = i64::from_le_bytes(b[8..16].try_into().unwrap());
            if c == my_color {
                let global = self.to_global(comm, local);
                group.push((k, local, global));
            }
        }
        group.sort();
        let members: Vec<usize> = group.iter().map(|&(_, _, g)| g).collect();
        let my_global = self.to_global(comm, my_local);
        let my_index = members
            .iter()
            .position(|&g| g == my_global)
            .expect("split must include self");

        let mut st = self.state.borrow_mut();
        st.comms.push(Comm { members, my_index });
        st.coll_seq.push(0);
        CommId((st.comms.len() - 1) as u16)
    }

    /// Fix up world communicator's my_index (called by init).
    pub(crate) fn fixup_world(&self) {
        let me = self.ctx.rank();
        self.state.borrow_mut().comms[0].my_index = me;
    }
}
