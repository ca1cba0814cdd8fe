//! Cluster topology: nodes → processes → PEs.
//!
//! Mirrors the paper's Fig. 1 deployment shape: a job runs on `nodes`
//! nodes, each with `processes_per_node` OS processes (one per socket or
//! per node in SMP mode), each process hosting `pes_per_process`
//! scheduler threads (PEs). Virtual ranks are then overdecomposed on top
//! of PEs (that mapping lives in `pvr-rts`; topology only fixes the
//! hardware shape).

/// Identifies a PE (core running one scheduler) globally.
pub type PeId = usize;
/// Identifies an OS process globally.
pub type ProcId = usize;
/// Identifies a node.
pub type NodeId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    pub nodes: usize,
    pub processes_per_node: usize,
    pub pes_per_process: usize,
}

impl Topology {
    pub fn new(nodes: usize, processes_per_node: usize, pes_per_process: usize) -> Topology {
        assert!(nodes > 0 && processes_per_node > 0 && pes_per_process > 0);
        Topology {
            nodes,
            processes_per_node,
            pes_per_process,
        }
    }

    /// Single node, one process, `pes` schedulers — SMP mode on a
    /// workstation.
    pub fn smp(pes: usize) -> Topology {
        Topology::new(1, 1, pes)
    }

    /// `pes` nodes of one single-PE process each — non-SMP mode.
    pub fn non_smp(pes: usize) -> Topology {
        Topology::new(pes, 1, 1)
    }

    pub fn total_pes(&self) -> usize {
        self.nodes * self.processes_per_node * self.pes_per_process
    }

    pub fn total_processes(&self) -> usize {
        self.nodes * self.processes_per_node
    }

    pub fn process_of_pe(&self, pe: PeId) -> ProcId {
        assert!(pe < self.total_pes(), "PE {pe} out of range");
        pe / self.pes_per_process
    }

    pub fn node_of_pe(&self, pe: PeId) -> NodeId {
        self.process_of_pe(pe) / self.processes_per_node
    }

    /// PEs belonging to one process.
    pub fn pes_of_process(&self, proc: ProcId) -> std::ops::Range<PeId> {
        let start = proc * self.pes_per_process;
        start..start + self.pes_per_process
    }

    pub fn same_process(&self, a: PeId, b: PeId) -> bool {
        self.process_of_pe(a) == self.process_of_pe(b)
    }

    pub fn same_node(&self, a: PeId, b: PeId) -> bool {
        self.node_of_pe(a) == self.node_of_pe(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_consistent() {
        let t = Topology::new(2, 2, 4); // 16 PEs
        assert_eq!(t.total_pes(), 16);
        assert_eq!(t.total_processes(), 4);
        assert_eq!(t.process_of_pe(0), 0);
        assert_eq!(t.process_of_pe(3), 0);
        assert_eq!(t.process_of_pe(4), 1);
        assert_eq!(t.node_of_pe(7), 0);
        assert_eq!(t.node_of_pe(8), 1);
        assert_eq!(t.pes_of_process(1), 4..8);
        assert!(t.same_process(4, 7));
        assert!(!t.same_process(3, 4));
        assert!(t.same_node(0, 7));
        assert!(!t.same_node(7, 8));
    }

    #[test]
    fn smp_and_non_smp_shapes() {
        let smp = Topology::smp(8);
        assert_eq!(smp.total_pes(), 8);
        assert_eq!(smp.total_processes(), 1);
        let non = Topology::non_smp(8);
        assert_eq!(non.total_pes(), 8);
        assert_eq!(non.total_processes(), 8);
        assert!(!non.same_process(0, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pe_panics() {
        Topology::smp(4).process_of_pe(4);
    }
}
