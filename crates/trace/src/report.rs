//! Projections-style plain-text summary of a trace snapshot.

use crate::recorder::TraceSnapshot;

fn fmt_bytes(b: u64) -> String {
    if b >= 10 << 20 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else if b >= 10 << 10 {
        format!("{:.1} KB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

impl TraceSnapshot {
    /// Human-readable overview: totals, one line per group of nonzero
    /// counters, per-PE utilization/idle/switch table, and the top-`k`
    /// heaviest rank→rank message edges.
    pub fn summary(&self, top_k: usize) -> String {
        use std::fmt::Write;
        let c = &self.counts;
        let mut out = String::new();
        let retained: usize = self.per_pe.iter().map(|p| p.events.len()).sum();
        let _ = writeln!(
            out,
            "trace summary: {} PEs, {} events ({} retained, {} overwritten)",
            self.n_pes(),
            c.total_events(),
            retained,
            self.dropped
        );
        // One line per group with a nonzero counter, naming each nonzero
        // counter of the group (groups in order of first declaration).
        let fields = c.fields();
        for (i, &(group, ..)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|f| f.0 == group) {
                continue;
            }
            let line: String = fields
                .iter()
                .filter(|&&(g, _, v)| g == group && v > 0)
                .map(|(_, name, v)| format!(" {name}={v}"))
                .collect();
            if !line.is_empty() {
                let _ = writeln!(out, "  {group}:{line}");
            }
        }

        // per-PE table: switch counts come from retained events so the
        // column stays meaningful even without a RunReport
        let _ = writeln!(out, "   PE   util%   idle%   switches   events");
        for p in &self.per_pe {
            let util = p.utilization();
            let idle = if p.busy_ns + p.idle_ns == 0 {
                0.0
            } else {
                1.0 - util
            };
            let switches = p
                .events
                .iter()
                .filter(|e| matches!(e.kind, crate::EventKind::CtxSwitchIn { .. }))
                .count();
            let _ = writeln!(
                out,
                "  {:>3}   {:>5.1}   {:>5.1}   {:>8}   {:>6}",
                p.pe,
                util * 100.0,
                idle * 100.0,
                switches,
                p.events.len()
            );
        }

        let edges = self.message_edges();
        if !edges.is_empty() {
            let _ = writeln!(out, "  top message edges (rank -> rank):");
            for ((from, to), (msgs, bytes)) in edges.iter().take(top_k.max(1)) {
                let _ = writeln!(
                    out,
                    "    {from:>4} -> {to:<4}  {} in {} msgs",
                    fmt_bytes(*bytes),
                    msgs
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{EventKind, TraceCounts, TraceSnapshot, Tracer};

    #[test]
    fn summary_names_every_counter_once() {
        let snap = TraceSnapshot {
            counts: TraceCounts::numbered(),
            dropped: 0,
            per_pe: Vec::new(),
        };
        let s = snap.summary(3);
        for (_, name, _) in snap.counts.fields() {
            assert_eq!(s.matches(&format!(" {name}=")).count(), 1, "{name}:\n{s}");
        }
    }

    #[test]
    fn summary_renders_all_sections() {
        let t = Tracer::new(2);
        t.enable();
        t.record(0, 0, 0, EventKind::CtxSwitchIn { ctx_work: false });
        t.record(0, 0, 1, EventKind::MsgSend { to: 1, tag: 3, bytes: 2048 });
        t.record(1, 1, 2, EventKind::MsgRecv { from: 0, tag: 3, bytes: 2048 });
        t.record(
            0,
            0,
            3,
            EventKind::Migration {
                from_pe: 0,
                to_pe: 1,
                bytes: 1 << 20,
            },
        );
        t.set_pe_clock(0, 90, 10);
        t.set_pe_clock(1, 50, 50);
        let s = t.snapshot().summary(5);
        assert!(s.contains("2 PEs"));
        assert!(s.contains("\n  sched: ctx_switches=1\n"), "{s}");
        let migration = "\n  migration: migrations=1 migration_bytes=1048576\n";
        assert!(s.contains(migration), "{s}");
        assert!(s.contains("top message edges"));
        assert!(s.contains("0 -> 1"));
        assert!(s.contains("90.0"), "PE 0 utilization missing:\n{s}");
        // no fault activity → no fault section
        assert!(!s.contains("faults:"), "unexpected fault section:\n{s}");
    }

    #[test]
    fn summary_renders_fault_section_when_active() {
        let t = Tracer::new(1);
        t.enable();
        t.record(
            0,
            crate::NO_RANK,
            0,
            EventKind::MsgDrop { from: 0, to: 1, seq: 4, ack: false },
        );
        t.record(
            0,
            crate::NO_RANK,
            1,
            EventKind::MsgRetransmit { from: 0, to: 1, seq: 4, attempt: 1 },
        );
        t.record(
            0,
            crate::NO_RANK,
            2,
            EventKind::CheckpointTaken { step: 1, bytes: 4096 },
        );
        t.record(0, crate::NO_RANK, 3, EventKind::PeFail { pe: 0, ranks_lost: 2 });
        t.record(0, crate::NO_RANK, 4, EventKind::Recovery { ranks: 4 });
        let s = t.snapshot().summary(3);
        let faults = "\n  faults: msg_drops=1 msg_retransmits=1\n";
        assert!(s.contains(faults), "{s}");
        let recovery =
            "\n  recovery: pe_fails=1 checkpoints=1 checkpoint_bytes=4096 recoveries=1\n";
        assert!(s.contains(recovery), "{s}");
        assert!(!s.contains("hardening:"), "unexpected hardening section:\n{s}");
    }

    #[test]
    fn summary_renders_hardening_section_when_active() {
        use crate::event::ProbeVerdict;
        let t = Tracer::new(1);
        t.enable();
        t.record(
            0,
            crate::NO_RANK,
            0,
            EventKind::MethodProbe {
                method: "pipglobals",
                verdict: ProbeVerdict::ResourceLimited,
            },
        );
        t.record(
            0,
            crate::NO_RANK,
            1,
            EventKind::MethodFallback { from: "pipglobals", to: "fsglobals" },
        );
        t.record(0, crate::NO_RANK, 2, EventKind::SegmentAudit { ranks: 4, dirty: 0 });
        let s = t.snapshot().summary(3);
        let hardening = "\n  hardening: method_probes=1 method_fallbacks=1 segment_audits=1\n";
        assert!(s.contains(hardening), "{s}");
        assert!(!s.contains("cow:"), "unexpected cow section:\n{s}");
    }

    #[test]
    fn summary_renders_elastic_section_when_active() {
        let t = Tracer::new(2);
        t.enable();
        t.record(
            0,
            crate::NO_RANK,
            0,
            EventKind::Rescale { from_pes: 4, to_pes: 2, moved_ranks: 3 },
        );
        t.record(
            0,
            crate::NO_RANK,
            1,
            EventKind::ReReplicate { ranks: 8, bytes: 4096 },
        );
        t.record(
            0,
            crate::NO_RANK,
            2,
            EventKind::RescaleAborted { from_pes: 2, to_pes: 4 },
        );
        t.record(
            0,
            crate::NO_RANK,
            3,
            EventKind::GeometryRestore { ranks: 8, to_pes: 3 },
        );
        t.record(1, crate::NO_RANK, 4, EventKind::BuddyDegenerate { pe: 1, ranks: 8 });
        let s = t.snapshot().summary(3);
        assert!(
            s.contains(
                "\n  elastic: rescales=1 rescale_aborts=1 re_replications=1 \
                 re_replication_bytes=4096 geometry_restores=1 buddy_degenerates=1\n"
            ),
            "{s}"
        );
    }

    #[test]
    fn summary_renders_ckpt_section_when_active() {
        let t = Tracer::new(1);
        t.enable();
        t.record(
            0,
            crate::NO_RANK,
            0,
            EventKind::CkptDelta { step: 2, ranks: 4, pages: 6, bytes: 2048 },
        );
        t.record(0, crate::NO_RANK, 1, EventKind::CkptSeal { step: 3, epoch: 2 });
        t.record(0, crate::NO_RANK, 2, EventKind::CkptAsyncDrain { bytes: 2048 });
        t.record(0, crate::NO_RANK, 3, EventKind::CkptCompact { chain: 4, bytes: 8192 });
        let s = t.snapshot().summary(3);
        assert!(
            s.contains(
                "\n  ckpt: ckpt_deltas=1 ckpt_delta_pages=6 ckpt_delta_bytes=2048 ckpt_seals=1 \
                 ckpt_async_drains=1 ckpt_async_bytes=2048 ckpt_compacts=1\n"
            ),
            "{s}"
        );
    }

    #[test]
    fn summary_renders_cow_section_when_active() {
        let t = Tracer::new(1);
        t.enable();
        t.record(0, 2, 0, EventKind::PageFault { page: 7 });
        t.record(0, 2, 1, EventKind::PagePrivatized { page: 7, bytes: 4096 });
        t.record(
            0,
            crate::NO_RANK,
            2,
            EventKind::DedupAudit {
                ranks: 4,
                shared_pages: 250,
                total_pages: 256,
            },
        );
        let s = t.snapshot().summary(3);
        let cow = "\n  cow: page_faults=1 pages_privatized=1 page_copy_bytes=4096 dedup_audits=1\n";
        assert!(s.contains(cow), "{s}");
    }
}
