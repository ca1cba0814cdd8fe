//! Hand-rolled JSON export (the workspace carries no serde).
//!
//! The format is stable and flat so external tooling (or a test) can
//! consume it with any JSON parser:
//!
//! ```json
//! {
//!   "version": 1,
//!   "n_pes": 2,
//!   "dropped": 0,
//!   "counts": { "ctx_switches": 12, ... },
//!   "pes": [
//!     { "pe": 0, "busy_ns": 10, "idle_ns": 2, "events": [
//!       { "seq": 0, "t_ns": 0, "pe": 0, "rank": 0,
//!         "kind": "ctx_switch_in", "ctx_work": true }, ... ] } ]
//! }
//! ```
//!
//! `counts` are exact even when rings wrapped; `events` are the retained
//! (most recent) events per PE. Events carried by no rank (LB steps)
//! have `"rank": null`.

use crate::event::{Event, NO_RANK};
use crate::recorder::TraceSnapshot;
use std::fmt::Write;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A value an event field carries, as the export writes it: numbers and
/// flags bare, names quoted.
pub(crate) trait JsonValue {
    fn write_json(&self, out: &mut String);
}

macro_rules! bare {
    ($($ty:ty),*) => {$(
        impl JsonValue for $ty {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

bare!(u32, u64, bool);

impl JsonValue for &str {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", escape(self));
    }
}

/// Append one field of an event record: `, "key": value`.
pub(crate) fn field(out: &mut String, key: &str, value: &impl JsonValue) {
    let _ = write!(out, ", \"{key}\": ");
    value.write_json(out);
}

/// Append one event record: its header, then the fields its kind's
/// `events!` entry declares.
fn write_event(out: &mut String, e: &Event) {
    let _ = write!(
        out,
        "{{\"seq\": {}, \"t_ns\": {}, \"pe\": {}, \"rank\": ",
        e.seq, e.t_ns, e.pe
    );
    if e.rank == NO_RANK {
        out.push_str("null");
    } else {
        let _ = write!(out, "{}", e.rank);
    }
    let _ = write!(out, ", \"kind\": \"{}\"", e.kind.tag());
    e.kind.write_fields(out);
    out.push('}');
}

impl TraceSnapshot {
    /// Serialize the snapshot. See the module docs for the schema.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"version\": 1,\n  \"n_pes\": {},\n  \"dropped\": {},\n",
            self.n_pes(),
            self.dropped
        );
        let counts: Vec<String> = self
            .counts
            .fields()
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        let _ = writeln!(out, "  \"counts\": {{{}}},", counts.join(", "));
        out.push_str("  \"pes\": [\n");
        for (i, p) in self.per_pe.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"pe\": {}, \"busy_ns\": {}, \"idle_ns\": {}, \"events\": [",
                p.pe, p.busy_ns, p.idle_ns
            );
            for (j, e) in p.events.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str("\n      ");
                write_event(&mut out, e);
            }
            if !p.events.is_empty() {
                out.push_str("\n    ");
            }
            out.push_str("]}");
            if i + 1 < self.per_pe.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Pull an integer field out of exported JSON by key, e.g.
/// `json_u64(&json, "ctx_switches")`. First occurrence wins — intended
/// for the top-level `counts` object, whose keys are unique. Returns
/// `None` if the key is absent or not followed by an integer.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Tracer};

    #[test]
    fn export_and_readback() {
        let t = Tracer::new(2);
        t.enable();
        t.record(0, 0, 5, EventKind::CtxSwitchIn { ctx_work: true });
        t.record(0, 0, 6, EventKind::MsgSend { to: 1, tag: 9, bytes: 32 });
        t.record(1, 1, 7, EventKind::MsgRecv { from: 0, tag: 9, bytes: 32 });
        t.record(
            0,
            crate::NO_RANK,
            8,
            EventKind::LbStep { step: 1, migrations: 2 },
        );
        t.record(0, 0, 9, EventKind::MpiCall { name: "MPI_Send" });
        let json = t.snapshot().to_json();
        assert_eq!(json_u64(&json, "ctx_switches"), Some(1));
        assert_eq!(json_u64(&json, "msgs_sent"), Some(1));
        assert_eq!(json_u64(&json, "send_bytes"), Some(32));
        assert_eq!(json_u64(&json, "lb_steps"), Some(1));
        assert!(json.contains("\"rank\": null"));
        assert!(json.contains("\"kind\": \"mpi_call\", \"name\": \"MPI_Send\""));
        // structurally sane: balanced braces/brackets
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn fault_events_export() {
        let t = Tracer::new(2);
        t.enable();
        t.record(
            0,
            crate::NO_RANK,
            1,
            EventKind::MsgDrop { from: 2, to: 3, seq: 7, ack: false },
        );
        t.record(
            0,
            crate::NO_RANK,
            2,
            EventKind::MsgDrop { from: 3, to: 2, seq: 9, ack: true },
        );
        t.record(
            0,
            crate::NO_RANK,
            3,
            EventKind::MsgRetransmit { from: 2, to: 3, seq: 7, attempt: 1 },
        );
        t.record(
            0,
            crate::NO_RANK,
            4,
            EventKind::MsgCorrupt { from: 2, to: 3, seq: 8 },
        );
        t.record(
            0,
            crate::NO_RANK,
            5,
            EventKind::MsgDupSuppressed { from: 2, to: 3, seq: 7 },
        );
        t.record(1, crate::NO_RANK, 6, EventKind::PeFail { pe: 1, ranks_lost: 3 });
        t.record(
            0,
            crate::NO_RANK,
            7,
            EventKind::CheckpointTaken { step: 2, bytes: 1024 },
        );
        t.record(0, crate::NO_RANK, 8, EventKind::Recovery { ranks: 6 });
        let json = t.snapshot().to_json();
        assert_eq!(json_u64(&json, "msg_drops"), Some(1));
        assert_eq!(json_u64(&json, "ack_drops"), Some(1));
        assert_eq!(json_u64(&json, "msg_corrupts"), Some(1));
        assert_eq!(json_u64(&json, "msg_retransmits"), Some(1));
        assert_eq!(json_u64(&json, "dup_suppressed"), Some(1));
        assert_eq!(json_u64(&json, "pe_fails"), Some(1));
        assert_eq!(json_u64(&json, "checkpoints"), Some(1));
        assert_eq!(json_u64(&json, "checkpoint_bytes"), Some(1024));
        assert_eq!(json_u64(&json, "recoveries"), Some(1));
        assert!(json.contains("\"kind\": \"msg_drop\", \"from\": 2, \"to\": 3, \"msg_seq\": 7, \"ack\": false"));
        assert!(json.contains("\"kind\": \"msg_retransmit\", \"from\": 2, \"to\": 3, \"msg_seq\": 7, \"attempt\": 1"));
        assert!(json.contains("\"kind\": \"pe_fail\", \"failed_pe\": 1, \"ranks_lost\": 3"));
        assert!(json.contains("\"kind\": \"checkpoint_taken\", \"step\": 2, \"bytes\": 1024"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn hardening_events_export() {
        use crate::event::{ArenaTrip, ProbeVerdict};
        let t = Tracer::new(1);
        t.enable();
        t.record(
            0,
            crate::NO_RANK,
            1,
            EventKind::MethodProbe {
                method: "pipglobals",
                verdict: ProbeVerdict::ResourceLimited,
            },
        );
        t.record(
            0,
            crate::NO_RANK,
            2,
            EventKind::MethodFallback {
                from: "pipglobals",
                to: "fsglobals",
            },
        );
        t.record(0, 3, 3, EventKind::StackGuardTrip { stack_size: 131072 });
        t.record(
            0,
            4,
            4,
            EventKind::ArenaGuardTrip {
                kind: ArenaTrip::DoubleFree,
            },
        );
        t.record(0, crate::NO_RANK, 5, EventKind::SegmentAudit { ranks: 8, dirty: 1 });
        let c = t.counts();
        assert_eq!(c.method_probes, 1);
        assert_eq!(c.method_fallbacks, 1);
        assert_eq!(c.stack_guard_trips, 1);
        assert_eq!(c.arena_guard_trips, 1);
        assert_eq!(c.segment_audits, 1);
        assert_eq!(c.total_events(), 5);
        let json = t.snapshot().to_json();
        assert!(json.contains(
            "\"kind\": \"method_probe\", \"method\": \"pipglobals\", \"verdict\": \"resource_limited\""
        ));
        assert!(json.contains(
            "\"kind\": \"method_fallback\", \"from_method\": \"pipglobals\", \"to_method\": \"fsglobals\""
        ));
        assert!(json.contains("\"kind\": \"arena_guard_trip\", \"trip\": \"double_free\""));
        assert!(json.contains("\"kind\": \"segment_audit\", \"ranks\": 8, \"dirty\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn elastic_events_export() {
        let t = Tracer::new(2);
        t.enable();
        t.record(
            0,
            crate::NO_RANK,
            1,
            EventKind::Rescale { from_pes: 4, to_pes: 2, moved_ranks: 5 },
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
            EventKind::ReReplicate { ranks: 8, bytes: 2048 },
        );
        t.record(
            0,
            crate::NO_RANK,
            4,
            EventKind::GeometryRestore { ranks: 8, to_pes: 3 },
        );
        t.record(1, crate::NO_RANK, 5, EventKind::BuddyDegenerate { pe: 1, ranks: 8 });
        let c = t.counts();
        assert_eq!(c.rescales, 1);
        assert_eq!(c.rescale_aborts, 1);
        assert_eq!(c.re_replications, 1);
        assert_eq!(c.re_replication_bytes, 2048);
        assert_eq!(c.geometry_restores, 1);
        assert_eq!(c.buddy_degenerates, 1);
        assert_eq!(c.total_events(), 5);
        let json = t.snapshot().to_json();
        assert!(json.contains("\"kind\": \"rescale\", \"from_pes\": 4, \"to_pes\": 2, \"moved_ranks\": 5"));
        assert!(json.contains("\"kind\": \"re_replicate\", \"ranks\": 8, \"bytes\": 2048"));
        assert!(json.contains("\"kind\": \"buddy_degenerate\", \"degenerate_pe\": 1, \"ranks\": 8"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn ckpt_events_export() {
        let t = Tracer::new(1);
        t.enable();
        t.record(
            0,
            crate::NO_RANK,
            1,
            EventKind::CkptDelta { step: 3, ranks: 4, pages: 9, bytes: 4096 },
        );
        t.record(0, crate::NO_RANK, 2, EventKind::CkptSeal { step: 4, epoch: 2 });
        t.record(0, crate::NO_RANK, 3, EventKind::CkptAsyncDrain { bytes: 4096 });
        t.record(0, crate::NO_RANK, 4, EventKind::CkptCompact { chain: 5, bytes: 8192 });
        let c = t.counts();
        assert_eq!(c.ckpt_deltas, 1);
        assert_eq!(c.ckpt_delta_pages, 9);
        assert_eq!(c.ckpt_delta_bytes, 4096);
        assert_eq!(c.ckpt_seals, 1);
        assert_eq!(c.ckpt_async_drains, 1);
        assert_eq!(c.ckpt_async_bytes, 4096);
        assert_eq!(c.ckpt_compacts, 1);
        assert_eq!(c.total_events(), 4);
        let json = t.snapshot().to_json();
        assert!(json.contains(
            "\"kind\": \"ckpt_delta\", \"step\": 3, \"ranks\": 4, \"pages\": 9, \"bytes\": 4096"
        ));
        assert!(json.contains("\"kind\": \"ckpt_seal\", \"step\": 4, \"epoch\": 2"));
        assert!(json.contains("\"kind\": \"ckpt_async_drain\", \"bytes\": 4096"));
        assert!(json.contains("\"kind\": \"ckpt_compact\", \"chain\": 5, \"bytes\": 8192"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn req_events_export() {
        let t = Tracer::new(1);
        t.enable();
        t.record(0, 0, 1, EventKind::ReqPost { req: 7, send: true });
        t.record(0, 0, 2, EventKind::ReqPost { req: 8, send: false });
        t.record(0, 0, 3, EventKind::ReqWaitBlock { waiting: 2 });
        t.record(0, 0, 4, EventKind::ReqComplete { req: 8, send: false });
        t.record(0, 0, 5, EventKind::ReqContinuation { req: 8 });
        let c = t.counts();
        assert_eq!(c.req_posts, 2);
        assert_eq!(c.req_completes, 1);
        assert_eq!(c.req_continuations, 1);
        assert_eq!(c.req_wait_blocks, 1);
        assert_eq!(c.total_events(), 5);
        let json = t.snapshot().to_json();
        assert!(json.contains("\"kind\": \"req_post\", \"req\": 7, \"send\": true"));
        assert!(json.contains("\"kind\": \"req_complete\", \"req\": 8, \"send\": false"));
        assert!(json.contains("\"kind\": \"req_continuation\", \"req\": 8"));
        assert!(json.contains("\"kind\": \"req_wait_block\", \"waiting\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn counts_object_holds_every_field_once_in_declaration_order() {
        let counts = crate::TraceCounts::numbered();
        let json = TraceSnapshot { counts, dropped: 0, per_pe: Vec::new() }.to_json();
        // The derived `Debug` is the independent walk of the struct.
        let dbg = format!("{counts:?}");
        let fields = dbg.strip_prefix("TraceCounts { ").and_then(|d| d.strip_suffix(" }"));
        let mut at = json.find("\"counts\": {").expect("counts object");
        for (i, field) in fields.expect("a braced struct").split(", ").enumerate() {
            let (name, value) = field.split_once(": ").expect("name: value");
            assert_eq!(value.parse(), Ok(i as u64 + 1), "{name} numbered in order");
            let key = format!("\"{name}\":");
            assert_eq!(json.matches(&key).count(), 1, "{name} appears once");
            let pos = json.find(&key).expect("key present");
            assert!(pos > at, "{name} out of declaration order");
            at = pos;
            assert_eq!(json_u64(&json, name), Some(i as u64 + 1), "{name} reads back");
        }
    }

    #[test]
    fn json_u64_misses_cleanly() {
        assert_eq!(json_u64("{}", "nope"), None);
        assert_eq!(json_u64("{\"k\": \"str\"}", "k"), None);
    }

    #[test]
    fn escape_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
