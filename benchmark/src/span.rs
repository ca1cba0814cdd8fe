//! The benchmark's own span recorder, used only by the traced run.
//!
//! Spans (name, start, end, parent; workload and repetition are the
//! recorder's) are kept at repetition /
//! `rts.build` / `rts.run` / phase / `apps.run` granularity in a vector
//! allocated up front; once it is full further spans are counted as
//! dropped instead of growing it. The millions of per-call `ampi.*`
//! intervals inside rank bodies go into per-(rank, name) accumulators
//! (count, total, max) instead. Everything is written out at exit as
//! Chrome trace-event JSON, which Perfetto opens.
//!
//! A span opened inside a rank body includes the time its ULT spent
//! suspended, so such spans are reported as *waiting included*. Self time
//! (duration minus the part covered by direct children) is offered by
//! [`Recorder::self_ns`] for the harness-side spans, where it is well
//! defined.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

/// Track id of spans recorded by the harness itself; rank bodies use
/// `rank + 1`.
pub const HARNESS_TRACK: u32 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// 0 while the span is open.
    pub end_ns: u64,
    pub parent: SpanId,
    pub track: u32,
}

/// Names of the per-call accumulators kept per rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acc {
    /// `isend_bytes` / `irecv`: never suspend.
    Post = 0,
    /// `waitall` / `wait` / `waitall_sends`: suspension included.
    Wait = 1,
    /// `match_deep` posted phase, receiver side, post to last completion.
    RecvPosted = 2,
    /// `match_deep` unexpected phase, receiver side, drain of the queue.
    RecvUnexpected = 3,
}

const N_ACC: usize = 4;
const ACC_NAMES: [&str; N_ACC] = [
    "ampi.post",
    "ampi.wait",
    "ampi.recv_posted",
    "ampi.recv_unexpected",
];

#[derive(Default)]
struct AccSlot {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccTotal {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

pub struct Recorder {
    t0: Instant,
    workload: &'static str,
    /// The repetition every span of this recorder belongs to.
    rep: u32,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    /// The harness span rank bodies should name as their parent.
    scope: AtomicU32,
    /// `n_ranks * N_ACC` slots; a rank only ever touches its own row.
    accs: Vec<AccSlot>,
}

impl Recorder {
    pub fn new(workload: &'static str, rep: u32, n_ranks: usize, capacity: usize) -> Recorder {
        Recorder {
            t0: Instant::now(),
            workload,
            rep,
            spans: Mutex::new(Vec::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
            scope: AtomicU32::new(NO_SPAN),
            accs: (0..n_ranks * N_ACC).map(|_| AccSlot::default()).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        // +1 so that an open span (end 0) is distinguishable from one
        // closed in the recorder's first nanosecond.
        self.t0.elapsed().as_nanos() as u64 + 1
    }

    /// Open a span; returns `NO_SPAN` (and counts a drop) when full.
    pub fn open(&self, name: &'static str, parent: SpanId, track: u32) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder never panics while locked");
        if spans.len() == spans.capacity() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return NO_SPAN;
        }
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            track,
        });
        (spans.len() - 1) as SpanId
    }

    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        if id == NO_SPAN {
            return;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder never panics while locked");
        spans[id as usize].end_ns = end_ns;
    }

    /// Publish the harness span that rank-body spans hang under.
    pub fn set_scope(&self, id: SpanId) {
        self.scope.store(id, Ordering::SeqCst);
    }

    pub fn scope(&self) -> SpanId {
        self.scope.load(Ordering::SeqCst)
    }

    /// Open a span, run `f` with its id, close it.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        track: u32,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(name, parent, track);
        let out = f(id);
        self.close(id);
        out
    }

    /// Add `count` calls that took `total_ns` together to a per-(rank,
    /// name) accumulator.
    pub fn acc(&self, rank: usize, which: Acc, count: u64, total_ns: u64) {
        let slot = &self.accs[rank * N_ACC + which as usize];
        // Relaxed: statistics only, read after the run has been joined.
        slot.count.fetch_add(count, Ordering::Relaxed);
        slot.total_ns.fetch_add(total_ns, Ordering::Relaxed);
        slot.max_ns
            .fetch_max(total_ns / count.max(1), Ordering::Relaxed);
    }

    /// Sum of one accumulator over all ranks.
    pub fn acc_total(&self, which: Acc) -> AccTotal {
        let mut t = AccTotal::default();
        for row in self.accs.chunks(N_ACC) {
            let s = &row[which as usize];
            t.count += s.count.load(Ordering::Relaxed);
            t.total_ns += s.total_ns.load(Ordering::Relaxed);
            t.max_ns = t.max_ns.max(s.max_ns.load(Ordering::Relaxed));
        }
        t
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder never panics while locked")
            .clone()
    }

    /// Duration of span `id` minus the part of it its direct children
    /// cover (children may overlap each other; the union is subtracted).
    pub fn self_ns(spans: &[Span], id: SpanId) -> u64 {
        let me = &spans[id as usize];
        let mut kids: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == id && s.end_ns != 0)
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = me.start_ns;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        (me.end_ns - me.start_ns).saturating_sub(covered)
    }

    /// Chrome trace-event JSON: one complete ("X") event per closed span,
    /// one counter-like instant per non-empty accumulator row.
    pub fn to_chrome_json(&self) -> String {
        use std::fmt::Write;
        let spans = self.spans();
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.end_ns != 0) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"rep\":{}}}}}",
                s.name,
                self.workload,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.track,
                i,
                if s.parent == NO_SPAN { -1 } else { s.parent as i64 },
                self.rep,
            );
        }
        for (rank, row) in self.accs.chunks(N_ACC).enumerate() {
            for (k, slot) in row.iter().enumerate() {
                let count = slot.count.load(Ordering::Relaxed);
                if count == 0 {
                    continue;
                }
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":0,\"pid\":1,\"tid\":{},\
                     \"args\":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}}}",
                    ACC_NAMES[k],
                    self.workload,
                    rank as u32 + 1,
                    count,
                    slot.total_ns.load(Ordering::Relaxed),
                    slot.max_ns.load(Ordering::Relaxed),
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |start_ns, end_ns, parent| Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            track: 0,
        };
        // parent 0..100; children 10..40 and 30..60 overlap, 90..120 pokes out
        let spans = vec![
            span(1, 101, NO_SPAN),
            span(11, 41, 0),
            span(31, 61, 0),
            span(91, 121, 0),
        ];
        assert_eq!(Recorder::self_ns(&spans, 0), 100 - 50 - 10);
    }

    #[test]
    fn full_recorder_counts_drops_and_keeps_capacity() {
        let r = Recorder::new("t", 0, 1, 2);
        let a = r.open("a", NO_SPAN, HARNESS_TRACK);
        let b = r.open("b", a, HARNESS_TRACK);
        let c = r.open("c", a, HARNESS_TRACK);
        assert_eq!(c, NO_SPAN);
        r.close(c);
        r.close(b);
        r.close(a);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.spans().len(), 2);
        r.acc(0, Acc::Post, 1, 5);
        r.acc(0, Acc::Post, 2, 18);
        assert_eq!(
            r.acc_total(Acc::Post),
            AccTotal {
                count: 3,
                total_ns: 23,
                max_ns: 9
            }
        );
        let json = r.to_chrome_json();
        assert!(json.contains("\"name\":\"a\"") && json.contains("ampi.post"));
    }
}
