//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions, written out when the run ends.
//!
//! Each thread owns a [`SpanBuf`] with a fixed capacity reserved up front,
//! so recording never allocates while timing. Span ids are unique across
//! threads: the buffer's thread index sits in the high bits.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies a span; 0 means "no span" (a root's parent, or a span the
/// full buffer could not hold).
pub type SpanId = u64;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer function called, `module::function`.
    pub name: &'static str,
    /// Start, ns since the run's trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch (0 while open).
    pub end_ns: u64,
    /// The span that made this call, 0 for a root.
    pub parent: SpanId,
    /// This span's id.
    pub id: SpanId,
    /// The workload operation the span belongs to.
    pub op: u64,
}

/// A thread's span buffer.
pub struct SpanBuf {
    epoch: Instant,
    thread: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    /// An empty buffer for thread `thread` holding up to `capacity` spans,
    /// timed from `epoch` (share one epoch across a run's buffers).
    pub fn new(epoch: Instant, thread: u64, capacity: usize) -> SpanBuf {
        SpanBuf {
            epoch,
            thread,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns 0 (and counts a drop) when the buffer is full.
    pub fn enter(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        let id = (self.thread << 40) | (self.spans.len() as u64 + 1);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            id,
            op,
        });
        id
    }

    /// Closes span `id` (a no-op for 0).
    pub fn exit(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let end = self.now();
        let idx = (id & ((1 << 40) - 1)) as usize - 1;
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, parent, op);
        let r = f();
        self.exit(id);
        r
    }

    /// Spans the full buffer could not record.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus children's), ns.
    pub self_ns: u64,
}

impl NameStats {
    /// Mean duration, ns.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean self time, ns.
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Totals by span name. A span's self time is its duration minus the
/// durations of its direct children.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += dur(s);
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let d = dur(s);
        e.count += 1;
        e.total_ns += d;
        e.self_ns += d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

fn dur(s: &Span) -> u64 {
    s.end_ns.saturating_sub(s.start_ns)
}

/// Renders spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.parent, s.id, s.op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: 0,
                id: 1,
                op: 7,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: 1,
                id: 2,
                op: 7,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: 1,
                id: 3,
                op: 7,
            },
            Span {
                name: "a",
                start_ns: 60,
                end_ns: 70,
                parent: 3,
                id: 4,
                op: 7,
            },
        ];
        let m = by_name(&spans);
        assert_eq!(
            m["op"],
            NameStats {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            m["a"],
            NameStats {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(
            m["b"],
            NameStats {
                count: 1,
                total_ns: 40,
                self_ns: 30
            }
        );
        assert_eq!(m["a"].mean_ns(), 20.0);
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut b = SpanBuf::new(Instant::now(), 3, 2);
        let root = b.enter("op", 0, 1);
        let child = b.span("x", root, 1, || b'x');
        assert_eq!(child, b'x');
        assert_eq!(b.enter("y", root, 1), 0);
        b.exit(root);
        assert_eq!(b.dropped(), 1);
        let spans = b.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].id >> 40, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
