//! Host-time spans recorded around the benchmark's calls into each
//! layer. Spans stay in memory while the benchmark runs and are written
//! out once at the end, in the chrome://tracing event format.

use std::collections::BTreeMap;
use std::time::Instant;

/// Identifier of a recorded span; `0` means "no span" (root, or
/// recording off).
pub type SpanId = u64;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based identifier, unique within the recorder.
    pub id: SpanId,
    /// The span that caused this one (`0` for a root).
    pub parent: SpanId,
    /// Layer-qualified name, e.g. `sched.run_scheduled`.
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Host thread lane (0 = main thread, shard threads count from 1).
    pub lane: u32,
    /// Simulated host pages or requests the span processed.
    pub work: u64,
}

/// Per-name aggregate: total and self time (duration minus the part
/// covered by direct children).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// In-memory span recorder. When disabled every call is a no-op and
/// `open` returns `0`.
#[derive(Debug, Clone)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled` switches recording on.
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    /// Switches recording on or off (spans already recorded stay).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span on the main lane; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.ns(Instant::now());
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { id, parent, name, start_ns: now, end_ns: now, lane: 0, work: 0 });
        id
    }

    /// Closes span `id`, recording the work it processed.
    pub fn close(&mut self, id: SpanId, work: u64) {
        if id == 0 {
            return;
        }
        let now = self.ns(Instant::now());
        let s = &mut self.spans[id as usize - 1];
        s.end_ns = now;
        s.work = work;
    }

    /// Records a span measured elsewhere (e.g. on a shard thread).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        (start, end): (Instant, Instant),
        lane: u32,
        work: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, name, start_ns, end_ns, lane, work });
        id
    }

    /// Total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// The spans as a chrome://tracing JSON document (complete `X`
    /// events; microsecond timestamps, span/parent ids in `args`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"work\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.work
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.open("a", 0);
        s.close(id, 3);
        assert_eq!(id, 0);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new(true);
        let t0 = Instant::now();
        let t = |ns| t0 + std::time::Duration::from_nanos(ns);
        let root = s.record("root", 0, (t(0), t(100)), 0, 0);
        s.record("child", root, (t(10), t(40)), 0, 0);
        s.record("child", root, (t(50), t(70)), 0, 0);
        let st = s.self_times();
        assert_eq!(st["root"].total_ns, 100);
        assert_eq!(st["root"].self_ns, 50);
        assert_eq!(st["child"].count, 2);
        assert_eq!(st["child"].self_ns, 50);
    }
}
