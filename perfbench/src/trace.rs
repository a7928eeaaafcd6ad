//! Spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one thread and records strictly nested spans
//! (name, start, end, parent). Self time — a span's duration minus the
//! part its children cover — is aggregated per span name as each span
//! closes, over every span; the spans themselves are kept in memory up to
//! [`KEEP_SPANS`] per thread and written out when the run ends. A
//! disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept per thread for the dump; aggregates cover all spans.
pub const KEEP_SPANS: usize = 50_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub thread: u32,
    pub name: &'static str,
    /// The request (dining process) the span served, 0 when none.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every span closed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    next_seq: u64,
    open: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    aggs: BTreeMap<&'static str, Agg>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            next_seq: 0,
            open: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            aggs: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.next_seq += 1;
        let id = (u64::from(self.thread) << 40) | self.next_seq;
        let parent = self.open.last().map_or(0, |o| o.id);
        self.open.push(Open {
            id,
            parent,
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        self.end_req(0);
    }

    /// Closes the innermost open span, tagging the request it served.
    pub fn end_req(&mut self, req: u64) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let o = self.open.pop().expect("end() matches a begin()");
        let dur = end.duration_since(o.start).as_nanos() as u64;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.aggs.entry(o.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(o.child_ns);
        if self.spans.len() < KEEP_SPANS {
            let start_ns = o.start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id: o.id,
                parent: o.parent,
                thread: self.thread,
                name: o.name,
                req,
                start_ns,
                end_ns: start_ns + dur,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Folds another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        debug_assert!(other.open.is_empty(), "merged tracer has open spans");
        for (name, a) in other.aggs {
            let agg = self.aggs.entry(name).or_default();
            agg.count += a.count;
            agg.total_ns += a.total_ns;
            agg.self_ns += a.self_ns;
        }
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
    }

    #[cfg(test)]
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Spans closed so far, kept or not.
    pub fn closed(&self) -> u64 {
        self.aggs.values().map(|a| a.count).sum()
    }

    /// Self time, in ms, of every span whose name is `layer` or starts
    /// with `layer.`.
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.aggs
            .iter()
            .filter(|(name, _)| {
                name.strip_prefix(layer)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .map(|(_, a)| a.self_ns as f64)
            .sum::<f64>()
            / 1e6
    }

    /// The trace as JSON: per-name aggregates and the kept spans.
    pub fn to_json(&self, header: Json) -> Json {
        let aggs = self
            .aggs
            .iter()
            .map(|(name, a)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::Num(a.count as f64)),
                        ("total_ms".into(), Json::Num(a.total_ns as f64 / 1e6)),
                        ("self_ms".into(), Json::Num(a.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(s.id as f64)),
                    ("parent".into(), Json::Num(s.parent as f64)),
                    ("thread".into(), Json::Num(f64::from(s.thread))),
                    ("name".into(), Json::Str(s.name.into())),
                    ("req".into(), Json::Num(s.req as f64)),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("header".into(), header),
            ("dropped_spans".into(), Json::Num(self.dropped as f64)),
            ("layers".into(), Json::Obj(aggs)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Measured cost, in ns, of one begin/end pair on an enabled tracer —
/// the per-span tracing overhead.
pub fn span_cost_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let mut t = Tracer::new(true, Instant::now(), u32::MAX);
    t.spans.reserve(KEEP_SPANS);
    let start = Instant::now();
    t.begin("calibrate.outer");
    for _ in 0..PAIRS {
        t.begin("calibrate.inner");
        t.end();
    }
    t.end();
    std::hint::black_box(&t);
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        t.begin("outer");
        std::thread::sleep(Duration::from_millis(4));
        t.span("inner.child", || {
            std::thread::sleep(Duration::from_millis(8))
        });
        t.end();
        let outer = t.agg("outer");
        let inner = t.agg("inner.child");
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 8_000_000);
        assert!(t.self_ms("inner") >= 8.0);
        assert_eq!(t.self_ms("inn"), 0.0, "prefix must end at a dot");
        assert_eq!(t.spans[0].parent, t.spans[1].id, "child closes first");
        assert_eq!(t.closed(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        t.span("x", || ());
        assert_eq!(t.closed(), 0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn merge_sums_aggregates() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch, 1);
        let mut b = Tracer::new(true, epoch, 2);
        a.span("x", || ());
        b.span("x", || ());
        b.span("y", || ());
        a.merge(b);
        assert_eq!(a.agg("x").count, 2);
        assert_eq!(a.closed(), 3);
        let ids: std::collections::BTreeSet<u64> = a.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3, "span ids stay unique across threads");
    }
}
