//! The traced pass's span recorder.
//!
//! The harness wraps each call into a layer's public function in a span
//! (name, layer, start, end, parent, operation id).  After a call returns,
//! the engine's own tracer events are folded in underneath the harness span
//! that produced them, so one tree covers harness calls and engine phases.
//! A span's self time is its duration minus the part of it its children
//! cover; the self time of an operation's root span is the harness glue
//! that no layer accounts for.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use carac::exec::{EventKind, Phase, TraceEvent};

use crate::json::Json;

/// Layer name of the operation root spans (their self time is unattributed).
pub const HARNESS: &str = "harness";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call or phase name.
    pub name: &'static str,
    /// Layer (crate or module) the span's time is charged to.
    pub layer: &'static str,
    /// Offset of the start from the recorder's epoch.
    pub start: Duration,
    /// Offset of the end from the recorder's epoch.
    pub end: Duration,
    /// Index of the parent span plus one; 0 at a root.
    pub parent: usize,
    /// Operation the span belongs to.
    pub op: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end.saturating_sub(self.start)).as_secs_f64() * 1e3
    }
}

/// Layer an engine phase is charged to.
fn phase_layer(phase: Phase) -> &'static str {
    match phase {
        Phase::UpdateBatch => "incremental",
        Phase::Checkpoint | Phase::Recover => "persist",
        _ => "exec",
    }
}

/// Records harness spans and absorbs engine trace events.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    /// Starts operation `op`: opens its root span.  Close it with
    /// [`Recorder::end_op`].
    pub fn begin_op(&mut self, op: u64, name: &'static str) {
        self.op = op;
        self.open(HARNESS, name);
    }

    /// Closes the root span opened by [`Recorder::begin_op`].
    pub fn end_op(&mut self) {
        self.close();
        assert!(self.stack.is_empty(), "unbalanced harness spans");
    }

    fn open(&mut self, layer: &'static str, name: &'static str) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            layer,
            start: now,
            end: now,
            parent: self.stack.last().map_or(0, |&i| i + 1),
            op: self.op,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        idx
    }

    fn close(&mut self) {
        let idx = self.stack.pop().expect("close without open");
        self.spans[idx].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span charged to `layer`; returns its result and the
    /// span's index (for [`Recorder::absorb`]).
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let idx = self.open(layer, name);
        let out = f();
        self.close();
        (out, idx)
    }

    /// Folds the engine events with span ids above `after` under the
    /// harness span `under`.  `engine_epoch` is the engine tracer's epoch.
    /// Compile spans are recorded by the engine with zero width and their
    /// measured duration in `duration_ns`; they are widened backwards to
    /// cover it.  Returns the highest engine span id seen.
    pub fn absorb(
        &mut self,
        events: &[TraceEvent],
        engine_epoch: Instant,
        after: u64,
        under: usize,
    ) -> u64 {
        let shift = engine_epoch.saturating_duration_since(self.epoch);
        let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
        let mut last = after;
        for event in events.iter().filter(|e| e.id > after) {
            last = last.max(event.id);
            match event.kind {
                EventKind::Begin => {
                    let parent = index_of.get(&event.parent).map_or(under, |&i| i);
                    self.spans.push(Span {
                        name: event.phase.name(),
                        layer: phase_layer(event.phase),
                        start: shift + event.at,
                        end: shift + event.at,
                        parent: parent + 1,
                        op: self.op,
                    });
                    index_of.insert(event.id, self.spans.len() - 1);
                }
                EventKind::End => {
                    if let Some(&idx) = index_of.get(&event.id) {
                        let end = shift + event.at;
                        self.spans[idx].end = end;
                        if let Some(&(_, ns)) =
                            event.counters.iter().find(|(k, _)| *k == "duration_ns")
                        {
                            let span = &mut self.spans[idx];
                            span.start = end.saturating_sub(Duration::from_nanos(ns));
                        }
                    }
                }
            }
        }
        last
    }

    /// Spans of operation `op` with their self times in milliseconds.
    fn self_times(&self, op: u64) -> Vec<(usize, f64)> {
        let members: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].op == op)
            .collect();
        members
            .iter()
            .map(|&i| {
                let span = &self.spans[i];
                let mut covered: Vec<(Duration, Duration)> = members
                    .iter()
                    .map(|&c| &self.spans[c])
                    .filter(|c| c.parent == i + 1)
                    .map(|c| (c.start.max(span.start), c.end.min(span.end)))
                    .filter(|(s, e)| e > s)
                    .collect();
                covered.sort();
                let mut total = Duration::ZERO;
                let mut reach = span.start;
                for (s, e) in covered {
                    let s = s.max(reach);
                    if e > s {
                        total += e - s;
                        reach = e;
                    }
                }
                (i, span.ms() - total.as_secs_f64() * 1e3)
            })
            .collect()
    }

    /// Self time per layer for operation `op`, in milliseconds.
    pub fn layer_self_ms(&self, op: u64) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (i, ms) in self.self_times(op) {
            *out.entry(self.spans[i].layer).or_insert(0.0) += ms;
        }
        out
    }

    /// Total duration of the spans named `name` in operation `op`.
    pub fn total_ms(&self, op: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Total self time of the spans named `name` in operation `op`.
    pub fn self_ms(&self, op: u64, name: &str) -> f64 {
        self.self_times(op)
            .into_iter()
            .filter(|&(i, _)| self.spans[i].name == name)
            .map(|(_, ms)| ms)
            .sum()
    }

    /// The recorded spans as a chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start.as_secs_f64() * 1e6)),
                    (
                        "dur",
                        Json::Num(s.end.saturating_sub(s.start).as_secs_f64() * 1e6),
                    ),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::obj([
                            ("op", Json::Int(s.op)),
                            ("span", Json::Int(i as u64 + 1)),
                            ("parent", Json::Int(s.parent as u64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, layer: &'static str, ms: (u64, u64), parent: usize) -> Span {
        Span {
            name,
            layer,
            start: Duration::from_millis(ms.0),
            end: Duration::from_millis(ms.1),
            parent,
            op: 7,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // op [0, 100) ⊃ run [10, 90) ⊃ iteration [20, 50) and [40, 60)
        // (overlapping children are counted once).
        let rec = Recorder {
            spans: vec![
                span("op", HARNESS, (0, 100), 0),
                span("JitEngine::run", "exec", (10, 90), 1),
                span("iteration", "exec", (20, 50), 2),
                span("iteration", "exec", (40, 60), 2),
            ],
            ..Recorder::default()
        };
        let layers = rec.layer_self_ms(7);
        assert!((layers[HARNESS] - 20.0).abs() < 1e-9);
        // run self = 80 - 40; iterations = 30 + 20 with no children.
        assert!((layers["exec"] - (40.0 + 50.0)).abs() < 1e-9);
        assert!((rec.self_ms(7, "JitEngine::run") - 40.0).abs() < 1e-9);
        assert!((rec.total_ms(7, "iteration") - 50.0).abs() < 1e-9);
        assert_eq!(rec.layer_self_ms(8).len(), 0);
    }

    #[test]
    fn harness_calls_nest() {
        let mut rec = Recorder::default();
        rec.begin_op(1, "op");
        let ((), outer) = rec.call("storage", "outer", || {});
        rec.end_op();
        assert_eq!(rec.spans[outer].parent, 1);
        assert_eq!(rec.spans[0].parent, 0);
        assert_eq!(rec.spans[outer].op, 1);
    }
}
