//! Span recording for the traced run. Spans are recorded by the
//! benchmark's own code around calls into each layer's public functions,
//! kept in memory, and written out once at exit; tracing inside the
//! program under test is a later issue.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed call: `parent` is the span that caused it, and every span
/// of one operation shares `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Single-threaded span recorder (the traced replay is single-threaded).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u32) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        // Read the clock last so bookkeeping is charged to the parent.
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    /// Close `id` (and anything left open inside it).
    pub fn exit(&mut self, id: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, op_id: u32, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op_id);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children are clipped to the parent and
/// overlapping children are merged, so time is never subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Durations (ns) of every span with a given name.
pub fn durations<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = u64> + 'a {
    spans
        .iter()
        .filter(move |s| s.name == name)
        .map(Span::duration_ns)
}

/// Self time summed per layer over the spans whose root is named `root`,
/// plus the total duration of those roots. The root's own self time is
/// charged to the layer `bench` (the harness glue between calls).
pub fn layer_self_times(spans: &[Span], root: &str) -> (BTreeMap<&'static str, u64>, u64) {
    let selfs = self_times(spans);
    let mut in_tree = vec![false; spans.len()];
    let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = 0u64;
    // Parents always precede their children in recording order.
    for (i, span) in spans.iter().enumerate() {
        match span.parent {
            None if span.name == root => {
                in_tree[i] = true;
                total += span.duration_ns();
                *layers.entry("bench").or_default() += selfs[i];
            }
            Some(p) if in_tree[p as usize] => {
                in_tree[i] = true;
                *layers.entry(span.layer()).or_default() += selfs[i];
            }
            _ => {}
        }
    }
    (layers, total)
}

/// The trace file: one object per span.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start", Json::Int(s.start_ns as i64)),
                    ("end", Json::Int(s.end_ns as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Int(-1), |p| Json::Int(i64::from(p))),
                    ),
                    ("op_id", Json::Int(i64::from(s.op_id))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("engine.exec", 10, 60, Some(0)),
            span("core.lookup", 20, 40, Some(1)),
            span("serve.encode", 70, 90, Some(0)),
        ];
        // op: 100 - (50 + 20); exec: 50 - 20; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![30, 30, 20, 20]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips_to_parent() {
        let spans = vec![
            span("op", 100, 200, None),
            // Two parallel children overlapping on 130..150.
            span("a.x", 110, 150, Some(0)),
            span("b.y", 130, 170, Some(0)),
            // A child that outlives its parent is clipped at 200.
            span("c.z", 190, 260, Some(0)),
            // A child entirely outside the parent covers nothing.
            span("d.w", 300, 310, Some(0)),
        ];
        // Covered: 110..170 (60) + 190..200 (10) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn layers_sum_to_the_root_total() {
        let spans = vec![
            span("op", 0, 100, None),
            span("engine.parse", 0, 30, Some(0)),
            span("engine.exec", 30, 80, Some(0)),
            span("core.lookup", 40, 50, Some(2)),
            span("serve.roundtrip", 200, 900, None), // another root: ignored
            span("op", 1000, 1010, None),
        ];
        let (layers, total) = layer_self_times(&spans, "op");
        assert_eq!(total, 110);
        assert_eq!(layers["engine"], 30 + 40);
        assert_eq!(layers["core"], 10);
        assert_eq!(layers["bench"], 20 + 10);
        assert_eq!(layers.values().sum::<u64>(), total);
        assert!(!layers.contains_key("serve"));
    }

    #[test]
    fn tracer_nests_and_closes_abandoned_children() {
        let mut t = Tracer::new();
        let op = t.enter("op", 7);
        let inner = t.enter("engine.exec", 7);
        let _leaked = t.enter("core.lookup", 7);
        t.exit(inner); // closes the leaked child too
        t.span("serve.encode", 7, || ());
        t.exit(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.op_id == 7));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        assert_eq!(spans[2].layer(), "core");
    }
}
