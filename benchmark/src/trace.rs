//! In-memory spans for the traced run, their self times, and the trace
//! file written at exit through `cm-trace`'s JSON emitter.
//!
//! Every span is recorded by the harness around a call into a public
//! function (or copied from the pool's own slice spans); nothing inside
//! the program is instrumented.

use std::time::Instant;

use cm_trace::Json;

/// One completed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `compiler` or `vm.snapshot.encode`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or replay pass) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An append-only span log with one time origin.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty log whose origin is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t` (0 before the origin).
    pub fn ns(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.origin)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }

    /// Records `[start, end]` and returns the span's index, for use as
    /// a later span's parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.push(span)
    }

    /// Opens a span starting now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Appends an already-built span, returning its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Durations (ms) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Each span's self time in nanoseconds: its duration minus the part
    /// of its interval that its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The smallest share of a `request` span that its children's self
    /// times cover (1.0 when there are no request spans).
    pub fn child_cover_min(&self) -> f64 {
        let selfs = self.self_times();
        let mut kid_self = vec![0u64; self.spans.len()];
        for (s, own) in self.spans.iter().zip(&selfs) {
            if let Some(p) = s.parent {
                kid_self[p] += own;
            }
        }
        self.spans
            .iter()
            .zip(kid_self)
            .filter(|(s, _)| s.name == "request" && s.end_ns > s.start_ns)
            .map(|(s, kids)| kids as f64 / (s.end_ns - s.start_ns) as f64)
            .fold(1.0, f64::min)
    }

    /// The trace file: every span, plus total and median self time per
    /// span name, plus whatever `extra` fields the caller adds.
    pub fn to_json(&self, extra: Vec<(String, Json)>) -> Json {
        let selfs = self.self_times();
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let self_ms = names
            .iter()
            .map(|&name| {
                let mut own: Vec<f64> = self
                    .spans
                    .iter()
                    .zip(&selfs)
                    .filter(|(s, _)| s.name == name)
                    .map(|(_, &ns)| ns as f64 / 1e6)
                    .collect();
                let total: f64 = own.iter().sum();
                let row = Json::Obj(vec![
                    ("spans".into(), Json::num(own.len() as u64)),
                    ("total_ms".into(), Json::Num(total)),
                    (
                        "median_ms".into(),
                        Json::Num(crate::stats::median(&mut own)),
                    ),
                ]);
                (name.to_string(), row)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("start_ns".into(), Json::num(s.start_ns)),
                    ("end_ns".into(), Json::num(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::num(p as u64)),
                    ),
                    ("request".into(), Json::num(s.request)),
                ])
            })
            .collect();
        let mut fields = extra;
        fields.push(("self_ms".into(), Json::Obj(self_ms)));
        fields.push(("spans".into(), Json::Arr(spans)));
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let r = t.push(span("request", 0, 100, None));
        t.push(span("compiler", 10, 40, Some(r)));
        t.push(span("vm.run", 30, 90, Some(r)));
        assert_eq!(t.self_times(), vec![20, 30, 60]);
        assert!((t.child_cover_min() - 0.9).abs() < 1e-12);
    }
}
