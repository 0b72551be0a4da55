//! Wall-clock spans for engines, scheduler slices, and pool workers —
//! the timeline data `cm-trace` exports as Chrome `trace_event` JSON.
//!
//! Span recording lives here (not in `cm-trace`) because the engines
//! layer owns the timing boundaries: the [`Scheduler`](crate::Scheduler)
//! knows when a slice of which task starts and stops, and the pool knows
//! which worker everything happened on and when work moved. `cm-trace`
//! depends on this crate and only *serializes* the spans.
//!
//! Everything is microseconds relative to a [`SpanLog`]'s origin
//! instant. Pool workers share one origin (the pool's start), so spans
//! from different worker threads line up on one timeline.

use std::time::Instant;

/// One completed interval on the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Display name (task or engine label).
    pub name: String,
    /// Category: `"slice"` (one scheduler pick), `"steal"` / `"migrate"`
    /// (a cross-worker move, zero length), `"worker"` (one pool worker's
    /// whole run), or `"pool"` (the batch's metrics).
    pub cat: &'static str,
    /// Timeline lane: the pool worker index (0 outside a pool).
    pub tid: u32,
    /// Start, microseconds since the log's origin.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small key/value payload (steps executed, outcome, fuel).
    pub args: Vec<(&'static str, String)>,
}

/// An append-only span collection with a fixed time origin.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// Creates a log whose origin is now.
    pub fn new() -> SpanLog {
        SpanLog::with_origin(Instant::now())
    }

    /// Creates a log with an explicit origin (pool workers share the
    /// pool's start so their lanes align).
    pub fn with_origin(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// The log's origin instant.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a completed interval.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u32,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, String)>,
    ) {
        let start_us = start
            .checked_duration_since(self.origin)
            .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        let dur_us = end
            .checked_duration_since(start)
            .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        self.spans.push(Span {
            name: name.into(),
            cat,
            tid,
            start_us,
            dur_us,
            args,
        });
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the log, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_are_relative_to_origin() {
        let origin = Instant::now();
        let mut log = SpanLog::with_origin(origin);
        let start = origin + Duration::from_micros(100);
        let end = start + Duration::from_micros(250);
        log.record("t", "slice", 3, start, end, vec![("steps", "7".into())]);
        let s = &log.spans()[0];
        assert_eq!(s.start_us, 100);
        assert_eq!(s.dur_us, 250);
        assert_eq!(s.tid, 3);
        assert_eq!(s.cat, "slice");
    }

    #[test]
    fn pre_origin_start_clamps_to_zero() {
        let mut log = SpanLog::new();
        let way_back = Instant::now() - Duration::from_secs(1);
        log.record("t", "worker", 0, way_back, Instant::now(), vec![]);
        assert_eq!(log.spans()[0].start_us, 0);
    }
}
