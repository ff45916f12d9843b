//! The harness's own spans: recorded in memory around the calls into each
//! layer (nothing inside the crates is instrumented), written out once at
//! exit in Chrome/Perfetto trace-event form like the repo's other exports.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Recorder`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one request (one operation or batch) share this.
    pub request_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since this recorder was made: the trace's time axis.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        request_id: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// microsecond timestamps, all on one track (one thread issued them).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"pacbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request_id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.request_id,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
            );
        }
        out.push_str("]}");
        out
    }
}

/// A span's self time: its duration minus the part its children cover.
/// Children of one parent are issued one after another here, so the covered
/// part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn sample() -> Recorder {
        let mut r = Recorder::new();
        let root = r.record("request", 100, 1_100, NO_PARENT, 7);
        r.record("ycsb.gen", 100, 300, root, 7);
        let call = r.record("pacsrv.transport.tcp_call", 300, 1_000, root, 7);
        r.record("inner", 400, 900, call, 7);
        r.record("verify", 1_000, 1_050, root, 7);
        r
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let r = sample();
        // request: 1000 - (200 + 700 + 50); call: 700 - 500; leaves keep all.
        assert_eq!(self_times(r.spans()), vec![50, 200, 200, 500, 50]);
        // A child recorded longer than its parent (clock granularity) clamps.
        let mut r = Recorder::new();
        let root = r.record("request", 0, 10, NO_PARENT, 1);
        r.record("call", 0, 12, root, 1);
        assert_eq!(self_times(r.spans())[0], 0);
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let doc = json::parse(&sample().chrome_json()).expect("valid json");
        let Some(Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 5);
        assert_eq!(complete[2].get("ts").and_then(Value::as_f64), Some(0.3));
        assert_eq!(complete[2].get("dur").and_then(Value::as_f64), Some(0.7));
        let args = complete[3].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(2.0));
        assert_eq!(args.get("request_id").and_then(Value::as_f64), Some(7.0));
    }
}
