//! Completion slots connecting submitters to shard workers.
//!
//! Every submitted batch gets one [`ReplySet`] with a slot per operation.
//! Operations fan out to different shards; each worker fills its slot on
//! completion and the last fill wakes the waiter. This is the zero-copy
//! in-process reply path — no channel per request, one `Arc` per batch.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use obsv::trace::{TraceCtx, TraceOutcome};

use crate::wire::Response;

struct State {
    replies: Vec<Option<Response>>,
    remaining: usize,
    /// Sampled trace context and root start time, if this batch is traced.
    /// The last [`complete`](ReplySet::complete) closes the root span —
    /// the mutex gives every worker's span a happens-before edge to that
    /// harvest.
    trace: Option<(TraceCtx, u64)>,
}

/// The root outcome a batch's replies imply, worst first: a kill beats a
/// deadline miss beats admission shedding beats a decode error or a write
/// the index refused.
fn worst_outcome(replies: &[Option<Response>]) -> TraceOutcome {
    let mut worst = TraceOutcome::Ok;
    for r in replies.iter().flatten() {
        let o = match r {
            Response::Aborted => TraceOutcome::Aborted,
            Response::DeadlineExceeded => TraceOutcome::DeadlineExceeded,
            Response::Overloaded => TraceOutcome::Overloaded,
            Response::Malformed | Response::Failed => TraceOutcome::Error,
            _ => TraceOutcome::Ok,
        };
        if rank(o) > rank(worst) {
            worst = o;
        }
    }
    worst
}

fn rank(o: TraceOutcome) -> u8 {
    match o {
        TraceOutcome::Ok => 0,
        TraceOutcome::Error => 1,
        TraceOutcome::Overloaded => 2,
        TraceOutcome::DeadlineExceeded => 3,
        TraceOutcome::Aborted => 4,
    }
}

/// Completion state of one submitted batch.
pub struct ReplySet {
    state: Mutex<State>,
    cv: Condvar,
}

impl ReplySet {
    /// A set awaiting `n` replies.
    pub(crate) fn new(n: usize) -> Arc<ReplySet> {
        Arc::new(ReplySet {
            state: Mutex::new(State {
                replies: vec![None; n],
                remaining: n,
                trace: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Attaches a sampled trace context; the last `complete` then closes
    /// the root span with the batch's worst outcome. Must be called before
    /// any slot can complete (i.e. before the jobs are enqueued).
    pub(crate) fn set_trace(&self, ctx: TraceCtx, start_ns: u64) {
        self.state.lock().unwrap().trace = Some((ctx, start_ns));
    }

    /// Fills `slot`; the final fill wakes waiters. Filling a slot twice is
    /// a logic error and panics (each op has exactly one completer).
    pub(crate) fn complete(&self, slot: usize, resp: Response) {
        let mut st = self.state.lock().unwrap();
        assert!(st.replies[slot].is_none(), "slot {slot} completed twice");
        st.replies[slot] = Some(resp);
        st.remaining -= 1;
        if st.remaining == 0 {
            let trace = st.trace.take();
            let outcome = trace.map(|_| worst_outcome(&st.replies));
            drop(st);
            if let Some((ctx, start_ns)) = trace {
                // Every worker recorded its spans before its `complete`
                // call took this mutex, so the harvest sees them all.
                obsv::trace::finish_root(ctx, start_ns, outcome.unwrap());
            }
            self.cv.notify_all();
        }
    }

    /// Whether every slot has been filled.
    pub fn is_done(&self) -> bool {
        self.state.lock().unwrap().remaining == 0
    }

    /// Blocks until every slot is filled and returns the replies in
    /// operation order.
    pub fn wait(&self) -> Vec<Response> {
        let mut st = self.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.cv.wait(st).unwrap();
        }
        st.replies.iter().map(|r| r.unwrap()).collect()
    }

    /// Like [`wait`](Self::wait) with a bound; `None` on timeout (slots may
    /// still complete later — the set stays valid).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Vec<Response>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        while st.remaining > 0 {
            let left = deadline.checked_duration_since(std::time::Instant::now())?;
            let (guard, res) = self.cv.wait_timeout(st, left).unwrap();
            st = guard;
            if res.timed_out() && st.remaining > 0 {
                return None;
            }
        }
        Some(st.replies.iter().map(|r| r.unwrap()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_in_any_order_and_wakes_waiter() {
        let rs = ReplySet::new(3);
        let rs2 = Arc::clone(&rs);
        let h = std::thread::spawn(move || rs2.wait());
        rs.complete(2, Response::Ok);
        rs.complete(0, Response::Value(Some(1)));
        assert!(!rs.is_done());
        rs.complete(1, Response::Overloaded);
        let replies = h.join().unwrap();
        assert_eq!(
            replies,
            vec![Response::Value(Some(1)), Response::Overloaded, Response::Ok]
        );
    }

    #[test]
    fn wait_timeout_expires_then_completes() {
        let rs = ReplySet::new(1);
        assert_eq!(rs.wait_timeout(Duration::from_millis(10)), None);
        rs.complete(0, Response::Ok);
        assert_eq!(
            rs.wait_timeout(Duration::from_millis(10)),
            Some(vec![Response::Ok])
        );
    }
}
