//! Structured span tracing: line-oriented JSON trace events emitted
//! through a thread-local per-job context.
//!
//! The design point is *zero-cost-when-off*: instrumentation sites call
//! [`emit_with`] with a closure, and when no context is installed the
//! call is a single thread-local boolean read — the closure never runs,
//! no event is built, no allocation happens. When a context *is*
//! installed (the service wraps each job's execution in [`with_job`]),
//! the closure builds a [`TraceEvent`] and the context's [`TraceSink`]
//! receives it.
//!
//! Emission only ever *reads* search state; sinks receive events but
//! cannot influence the search. That is what keeps results seed-for-seed
//! bit-identical whether tracing is on or off.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::clock::Stamp;

/// One structured trace event. `kind` is a small closed vocabulary
/// ("job_start", "round", "best", "epoch", "walk_memo", "job_end");
/// the other fields are optional payload — unset fields are omitted
/// from the JSON line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceEvent {
    /// Event kind (see module docs for the vocabulary).
    pub kind: &'static str,
    /// Free-form label (strategy name, member id, error text).
    pub label: String,
    /// Search round index, when the event is round-scoped.
    pub round: Option<u64>,
    /// Evaluations spent at emission time.
    pub evaluations: u64,
    /// Best-so-far (or event-relevant) cost.
    pub cost: Option<f64>,
    /// Per-member `(member, evaluations)` budgets for "round" events.
    pub members: Vec<(u64, u64)>,
    /// Surviving member indices for "round" events.
    pub survivors: Vec<u64>,
    /// Named integer counters ("epoch" accept/reject streams,
    /// "walk_memo" hit/miss/eviction counters).
    pub counters: Vec<(&'static str, u64)>,
    /// Microseconds since the enclosing job context was installed.
    /// Stamped by [`emit_with`]; purely informational.
    pub elapsed_us: u64,
}

impl TraceEvent {
    /// A blank event of the given kind.
    pub fn new(kind: &'static str) -> Self {
        Self {
            kind,
            ..Self::default()
        }
    }

    /// Serializes the event as one JSON line for job `job` (no trailing
    /// newline). Field order is fixed, so identical events always
    /// produce identical lines.
    pub fn to_json_line(&self, job: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"job\":{job},\"kind\":\"{}\"",
            crate::json::escape(self.kind)
        );
        if !self.label.is_empty() {
            let _ = write!(out, ",\"label\":\"{}\"", crate::json::escape(&self.label));
        }
        if let Some(round) = self.round {
            let _ = write!(out, ",\"round\":{round}");
        }
        if self.evaluations > 0 {
            let _ = write!(out, ",\"evaluations\":{}", self.evaluations);
        }
        if let Some(cost) = self.cost {
            let _ = write!(out, ",\"cost\":{}", crate::json::number(cost));
        }
        if !self.members.is_empty() {
            out.push_str(",\"members\":[");
            for (i, (member, evals)) in self.members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{member},{evals}]");
            }
            out.push(']');
        }
        if !self.survivors.is_empty() {
            out.push_str(",\"survivors\":[");
            for (i, s) in self.survivors.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{s}");
            }
            out.push(']');
        }
        if !self.counters.is_empty() {
            out.push_str(",\"counters\":{");
            for (i, (name, value)) in self.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{value}", crate::json::escape(name));
            }
            out.push('}');
        }
        let _ = write!(out, ",\"elapsed_us\":{}}}", self.elapsed_us);
        out
    }
}

/// Receives trace events. Implementations must tolerate concurrent
/// calls from multiple worker threads (distinct jobs trace in
/// parallel) and must never feed anything back into the search.
pub trait TraceSink: Send + Sync {
    /// Records one event for job `job`.
    fn record(&self, job: u64, event: &TraceEvent);
}

/// Buffers events in memory; the determinism tests and unit tests use
/// it to assert on emission without I/O.
#[derive(Debug, Default)]
// noc-verify: allow(API02) — test fixture: the trace and determinism tests capture events in it
pub struct MemorySink {
    events: Mutex<Vec<(u64, TraceEvent)>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains and returns everything recorded so far.
    pub fn take(&self) -> Vec<(u64, TraceEvent)> {
        std::mem::take(&mut *self.events.lock().expect("trace sink lock poisoned"))
    }

    /// Number of events recorded (without draining).
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink lock poisoned").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, job: u64, event: &TraceEvent) {
        self.events
            .lock()
            .expect("trace sink lock poisoned")
            .push((job, event.clone()));
    }
}

/// Writes each event as one JSON line to the wrapped writer (a file,
/// usually). Write errors are swallowed: observability must never fail
/// the workload it observes.
pub struct JsonLinesSink {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl JsonLinesSink {
    /// Wraps `writer`; each recorded event becomes one line.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        Self {
            writer: Mutex::new(writer),
        }
    }
}

impl TraceSink for JsonLinesSink {
    fn record(&self, job: u64, event: &TraceEvent) {
        let line = event.to_json_line(job);
        let mut writer = self.writer.lock().expect("trace sink lock poisoned");
        let _ = writeln!(writer, "{line}");
        let _ = writer.flush();
    }
}

struct Context {
    job: u64,
    sink: Arc<dyn TraceSink>,
    start: Stamp,
}

thread_local! {
    /// Fast-path flag mirroring `CONTEXT.is_some()`; `emit_with` reads
    /// only this when tracing is off.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CONTEXT: RefCell<Option<Context>> = const { RefCell::new(None) };
}

/// True when the calling thread has a trace context installed.
/// Instrumentation sites with non-trivial event-building work can gate
/// on this before even gathering payload.
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Runs `f` with a per-job trace context installed on this thread;
/// every [`emit_with`] inside attributes its events to `job` and
/// delivers them to `sink`. Contexts nest: the previous one (if any) is
/// restored when `f` returns, including on panic.
pub fn with_job<T>(job: u64, sink: Arc<dyn TraceSink>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Context>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            ACTIVE.with(|a| a.set(previous.is_some()));
            CONTEXT.with(|c| *c.borrow_mut() = previous);
        }
    }

    let previous = CONTEXT.with(|c| {
        c.borrow_mut().replace(Context {
            job,
            sink,
            start: crate::clock::stamp(),
        })
    });
    ACTIVE.with(|a| a.set(true));
    let _restore = Restore(previous);
    f()
}

/// Emits a trace event if (and only if) the calling thread has a
/// context installed. `build` runs only in that case, so gathering
/// payload costs nothing when tracing is off.
pub fn emit_with(build: impl FnOnce() -> TraceEvent) {
    if !active() {
        return;
    }
    // Clone the delivery handle out of the thread-local borrow before
    // calling the sink, so a sink that itself traces cannot hit a
    // re-entrant borrow.
    let delivery = CONTEXT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (ctx.job, Arc::clone(&ctx.sink), ctx.start))
    });
    let Some((job, sink, start)) = delivery else {
        return;
    };
    let mut event = build();
    event.elapsed_us = start.elapsed_us();
    sink.record(job, &event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_outside_a_context_is_a_no_op() {
        assert!(!active());
        emit_with(|| panic!("builder must not run without a context"));
    }

    #[test]
    fn with_job_attributes_events_and_restores() {
        let sink = Arc::new(MemorySink::new());
        let value = with_job(7, sink.clone() as Arc<dyn TraceSink>, || {
            assert!(active());
            emit_with(|| {
                let mut e = TraceEvent::new("best");
                e.evaluations = 10;
                e.cost = Some(1.5);
                e
            });
            42
        });
        assert_eq!(value, 42);
        assert!(!active());
        let events = sink.take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, 7);
        assert_eq!(events[0].1.kind, "best");
        assert_eq!(events[0].1.cost, Some(1.5));
    }

    #[test]
    fn contexts_nest_and_restore_the_outer_job() {
        let sink = Arc::new(MemorySink::new());
        with_job(1, sink.clone() as Arc<dyn TraceSink>, || {
            with_job(2, sink.clone() as Arc<dyn TraceSink>, || {
                emit_with(|| TraceEvent::new("inner"));
            });
            emit_with(|| TraceEvent::new("outer"));
        });
        let events = sink.take();
        assert_eq!(
            events
                .iter()
                .map(|(job, e)| (*job, e.kind))
                .collect::<Vec<_>>(),
            vec![(2, "inner"), (1, "outer")]
        );
    }

    #[test]
    fn json_line_is_stable_and_omits_unset_fields() {
        let mut event = TraceEvent::new("round");
        event.round = Some(3);
        event.evaluations = 120;
        event.cost = Some(2.25);
        event.members = vec![(0, 60), (1, 60)];
        event.survivors = vec![1];
        event.elapsed_us = 9;
        assert_eq!(
            event.to_json_line(5),
            "{\"job\":5,\"kind\":\"round\",\"round\":3,\"evaluations\":120,\
             \"cost\":2.25,\"members\":[[0,60],[1,60]],\"survivors\":[1],\
             \"elapsed_us\":9}"
        );
        let bare = TraceEvent::new("job_end");
        assert_eq!(
            bare.to_json_line(0),
            "{\"job\":0,\"kind\":\"job_end\",\"elapsed_us\":0}"
        );
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let buffer = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonLinesSink::new(Box::new(Shared(buffer.clone())));
        sink.record(1, &TraceEvent::new("a"));
        sink.record(2, &TraceEvent::new("b"));
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
