//! Shared per-instance simulation context.
//!
//! Every pipeline stage of a simulated component needs the same ambient
//! services: the current cycle, the statistics registry and the trace
//! hooks. [`SimContext`] bundles them so stages can
//! be written — and unit-tested — against one small struct instead of
//! reaching into their owning component.

use crate::clock::Cycle;
use crate::stats::Stats;
use crate::trace::{TraceBuffer, TraceKind};

/// Ambient simulation services shared by the stages of one component.
#[derive(Debug)]
pub struct SimContext {
    /// The cycle the component is currently processing (updated by the
    /// component's `tick` before any stage runs).
    pub now: Cycle,
    /// Statistics registry for the whole instance.
    pub stats: Stats,
    /// Trace hooks (disabled by default; see [`SimContext::enable_trace`]).
    pub trace: TraceBuffer,
}

impl SimContext {
    /// A fresh context at cycle zero with tracing disabled.
    #[must_use]
    pub fn new() -> Self {
        SimContext {
            now: Cycle(0),
            stats: Stats::new(),
            trace: TraceBuffer::disabled(),
        }
    }

    /// Marks the start of a component tick.
    pub fn advance(&mut self, now: Cycle) {
        self.now = now;
    }

    /// Switches tracing on with a bounded buffer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceBuffer::with_capacity(capacity);
    }

    /// Emits a trace event stamped with the context's current cycle.
    pub fn emit(&mut self, kind: TraceKind, unit: &'static str, what: String) {
        self.trace.emit(self.now, kind, unit, what);
    }

    /// Emits a trace event whose detail is built only when tracing is on —
    /// the hot-path form of [`emit`](SimContext::emit).
    pub fn emit_with(
        &mut self,
        kind: TraceKind,
        unit: &'static str,
        what: impl FnOnce() -> String,
    ) {
        self.trace.emit_with(self.now, kind, unit, what);
    }
}

impl Default for SimContext {
    fn default() -> Self {
        SimContext::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_counts() {
        let mut ctx = SimContext::new();
        assert_eq!(ctx.now, Cycle(0));
        ctx.advance(Cycle(42));
        assert_eq!(ctx.now, Cycle(42));
        ctx.stats.incr("ctx.test");
        assert_eq!(ctx.stats.get("ctx.test"), 1);
    }

    #[test]
    fn trace_stamps_current_cycle() {
        let mut ctx = SimContext::new();
        ctx.enable_trace(4);
        ctx.advance(Cycle(9));
        ctx.emit(TraceKind::Other, "test", "hello".into());
        let events: Vec<_> = ctx.trace.events().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at, Cycle(9));
    }
}
