//! Bounded execution tracing.
//!
//! Traces are how the figure harnesses explain *why* a configuration behaved
//! as it did (e.g. which walker yielded when). The buffer is bounded so that
//! long runs cannot exhaust memory; once full it drops the oldest events.

use std::collections::VecDeque;
use std::fmt;

use crate::Cycle;

/// Category of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A meta-tag probe hit.
    Hit,
    /// A meta-tag probe miss (walker launch).
    Miss,
    /// A walker yielded the pipeline (long-latency event).
    Yield,
    /// A walker was woken by an event.
    Wake,
    /// A walker finished and released its resources.
    Retire,
    /// A DRAM transaction was issued.
    DramIssue,
    /// A DRAM response arrived.
    DramResp,
    /// A queue push was rejected (back-pressure).
    Stall,
    /// Anything else; see the event's text.
    Other,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::Hit => "hit",
            TraceKind::Miss => "miss",
            TraceKind::Yield => "yield",
            TraceKind::Wake => "wake",
            TraceKind::Retire => "retire",
            TraceKind::DramIssue => "dram-issue",
            TraceKind::DramResp => "dram-resp",
            TraceKind::Stall => "stall",
            TraceKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened.
    pub at: Cycle,
    /// Event category.
    pub kind: TraceKind,
    /// Originating component.
    pub source: &'static str,
    /// Free-form detail (walker id, address, key...).
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}] {:<10} {:<12} {}",
            self.at.raw(),
            self.kind,
            self.source,
            self.detail
        )
    }
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// Disabled by default: a buffer built with capacity 0 ignores all events,
/// so models can call [`TraceBuffer::emit`] unconditionally with no cost
/// beyond a branch.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a disabled buffer (capacity zero, all events ignored).
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Creates a buffer retaining the most recent `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuffer {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an event, evicting the oldest if the buffer is full.
    pub fn emit(&mut self, at: Cycle, kind: TraceKind, source: &'static str, detail: String) {
        self.emit_with(at, kind, source, || detail);
    }

    /// Records an event whose detail string is built only if the buffer is
    /// enabled. Hot paths use this so that a disabled trace costs one branch
    /// instead of a `format!` allocation per event.
    pub fn emit_with(
        &mut self,
        at: Cycle,
        kind: TraceKind,
        source: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            at,
            kind,
            source,
            detail: detail(),
        });
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events evicted due to capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Retained events matching `kind`, oldest first.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Number of retained events matching `kind`.
    ///
    /// Only meaningful as a total count when nothing has been dropped —
    /// cross-validation harnesses that tap the trace as a third opinion on
    /// hit/miss totals must size the buffer to the run and check
    /// [`TraceBuffer::dropped`] before trusting this.
    #[must_use]
    pub fn count_of_kind(&self, kind: TraceKind) -> u64 {
        self.of_kind(kind).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_ignores_events() {
        let mut t = TraceBuffer::disabled();
        t.emit(Cycle(1), TraceKind::Hit, "x", "k=1".into());
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn bounded_retention_drops_oldest() {
        let mut t = TraceBuffer::with_capacity(2);
        for i in 0..4u64 {
            t.emit(Cycle(i), TraceKind::Miss, "c", format!("{i}"));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 2);
        // The survivors keep the cycle each was emitted at.
        let kept: Vec<_> = t.events().map(|e| (e.at, e.detail.as_str())).collect();
        assert_eq!(kept, vec![(Cycle(2), "2"), (Cycle(3), "3")]);
    }

    #[test]
    fn filtering_by_kind() {
        let mut t = TraceBuffer::with_capacity(8);
        t.emit(Cycle(0), TraceKind::Hit, "c", "a".into());
        t.emit(Cycle(1), TraceKind::Miss, "c", "b".into());
        t.emit(Cycle(2), TraceKind::Hit, "c", "c".into());
        assert_eq!(t.of_kind(TraceKind::Hit).count(), 2);
        assert_eq!(t.of_kind(TraceKind::Yield).count(), 0);
    }

    #[test]
    fn display_formats_fields() {
        let e = TraceEvent {
            at: Cycle(7),
            kind: TraceKind::Wake,
            source: "ctrl",
            detail: "walker 3".into(),
        };
        let s = e.to_string();
        assert!(s.contains("wake"));
        assert!(s.contains("walker 3"));
        assert!(s.contains('7'));
    }
}
