//! Deterministic virtual-time observability for the Hi-WAY reproduction.
//!
//! The paper's evaluation is built on *watching* the system — Figure 6
//! monitors per-node resource usage, and §3.5's provenance traces exist so
//! that a run can be audited after the fact. This crate provides that
//! visibility for every simulated subsystem:
//!
//! * [`trace::Tracer`] — a span/event/counter sink on **virtual time**. No
//!   wall-clock ever enters the trace, so the same seed produces the same
//!   bytes. Disabled tracers are a `None` behind one pointer; every record
//!   call is an inlined early-return with zero allocation.
//! * [`metrics::MetricsRegistry`] — counters, gauges, and fixed-bucket
//!   histograms with a deterministic (sorted) layout.
//! * [`audit::Decision`] — the scheduler decision audit log: for each
//!   placement, the candidates considered, their scores, and why the
//!   winner won.
//! * [`export`] — three renderers over a finished trace: Chrome
//!   trace-event JSON (loadable in Perfetto), a JSON-lines event log, and
//!   a plain-text per-node Gantt chart.
//! * [`profile`] — a wall-clock split of the simulator's hot sections,
//!   off by default and kept apart from every deterministic export.
//!
//! Determinism rules (also in DESIGN.md):
//! 1. Timestamps are simulation seconds (`f64`), never wall-clock.
//! 2. Events export in insertion order; metrics in `BTreeMap` order.
//! 3. All formatting uses fixed precision; no pointers, hashes with
//!    ambient state, or platform-dependent iteration order.

pub mod audit;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use audit::{CandidateScore, Decision, DecisionKind, QueueAudit, QueueEventKind};
pub use metrics::{Histogram, MetricsRegistry};
pub use trace::{TraceData, TraceEvent, Tracer, TrackId};

/// Escapes a string for embedding in a JSON document. Minimal but
/// complete for the ASCII control range; deterministic by construction.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
