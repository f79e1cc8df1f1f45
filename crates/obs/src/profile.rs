//! Wall-clock profile of the simulator's hot sections.
//!
//! A fixed table of named [`Section`]s, each with a call count and total
//! nanoseconds, kept per thread. Profiling is off by default: a
//! [`section`] guard then costs one thread-local flag check and reads no
//! clock. When on, a guard reads [`Instant::now`] at creation and adds
//! the elapsed nanoseconds to its section when dropped. Nothing here
//! touches the virtual-time trace or any other deterministic export; the
//! numbers are for a human reading a split, never for a golden file.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// A profiled section. The fill sections are disjoint from the engine's:
/// the fill runs between the CPU refresh and the copy-out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// A max-min fill's start: the replay check and the restore of the
    /// first round it must run, or the fresh start.
    FillRestore,
    /// The fill's per-round charge of the live constraints.
    FillCharge,
    /// The fill's per-round freezing of flows.
    FillFreeze,
    /// The fill's per-round count decrements and live-list retain.
    FillRetain,
    /// Copying the fill's rates into the engine and the watched sums.
    CopyOut,
    /// Rerunning CPU fair-sharing on the nodes whose compute set changed.
    CpuRefresh,
    /// The scan for the next completion.
    Peek,
    /// Settling every live activity's remaining work over a step.
    Settle,
    /// Collecting the activities that completed at a step.
    CompletionScan,
    /// Popping the due timers.
    TimerPop,
}

const SECTIONS: usize = 10;

impl Section {
    /// Every section, in report order.
    pub const ALL: [Section; SECTIONS] = [
        Section::FillRestore,
        Section::FillCharge,
        Section::FillFreeze,
        Section::FillRetain,
        Section::CopyOut,
        Section::CpuRefresh,
        Section::Peek,
        Section::Settle,
        Section::CompletionScan,
        Section::TimerPop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Section::FillRestore => "fill.restore",
            Section::FillCharge => "fill.charge",
            Section::FillFreeze => "fill.freeze",
            Section::FillRetain => "fill.retain",
            Section::CopyOut => "engine.copy_out",
            Section::CpuRefresh => "engine.cpu_refresh",
            Section::Peek => "engine.peek",
            Section::Settle => "engine.settle",
            Section::CompletionScan => "engine.completion_scan",
            Section::TimerPop => "engine.timer_pop",
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TOTALS: RefCell<[(u64, u64); SECTIONS]> = const { RefCell::new([(0, 0); SECTIONS]) };
}

/// Turns profiling on or off for this thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Zeroes this thread's table.
pub fn reset() {
    TOTALS.with(|t| *t.borrow_mut() = [(0, 0); SECTIONS]);
}

/// This thread's table as `(section, calls, nanoseconds)`, in report
/// order.
pub fn snapshot() -> Vec<(Section, u64, u64)> {
    TOTALS.with(|t| {
        let t = t.borrow();
        Section::ALL
            .iter()
            .map(|&s| (s, t[s as usize].0, t[s as usize].1))
            .collect()
    })
}

/// Times the enclosing scope under `section` while profiling is on.
#[must_use = "the section ends when the guard drops"]
pub struct Guard {
    section: Section,
    start: Option<Instant>,
}

/// Opens a guard for `section`. Off, this is one flag check.
#[inline]
pub fn section(section: Section) -> Guard {
    let start = ENABLED.with(|e| e.get()).then(Instant::now);
    Guard { section, start }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let ns = t0.elapsed().as_nanos() as u64;
            TOTALS.with(|t| {
                let entry = &mut t.borrow_mut()[self.section as usize];
                entry.0 += 1;
                entry.1 += ns;
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_counts_nothing_and_on_counts_calls() {
        reset();
        set_enabled(false);
        drop(section(Section::Peek));
        assert!(snapshot()
            .iter()
            .all(|&(_, calls, ns)| calls == 0 && ns == 0));
        set_enabled(true);
        drop(section(Section::Peek));
        drop(section(Section::Peek));
        set_enabled(false);
        let peek = snapshot()
            .into_iter()
            .find(|&(s, _, _)| s == Section::Peek)
            .unwrap();
        assert_eq!(peek.1, 2);
        reset();
        assert_eq!(snapshot()[0].1, 0);
    }
}
