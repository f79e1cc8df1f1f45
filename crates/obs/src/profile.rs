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
/// the fill runs between the CPU refresh and the copy-out. The driver
/// dispatches an event after the engine step that fired it, so the
/// engine's sections never nest inside the `driver.*` ones; see
/// [`Section::in_dispatch`] for the sections that do.
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
    /// A driver heartbeat whose RM round granted no container.
    HeartbeatIdle,
    /// A driver heartbeat that routed at least one granted container.
    HeartbeatRoute,
    /// A driver attempt event: an attempt's startup, stage-in, run or
    /// stage-out ending.
    AttemptEvent,
    /// One RM allocation round (`ResourceManager::allocate_at`).
    RmAllocate,
    /// Building the ready candidates for a routed container.
    RouteCandidates,
    /// The scheduler picking among those candidates.
    SchedSelect,
    /// Creating an HDFS file and planning its replicas.
    HdfsCreate,
    /// Feeding a completed task back to the workflow front-end.
    LangCompleted,
    /// Recording a finished task in the provenance store.
    ProvRecord,
    /// One whole baseline-engine run (Tez, CloudMan).
    BaselineRun,
}

const SECTIONS: usize = 20;

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
        Section::HeartbeatIdle,
        Section::HeartbeatRoute,
        Section::AttemptEvent,
        Section::RmAllocate,
        Section::RouteCandidates,
        Section::SchedSelect,
        Section::HdfsCreate,
        Section::LangCompleted,
        Section::ProvRecord,
        Section::BaselineRun,
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
            Section::HeartbeatIdle => "driver.heartbeat_idle",
            Section::HeartbeatRoute => "driver.heartbeat_route",
            Section::AttemptEvent => "driver.attempt_event",
            Section::RmAllocate => "rm.allocate_at",
            Section::RouteCandidates => "route.candidates",
            Section::SchedSelect => "sched.select",
            Section::HdfsCreate => "hdfs.create",
            Section::LangCompleted => "lang.on_task_completed",
            Section::ProvRecord => "prov.record_task",
            Section::BaselineRun => "baseline.run_dag",
        }
    }

    /// Whether the driver runs this section inside a `driver.*` one, so
    /// its time is already part of that section's: the RM round inside
    /// a heartbeat, the candidate build and the pick inside a routing
    /// heartbeat, the file creation, the front-end and the provenance
    /// write inside an attempt event (or a memo hit while routing).
    /// Prestaging inputs before a run and a baseline engine's writes
    /// also create files, outside any dispatch. The engine's and the
    /// fill's sections are never inside a `driver.*` one, but are inside
    /// `baseline.run_dag` while a baseline engine runs.
    pub fn in_dispatch(self) -> bool {
        matches!(
            self,
            Section::RmAllocate
                | Section::RouteCandidates
                | Section::SchedSelect
                | Section::HdfsCreate
                | Section::LangCompleted
                | Section::ProvRecord
        )
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

impl Guard {
    /// Books the enclosing scope under `section` instead, for a scope
    /// whose kind is known only part way through.
    pub fn relabel(&mut self, section: Section) {
        self.section = section;
    }
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
