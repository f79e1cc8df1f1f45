//! # hiway-core — the Hi-WAY application master
//!
//! The conceptual heart of the reproduction: Hi-WAY is "a (surprisingly
//! thin) layer between scientific workflow specifications expressed in
//! different languages and Hadoop YARN". One AM instance runs per
//! workflow; it parses the workflow through a language front-end
//! (`hiway-lang`), asks YARN (`hiway-yarn`) for one worker container per
//! ready task, moves data through HDFS (`hiway-hdfs`), and records
//! everything it does in re-executable provenance traces.
//!
//! Modules map one-to-one onto the architecture of the paper's Figure 1:
//!
//! * [`driver`] — the **Workflow Driver**: parses the workflow, tracks
//!   data dependencies, supervises execution, and feeds completed-task
//!   events back to the front-end to discover new tasks (iterative
//!   execution model, Figure 3).
//! * [`scheduler`] — the **Workflow Scheduler**: FCFS, data-aware
//!   (default), static round-robin, and adaptive HEFT policies (§3.4).
//! * [`provenance`] — the **Provenance Manager**: workflow/task/file
//!   events, JSON trace files in HDFS, a queryable database backend, and
//!   the runtime-estimate queries the adaptive scheduler consumes (§3.5),
//!   plus the memo lookup that lets a resumed run skip committed work.
//! * [`ready`] — the input-readiness countdown shared by the driver and
//!   the baseline engines' DAG runner, and the driver's ready list.
//! * [`cluster`] — the simulated substrate bundle (engine + HDFS + YARN
//!   RM) and the client-side setup helpers.
//! * [`config`] — AM configuration (container sizing, scheduler policy,
//!   retry limits, heartbeat).

pub mod cluster;
pub mod config;
pub mod driver;
pub mod faults;
pub mod provenance;
pub mod ready;
pub mod report;
pub mod scheduler;

pub use cluster::Cluster;
pub use config::{HiwayConfig, SchedulerPolicy};
pub use driver::Runtime;
pub use faults::{FaultConfig, FaultInjector, FaultPlan};
pub use provenance::{memo_key, MemoHit, ProvenanceManager};
pub use ready::ReadyTracker;
pub use report::{TaskReport, WorkflowReport};
