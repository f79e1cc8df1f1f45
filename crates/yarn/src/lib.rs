//! # hiway-yarn — simulated Hadoop YARN
//!
//! Hadoop 2.x split resource management out of MapReduce into YARN: a
//! central **ResourceManager** (RM) tracks the capacity of per-node
//! **NodeManagers** (NMs) and leases **containers** (a fixed bundle of
//! virtual cores and memory) to per-application **application masters**
//! (AMs). Hi-WAY is exactly such an AM (paper §3.1): one AM instance per
//! workflow, each AM requesting one worker container per ready task.
//!
//! This crate reproduces the slice of YARN that Hi-WAY consumes:
//!
//! * node registration with configurable container capacity,
//! * FIFO application admission with AM containers occupying capacity,
//! * container requests with optional *strict* node placement (used by the
//!   static round-robin and HEFT schedulers, which "enforce containers to
//!   be placed on specific compute nodes") or relaxed locality (the
//!   data-aware scheduler takes whatever node comes and picks the best
//!   task for it),
//! * allocation, release, and node-failure notification so the AM can
//!   re-try failed tasks on different nodes.
//!
//! The RM is a synchronous state machine; the AM drives it from its event
//! loop, modelling the AM–RM heartbeat with engine timers.

pub mod queues;
pub mod rm;
pub mod types;

pub use queues::{Admission, AdmissionPolicy, QueueSpec, QueuesConfig};
pub use rm::ResourceManager;
pub use types::{AppId, Container, ContainerId, ContainerRequest, RequestId, Resource};
