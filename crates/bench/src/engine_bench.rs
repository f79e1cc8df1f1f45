//! Micro-benchmark workloads for the simulation engine, at the two scales
//! where the paper's network model is hot:
//!
//! - **Fig 4**: 24 nodes, 576 container-sized task pipelines (stage-in IO
//!   → three compute stages → write-back) whose launches the AM staggers
//!   over the first minute. At steady state hundreds of compute
//!   activities run concurrently while a handful of IO streams come and
//!   go, the mix the Figure 4 sweep produces.
//! - **Table 2**: 128 workers plus two idle masters, reading their inputs
//!   from S3 under its aggregate constraint and writing one HDFS replica
//!   to another worker now and then. Most of the 522 constraints carry no
//!   flow at any instant, which is the shape the max-min fill must handle
//!   at the top rung of the weak-scaling ladder.
//!
//! Both plans also carry AM heartbeat timers, infinite background loads
//! and periodic cancellations. Both drivers execute the identical
//! deterministic plan, so the measured ratio is pure engine overhead —
//! these are the workloads behind `bench_engine` and `BENCH_engine.json`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hiway_obs::Tracer;
use hiway_sim::netfair::FillStats;
use hiway_sim::reference::ReferenceEngine;
use hiway_sim::{
    Activity, ActivityId, ClusterSpec, Endpoint, Engine, ExternalId, ExternalSpec, NodeId, NodeSpec,
};

/// Where a pipeline's stage-in reads from.
#[derive(Clone, Copy, Debug)]
pub enum StageIn {
    /// A local disk read.
    Local,
    /// A remote HDFS read streaming from the node's disk over both NICs.
    Remote(NodeId),
    /// An external service (S3) read onto the local disk.
    External(ExternalId),
}

/// One simulated container's pipeline, pregenerated so both engines see
/// the exact same work.
#[derive(Clone, Debug)]
pub struct TaskPlan {
    pub node: NodeId,
    /// Virtual time at which the AM hands this container its task.
    pub start_at: f64,
    pub stage_in: StageIn,
    pub read_bytes: f64,
    /// Three consecutive CPU stages (align → sort → call, like SNV).
    pub compute_secs: [f64; 3],
    /// `Some(node)`: the write-back streams to a replica on `node`'s
    /// disk; `None`: a local disk write.
    pub replica: Option<NodeId>,
    pub write_bytes: f64,
}

/// A benchmark plan: the cluster and the pipelines run on it.
#[derive(Clone, Debug)]
pub struct Plan {
    pub spec: ClusterSpec,
    pub tasks: Vec<TaskPlan>,
}

/// Builds the Figure-4-shaped plan: `tasks` pipelines spread round-robin
/// over `nodes` nodes, launches staggered 100 ms apart, every third
/// stage-in remote (the non-local reads data-aware scheduling cannot
/// avoid once the network saturates).
pub fn fig4_plan(nodes: usize, tasks: usize, seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let tasks = (0..tasks)
        .map(|i| {
            let node = NodeId((i % nodes) as u32);
            let stage_in = if i % 3 == 0 {
                StageIn::Remote(NodeId(((i + 7 + rng.gen_range(0..nodes)) % nodes) as u32))
            } else {
                StageIn::Local
            };
            TaskPlan {
                node,
                start_at: i as f64 * 0.1,
                stage_in,
                read_bytes: rng.gen_range(0.2e8..0.8e8),
                compute_secs: [
                    rng.gen_range(5.0..50.0),
                    rng.gen_range(2.0..20.0),
                    rng.gen_range(2.0..20.0),
                ],
                replica: None,
                write_bytes: rng.gen_range(0.2e8..0.6e8),
            }
        })
        .collect();
    Plan {
        spec: ClusterSpec::homogeneous(nodes, "bench", &NodeSpec::m3_large("p")),
        tasks,
    }
}

/// Builds the Table-2-shaped plan: two idle masters (nodes 0 and 1) and
/// `workers` workers, `per_worker` pipelines each, launches staggered
/// 50 ms apart. Every stage-in reads from S3 under the same 80 MB/s
/// per-flow cap as `ExternalSpec::s3`, and under a finite 2 GB/s
/// aggregate shared by every concurrent read, which binds once about 25
/// reads overlap. Every fourth write-back streams to a replica on another
/// worker, so there must be at least two.
pub fn table2_plan(workers: usize, per_worker: usize, seed: u64) -> Plan {
    assert!(workers >= 2, "a replica needs a second worker");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut spec = ClusterSpec::homogeneous(workers + 2, "bench", &NodeSpec::m3_large("p"));
    let s3 = spec.add_external(ExternalSpec {
        aggregate_bps: 2.0e9,
        ..ExternalSpec::s3()
    });
    let worker = |w: usize| NodeId((2 + w % workers) as u32);
    let tasks = (0..workers * per_worker)
        .map(|i| TaskPlan {
            node: worker(i),
            start_at: i as f64 * 0.05,
            stage_in: StageIn::External(s3),
            read_bytes: rng.gen_range(0.5e8..2.0e8),
            compute_secs: [
                rng.gen_range(20.0..120.0),
                rng.gen_range(5.0..40.0),
                rng.gen_range(5.0..40.0),
            ],
            replica: (i % 4 == 0).then(|| worker(i + 1 + rng.gen_range(0..workers - 1))),
            write_bytes: rng.gen_range(0.2e8..0.6e8),
        })
        .collect();
    Plan { spec, tasks }
}

/// What one driver run observed: total completions processed (activity +
/// timer events), steps taken, the max-min fills the incremental engine
/// ran (one per step after which the IO set had changed), and the final
/// virtual time. Steps and virtual time double as an equivalence check
/// between the engines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriveResult {
    pub events: u64,
    pub steps: u64,
    pub fills: u64,
    pub virtual_secs: f64,
}

const HEARTBEAT: u64 = u64::MAX;
const BG_CANCEL: u64 = u64::MAX - 1;

/// Pipeline phases, encoded in the tag's top bits: LAUNCH fires the
/// stage-in, STAGE_IN starts compute 0, computes chain to the write-back.
const LAUNCH: u64 = 7;
const STAGE_IN: u64 = 0;
const WRITE_BACK: u64 = 4;

/// Tag: task index in the low bits, phase in the top bits.
fn tag(task: usize, phase: u64) -> u64 {
    (phase << 48) | task as u64
}

/// The drive loop, as a macro because the two engines share their inherent
/// API but no trait. Takes a `&mut` to a pre-built engine so callers can
/// attach a tracer (or other setup) before driving and read it after.
macro_rules! drive_with {
    ($engine:expr, $plan:expr) => {{
        let nodes = $plan.spec.nodes.len();
        let plan: &[TaskPlan] = &$plan.tasks;
        let engine = $engine;

        // Two infinite background loads: never complete, must never be
        // scanned for completions.
        engine.start(
            Activity::Compute {
                node: NodeId(0),
                threads: 0.5,
            },
            f64::INFINITY,
            BG_CANCEL - 2,
        );
        if nodes > 1 {
            engine.start(
                Activity::Compute {
                    node: NodeId(1),
                    threads: 0.5,
                },
                f64::INFINITY,
                BG_CANCEL - 3,
            );
        }

        // The AM staggers container launches over the first minute.
        for (i, t) in plan.iter().enumerate() {
            engine.set_timer_after(t.start_at, tag(i, LAUNCH));
        }
        engine.set_timer_after(3.0, HEARTBEAT);

        let mut done = 0usize;
        let mut events = 0u64;
        let mut steps = 0u64;
        let mut fills = 0u64;
        let mut io_changed = false;
        let mut beat = 0u64;
        let mut bg: Option<ActivityId> = None;
        while done < plan.len() {
            fills += io_changed as u64;
            io_changed = false;
            let fired = engine.step().expect("work remains");
            steps += 1;
            for t in fired {
                events += 1;
                if t == HEARTBEAT {
                    // AM heartbeat: reschedule, and churn the
                    // cancellation path with a short-lived load.
                    beat += 1;
                    if let Some(id) = bg.take() {
                        engine.cancel(id);
                    }
                    if beat % 8 == 0 {
                        bg = Some(engine.start(
                            Activity::Compute {
                                node: NodeId((beat % nodes as u64) as u32),
                                threads: 2.0,
                            },
                            f64::INFINITY,
                            BG_CANCEL,
                        ));
                    }
                    if done < plan.len() {
                        engine.set_timer_after(3.0, HEARTBEAT);
                    }
                    continue;
                }
                let (task, phase) = ((t & 0xffff_ffff) as usize, t >> 48);
                let p = &plan[task];
                // Starting the stage-in or write-back, or either ending,
                // changes the IO set.
                io_changed |= matches!(phase, LAUNCH | STAGE_IN | 3 | WRITE_BACK);
                match phase {
                    LAUNCH => {
                        let from = |src| Activity::Flow {
                            src,
                            dst: Endpoint::Node(p.node),
                            src_disk: matches!(src, Endpoint::Node(_)),
                            dst_disk: true,
                        };
                        let act = match p.stage_in {
                            StageIn::Local => Activity::DiskRead { node: p.node },
                            StageIn::Remote(src) => from(Endpoint::Node(src)),
                            StageIn::External(ext) => from(Endpoint::External(ext)),
                        };
                        engine.start(act, p.read_bytes, tag(task, STAGE_IN));
                    }
                    STAGE_IN => {
                        engine.start(
                            Activity::Compute {
                                node: p.node,
                                threads: 1.0,
                            },
                            p.compute_secs[0],
                            tag(task, 1),
                        );
                    }
                    stage @ (1 | 2) => {
                        engine.start(
                            Activity::Compute {
                                node: p.node,
                                threads: 1.0,
                            },
                            p.compute_secs[stage as usize],
                            tag(task, stage + 1),
                        );
                    }
                    3 => {
                        let act = match p.replica {
                            Some(dst) => Activity::Flow {
                                src: Endpoint::Node(p.node),
                                dst: Endpoint::Node(dst),
                                src_disk: false,
                                dst_disk: true,
                            },
                            None => Activity::DiskWrite { node: p.node },
                        };
                        engine.start(act, p.write_bytes, tag(task, WRITE_BACK));
                    }
                    _ => done += 1,
                }
            }
        }
        DriveResult {
            events,
            steps,
            fills,
            virtual_secs: engine.now().as_secs(),
        }
    }};
}

/// Drives the plan through the incremental engine with `tracer` attached;
/// `Tracer::disabled()` is the untraced hot path. Every node is watched,
/// because the reference engine accounts usage on every node, so the two
/// do the same work. Also returns the engine's max-min fill counts.
pub fn drive_incremental(plan: &Plan, tracer: &Tracer) -> (DriveResult, FillStats) {
    let mut engine = Engine::<u64>::new(plan.spec.clone());
    engine.set_tracer(tracer);
    for n in 0..plan.spec.nodes.len() {
        engine.watch_usage(NodeId(n as u32));
    }
    let result = drive_with!(&mut engine, plan);
    (result, engine.fill_stats())
}

/// Drives the plan through the naive reference engine.
pub fn drive_reference(plan: &Plan) -> DriveResult {
    let mut engine = ReferenceEngine::<u64>::new(plan.spec.clone());
    drive_with!(&mut engine, plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two engines must agree on the whole observable outcome of the
    /// benchmark workload (this is also what makes the speedup ratio a
    /// fair comparison: same events, same steps).
    #[test]
    fn bench_workload_is_engine_invariant() {
        for plan in [fig4_plan(6, 48, 42), table2_plan(8, 3, 42)] {
            let (a, fills) = drive_incremental(&plan, &Tracer::disabled());
            let b = drive_reference(&plan);
            assert_eq!(a, b);
            assert_eq!(fills.fills, a.fills, "the engine fills once per IO change");
            assert_eq!(a.virtual_secs.to_bits(), b.virtual_secs.to_bits());
            // launch + stage-in + 3 computes + write per task, plus heartbeats
            assert!(
                a.events as usize >= 6 * plan.tasks.len(),
                "every phase completes"
            );
            // Launch timers never coincide, so each stage-in refills.
            assert!(a.fills >= plan.tasks.len() as u64, "IO churn refills");
        }
    }

    /// An enabled tracer must not change the simulation, only record it.
    #[test]
    fn tracer_does_not_perturb_the_benchmark_workload() {
        let plan = fig4_plan(4, 24, 7);
        let plain = drive_incremental(&plan, &Tracer::disabled());
        let tracer = Tracer::enabled();
        let on = drive_incremental(&plan, &tracer);
        assert_eq!(plain, on);
        assert!(tracer.event_count() > 0, "enabled tracer saw the run");
        assert_eq!(tracer.counter_value("engine.steps"), plain.0.steps);
    }
}
