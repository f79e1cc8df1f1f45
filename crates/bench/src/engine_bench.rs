//! Micro-benchmark workload for the simulation engine: a Figure-4-shaped
//! event stream — 24 nodes behind one switch, 576 container-sized task
//! pipelines (stage-in IO → three compute stages → write-back) whose
//! launches the AM staggers over the first minute, plus AM heartbeat
//! timers, infinite background loads, and periodic cancellations. At
//! steady state hundreds of compute activities run concurrently while a
//! handful of IO streams come and go, exactly the mix the Figure 4 sweep
//! produces. Both drivers execute the identical deterministic plan, so
//! the measured ratio is pure engine overhead — this is the workload
//! behind `bench_engine` and `BENCH_engine.json`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hiway_obs::Tracer;
use hiway_sim::reference::ReferenceEngine;
use hiway_sim::{
    Activity, ActivityId, ClusterSpec, Completion, Endpoint, Engine, NodeId, NodeSpec,
};

/// One simulated container's pipeline, pregenerated so both engines see
/// the exact same work.
#[derive(Clone, Debug)]
pub struct TaskPlan {
    pub node: NodeId,
    /// Virtual time at which the AM hands this container its task.
    pub start_at: f64,
    /// `Some(src)`: the stage-in is a remote HDFS read streaming from
    /// `src`'s disk over both NICs; `None`: a local disk read.
    pub remote_src: Option<NodeId>,
    pub read_bytes: f64,
    /// Three consecutive CPU stages (align → sort → call, like SNV).
    pub compute_secs: [f64; 3],
    pub write_bytes: f64,
}

/// Builds the Figure-4-shaped plan: `tasks` pipelines spread round-robin
/// over `nodes` nodes, launches staggered 100 ms apart, every third
/// stage-in remote (the non-local reads data-aware scheduling cannot
/// avoid once the network saturates).
pub fn make_plan(nodes: usize, tasks: usize, seed: u64) -> Vec<TaskPlan> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..tasks)
        .map(|i| {
            let node = NodeId((i % nodes) as u32);
            let remote_src = if i % 3 == 0 {
                Some(NodeId(((i + 7 + rng.gen_range(0..nodes)) % nodes) as u32))
            } else {
                None
            };
            TaskPlan {
                node,
                start_at: i as f64 * 0.1,
                remote_src,
                read_bytes: rng.gen_range(0.2e8..0.8e8),
                compute_secs: [
                    rng.gen_range(5.0..50.0),
                    rng.gen_range(2.0..20.0),
                    rng.gen_range(2.0..20.0),
                ],
                write_bytes: rng.gen_range(0.2e8..0.6e8),
            }
        })
        .collect()
}

/// What one driver run observed: total completions processed (activity +
/// timer events), steps taken, and the final virtual time — the latter two
/// double as an equivalence check between the engines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriveResult {
    pub events: u64,
    pub steps: u64,
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
/// API but no trait. Takes a pre-built engine expression so callers can
/// attach a tracer (or other setup) before driving.
macro_rules! drive_with {
    ($engine:expr, $nodes:expr, $plan:expr) => {{
        let nodes: usize = $nodes;
        let plan: &[TaskPlan] = $plan;
        let mut engine = $engine;

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
        let mut beat = 0u64;
        let mut bg: Option<ActivityId> = None;
        while done < plan.len() {
            let fired = engine.step().expect("work remains");
            steps += 1;
            for completion in fired {
                events += 1;
                let t = match completion {
                    Completion::Activity { tag: t, .. } => t,
                    Completion::Timer { tag: t, .. } => t,
                };
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
                match phase {
                    LAUNCH => {
                        let act = match p.remote_src {
                            Some(src) => Activity::Flow {
                                src: Endpoint::Node(src),
                                dst: Endpoint::Node(p.node),
                                src_disk: true,
                                dst_disk: true,
                            },
                            None => Activity::DiskRead { node: p.node },
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
                        engine.start(
                            Activity::DiskWrite { node: p.node },
                            p.write_bytes,
                            tag(task, WRITE_BACK),
                        );
                    }
                    _ => done += 1,
                }
            }
        }
        DriveResult {
            events,
            steps,
            virtual_secs: engine.now().as_secs(),
        }
    }};
}

fn bench_spec(nodes: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(nodes, "bench", &NodeSpec::m3_large("p"))
}

/// Drives the plan through the incremental engine with `tracer` attached;
/// `Tracer::disabled()` is the untraced hot path.
pub fn drive_incremental(nodes: usize, plan: &[TaskPlan], tracer: &Tracer) -> DriveResult {
    let mut engine = Engine::<u64>::new(bench_spec(nodes));
    engine.set_tracer(tracer);
    drive_with!(engine, nodes, plan)
}

/// Drives the plan through the naive reference engine.
pub fn drive_reference(nodes: usize, plan: &[TaskPlan]) -> DriveResult {
    drive_with!(ReferenceEngine::<u64>::new(bench_spec(nodes)), nodes, plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two engines must agree on the whole observable outcome of the
    /// benchmark workload (this is also what makes the speedup ratio a
    /// fair comparison: same events, same steps).
    #[test]
    fn bench_workload_is_engine_invariant() {
        let plan = make_plan(6, 48, 42);
        let a = drive_incremental(6, &plan, &Tracer::disabled());
        let b = drive_reference(6, &plan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.virtual_secs.to_bits(), b.virtual_secs.to_bits());
        // launch + stage-in + 3 computes + write per task, plus heartbeats
        assert!(a.events as usize >= 6 * 48, "every phase completes");
    }

    /// An enabled tracer must not change the simulation, only record it.
    #[test]
    fn tracer_does_not_perturb_the_benchmark_workload() {
        let plan = make_plan(4, 24, 7);
        let plain = drive_incremental(4, &plan, &Tracer::disabled());
        let tracer = Tracer::enabled();
        let on = drive_incremental(4, &plan, &tracer);
        assert_eq!(plain, on);
        assert!(tracer.event_count() > 0, "enabled tracer saw the run");
        assert_eq!(tracer.counter_value("engine.steps"), plain.steps);
    }
}
