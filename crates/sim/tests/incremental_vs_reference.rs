//! Lockstep equivalence: the incremental engine (dirty-node CPU refresh,
//! cached flow paths, a timer heap and dense per-activity columns) must be
//! observationally identical — same completion sequences, same virtual
//! timestamps bit for bit — to the naive recompute-everything reference
//! engine it replaced. Random workloads mix compute, disk streams, flows,
//! external transfers, timers, cancellations, infinite background loads,
//! partial time advances and deadline-bounded steps. Every activity and
//! timer carries its own tag, so comparing the fired tag sequences also
//! compares which ids fired. The incremental engine's own bookkeeping is
//! checked after every op. The reference accounts usage on every node;
//! the incremental engine watches a random non-empty subset from the
//! start and more nodes mid-run, and every usage window it reports for a
//! watched node must equal the reference's, all seven fields bit for bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hiway_sim::reference::ReferenceEngine;
use hiway_sim::{
    Activity, ActivityId, ClusterSpec, Endpoint, Engine, ExternalSpec, NodeId, NodeSpec, NodeUsage,
};

#[derive(Clone, Debug)]
enum Op {
    Compute {
        node: u8,
        threads: f64,
        volume: f64,
    },
    DiskRead {
        node: u8,
        volume: f64,
    },
    DiskWrite {
        node: u8,
        volume: f64,
    },
    Flow {
        src: u8,
        dst: u8,
        src_disk: bool,
        dst_disk: bool,
        volume: f64,
    },
    External {
        node: u8,
        upload: bool,
        volume: f64,
    },
    Background {
        node: u8,
        threads: f64,
    },
    Timer {
        delay: f64,
    },
    CancelAct {
        pick: u16,
    },
    Step,
    StepUntil {
        dt: f64,
    },
    Advance {
        dt: f64,
    },
    Watch {
        node: u8,
    },
    TakeUsage {
        node: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8, 0.5f64..4.0, 0.05f64..30.0).prop_map(|(node, threads, volume)| Op::Compute {
            node,
            threads,
            volume
        }),
        (0u8..8, 1.0e6f64..5.0e8).prop_map(|(node, volume)| Op::DiskRead { node, volume }),
        (0u8..8, 1.0e6f64..5.0e8).prop_map(|(node, volume)| Op::DiskWrite { node, volume }),
        (
            0u8..8,
            0u8..8,
            any::<bool>(),
            any::<bool>(),
            1.0e6f64..5.0e8
        )
            .prop_map(|(src, dst, src_disk, dst_disk, volume)| Op::Flow {
                src,
                dst,
                src_disk,
                dst_disk,
                volume
            }),
        (0u8..8, any::<bool>(), 1.0e6f64..2.0e8).prop_map(|(node, upload, volume)| Op::External {
            node,
            upload,
            volume
        }),
        (0u8..8, 0.5f64..2.0).prop_map(|(node, threads)| Op::Background { node, threads }),
        (0.0f64..20.0).prop_map(|delay| Op::Timer { delay }),
        (0u16..1000).prop_map(|pick| Op::CancelAct { pick }),
        Just(Op::Step),
        (0.0f64..5.0).prop_map(|dt| Op::StepUntil { dt }),
        (0.01f64..5.0).prop_map(|dt| Op::Advance { dt }),
        (0u8..8).prop_map(|node| Op::Watch { node }),
        (0u8..8).prop_map(|node| Op::TakeUsage { node }),
    ]
}

/// Drains `node`'s usage window from both engines and requires every
/// field to match bit for bit.
fn same_usage(
    inc: &mut Engine<u32>,
    refe: &mut ReferenceEngine<u32>,
    node: NodeId,
    ctx: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let (a, b) = (inc.take_usage(node), refe.take_usage(node));
    let bits = |u: &NodeUsage| {
        [
            u.elapsed,
            u.core_seconds,
            u.disk_read_bytes,
            u.disk_write_bytes,
            u.net_in_bytes,
            u.net_out_bytes,
            u.io_util_seconds,
        ]
        .map(f64::to_bits)
    };
    prop_assert_eq!(
        bits(&a),
        bits(&b),
        "usage of node {} diverged at {}",
        node.0,
        ctx
    );
    Ok(())
}

/// Both steps fired the same tags in the same order, or neither stepped.
fn same_step(
    a: Option<Vec<u32>>,
    b: Option<Vec<u32>>,
    ctx: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    match (a, b) {
        (None, None) => Ok(()),
        (Some(fa), Some(fb)) => {
            prop_assert_eq!(fa, fb, "completion sequence diverged at {}", ctx);
            Ok(())
        }
        (a, b) => Err(proptest::test_runner::TestCaseError::fail(format!(
            "step presence diverged at {ctx}: inc={} ref={}",
            a.is_some(),
            b.is_some()
        ))),
    }
}

/// The incremental engine's own bookkeeping holds.
fn invariants(inc: &Engine<u32>, ctx: &str) -> Result<(), proptest::test_runner::TestCaseError> {
    inc.check_invariants()
        .map_err(|e| proptest::test_runner::TestCaseError::fail(format!("after {ctx}: {e}")))
}

/// Both engines report the same instant, bit for bit.
macro_rules! assert_same_time {
    ($a:expr, $b:expr, $ctx:expr) => {{
        let a = $a.map(|t| t.as_secs().to_bits());
        let b = $b.map(|t| t.as_secs().to_bits());
        prop_assert_eq!(a, b, "virtual time diverged at {}", $ctx);
    }};
}

/// Runs `ops` through both engines, the incremental one watching the
/// nodes in `watch` (taken modulo `nodes`) from the start. The S3 service
/// caps each flow as `ExternalSpec::s3` does, under `s3_aggregate_bps`
/// shared by all its flows (`None`: unlimited).
fn lockstep(
    nodes: usize,
    switch_gbps: Option<f64>,
    s3_aggregate_bps: Option<f64>,
    watch: &[u8],
    ops: &[Op],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut spec = ClusterSpec::homogeneous(nodes, "n", &NodeSpec::m3_large("p"));
    spec.switch_bps = switch_gbps.map(|g| g * 1.0e9);
    let s3 = spec.add_external(ExternalSpec {
        aggregate_bps: s3_aggregate_bps.unwrap_or(f64::INFINITY),
        ..ExternalSpec::s3()
    });
    let mut inc: Engine<u32> = Engine::new(spec.clone());
    let mut refe: ReferenceEngine<u32> = ReferenceEngine::new(spec);

    let node = |sel: u8| NodeId(sel as u32 % nodes as u32);
    let mut watched = vec![false; nodes];
    for &n in watch {
        inc.watch_usage(node(n));
        watched[node(n).index()] = true;
    }
    let mut act_ids: Vec<ActivityId> = Vec::new();
    let mut tag = 0u32;
    let start = |inc: &mut Engine<u32>,
                 refe: &mut ReferenceEngine<u32>,
                 ids: &mut Vec<ActivityId>,
                 kind: Activity,
                 volume: f64,
                 tag: &mut u32| {
        let a = inc.start(kind.clone(), volume, *tag);
        let b = refe.start(kind, volume, *tag);
        assert_eq!(a, b, "activity ids diverged");
        *tag += 1;
        ids.push(a);
    };

    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Compute {
                node: n,
                threads,
                volume,
            } => start(
                &mut inc,
                &mut refe,
                &mut act_ids,
                Activity::Compute {
                    node: node(*n),
                    threads: *threads,
                },
                *volume,
                &mut tag,
            ),
            Op::DiskRead { node: n, volume } => start(
                &mut inc,
                &mut refe,
                &mut act_ids,
                Activity::DiskRead { node: node(*n) },
                *volume,
                &mut tag,
            ),
            Op::DiskWrite { node: n, volume } => start(
                &mut inc,
                &mut refe,
                &mut act_ids,
                Activity::DiskWrite { node: node(*n) },
                *volume,
                &mut tag,
            ),
            Op::Flow {
                src,
                dst,
                src_disk,
                dst_disk,
                volume,
            } => start(
                &mut inc,
                &mut refe,
                &mut act_ids,
                Activity::Flow {
                    src: Endpoint::Node(node(*src)),
                    dst: Endpoint::Node(node(*dst)),
                    src_disk: *src_disk,
                    dst_disk: *dst_disk,
                },
                *volume,
                &mut tag,
            ),
            Op::External {
                node: n,
                upload,
                volume,
            } => {
                let (src, dst) = if *upload {
                    (Endpoint::Node(node(*n)), Endpoint::External(s3))
                } else {
                    (Endpoint::External(s3), Endpoint::Node(node(*n)))
                };
                start(
                    &mut inc,
                    &mut refe,
                    &mut act_ids,
                    Activity::Flow {
                        src,
                        dst,
                        src_disk: !*upload,
                        dst_disk: *upload,
                    },
                    *volume,
                    &mut tag,
                )
            }
            Op::Background { node: n, threads } => start(
                &mut inc,
                &mut refe,
                &mut act_ids,
                Activity::Compute {
                    node: node(*n),
                    threads: *threads,
                },
                f64::INFINITY,
                &mut tag,
            ),
            Op::Timer { delay } => {
                inc.set_timer_after(*delay, tag);
                refe.set_timer_after(*delay, tag);
                tag += 1;
            }
            Op::CancelAct { pick } => {
                if !act_ids.is_empty() {
                    let id = act_ids[*pick as usize % act_ids.len()];
                    prop_assert_eq!(inc.cancel(id), refe.cancel(id), "cancel tag diverged");
                }
            }
            Op::Step => same_step(inc.step(), refe.step(), &format!("op {i}"))?,
            Op::StepUntil { dt } => {
                let deadline = inc.now() + *dt;
                let b = match refe.peek_next_time() {
                    Some(t) if t <= deadline => refe.step(),
                    _ => None,
                };
                same_step(inc.step_until(deadline), b, &format!("op {i}"))?;
            }
            Op::Advance { dt } => {
                // Real callers (metrics sampling) never advance past the
                // next event; bound the target the same way they do.
                let mut t = inc.now() + *dt;
                if let Some(bound) = inc.peek_next_time() {
                    t = t.min(bound);
                }
                inc.advance_to(t);
                refe.advance_to(t);
            }
            Op::Watch { node: n } => {
                let n = node(*n);
                if !watched[n.index()] {
                    // The reference has accounted this node all along;
                    // drop that, so both windows open now.
                    inc.watch_usage(n);
                    refe.take_usage(n);
                    watched[n.index()] = true;
                }
            }
            Op::TakeUsage { node: n } => {
                let n = node(*n);
                if watched[n.index()] {
                    same_usage(&mut inc, &mut refe, n, &format!("op {i}"))?;
                }
            }
        }
        invariants(&inc, &format!("op {i}"))?;
        assert_same_time!(Some(inc.now()), Some(refe.now()), format!("op {i}"));
        assert_same_time!(
            inc.peek_next_time(),
            refe.peek_next_time(),
            format!("peek after op {i}")
        );
        prop_assert_eq!(inc.active_count(), refe.active_count());
    }

    // Drain to quiescence (only background loads may remain).
    for round in 0..10_000 {
        let ctx = format!("drain {round}");
        let (a, b) = (inc.step(), refe.step());
        let quiet = a.is_none() && b.is_none();
        same_step(a, b, &ctx)?;
        invariants(&inc, &ctx)?;
        if quiet {
            // Accumulated usage must agree too (same rates, same dts).
            for n in (0..nodes).filter(|&n| watched[n]) {
                same_usage(&mut inc, &mut refe, NodeId(n as u32), &ctx)?;
            }
            return Ok(());
        }
        assert_same_time!(Some(inc.now()), Some(refe.now()), ctx);
    }
    Err(proptest::test_runner::TestCaseError::fail(
        "engines failed to quiesce in 10k steps".to_string(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn incremental_engine_matches_reference(
        nodes in 1usize..6,
        switch in proptest::option::of(0.5f64..4.0),
        s3_aggregate in proptest::option::of(0.5e8f64..4.0e8),
        watch in proptest::collection::vec(0u8..8, 1..4),
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        lockstep(nodes, switch, s3_aggregate, &watch, &ops)?;
    }
}

/// One long flow alone on its NICs keeps the same rate bits through
/// thousands of fills caused by disk, compute and S3 churn on other
/// nodes, while its remaining volume is settled at every one of those
/// steps. Its completion instant must still match the reference engine's
/// to the bit.
#[test]
fn long_flow_keeps_its_key_through_churn_elsewhere() {
    let mut ops = vec![Op::Flow {
        src: 0,
        dst: 1,
        src_disk: false,
        dst_disk: false,
        volume: 3.0e11,
    }];
    for k in 0..3000u32 {
        let volume = 1.0e6 + f64::from(k % 97) * 3.7e4;
        ops.push(match k % 4 {
            0 => Op::DiskRead { node: 2, volume },
            1 => Op::DiskWrite { node: 3, volume },
            2 => Op::External {
                node: 2 + (k % 2) as u8,
                upload: k % 8 == 2,
                volume,
            },
            _ => Op::Compute {
                node: (k % 4) as u8,
                threads: 1.0,
                volume: 0.01 + f64::from(k % 13) * 1e-3,
            },
        });
        ops.push(Op::Step);
        if k % 50 == 0 {
            ops.push(Op::Advance { dt: 0.003 });
        }
    }
    if let Err(e) = lockstep(4, None, None, &[1, 2], &ops) {
        panic!("{}", e.message);
    }
}

/// Table 2's top rung in shape: two idle masters and 128 workers that
/// read their inputs from S3 under a finite 2 GB/s aggregate (binding
/// once 25 of the 80 MB/s reads overlap), compute, and now and then write
/// a replica to another worker, with heartbeat timers and cancellations
/// between the steps. The proptest stops at 6 nodes; this case holds the
/// engines to each other where a fill has ~130 nodes' constraints.
#[test]
fn table2_scale_s3_reads_match_reference() {
    let mut rng = StdRng::seed_from_u64(2017);
    let worker = |rng: &mut StdRng| 2 + rng.gen_range(0..128u32) as u8;
    let mut ops = Vec::new();
    for _ in 0..60 {
        let node = worker(&mut rng);
        let volume = rng.gen_range(0.5e8..2.0e8);
        ops.push(Op::External {
            node,
            upload: false,
            volume,
        });
    }
    for _ in 0..1500 {
        let node = worker(&mut rng);
        ops.push(match rng.gen_range(0..20u32) {
            0..=5 => Op::External {
                node,
                upload: false,
                volume: rng.gen_range(0.5e8..2.0e8),
            },
            6 | 7 => Op::Compute {
                node,
                threads: 1.0,
                volume: rng.gen_range(5.0..40.0),
            },
            8 | 9 => Op::Flow {
                src: node,
                dst: worker(&mut rng),
                src_disk: false,
                dst_disk: true,
                volume: rng.gen_range(0.2e8..0.6e8),
            },
            10 => Op::Timer { delay: 3.0 },
            11 => Op::CancelAct {
                pick: rng.gen_range(0..1000u32) as u16,
            },
            _ => Op::Step,
        });
    }
    if let Err(e) = lockstep(130, None, Some(2.0e9), &[0, 2, 77, 129], &ops) {
        panic!("{}", e.message);
    }
}
