//! Pins the baseline runner's output to the bit. The Figure 4 and
//! Figure 8 goldens round to 0.1 and 0.01 minutes, so they cannot see
//! sub-second drift; these cases record each run's exact runtime bits,
//! an FNV-1a-64 digest of its placements and the placement count.

use hiway_core::cluster::Cluster;
use hiway_hdfs::fnv1a64;
use hiway_lang::cuneiform::CuneiformWorkflow;
use hiway_lang::ir::{TaskCost, WorkflowSource};
use hiway_lang::{galaxy::parse_galaxy, StaticWorkflow, TaskId, TaskSpec};
use hiway_sim::{ClusterSpec, ExternalSpec, NodeSpec};
use hiway_workloads::baseline::{run_cloudman, run_dag, Baseline, BaselineReport};
use hiway_workloads::profiles;
use hiway_workloads::rnaseq::RnaseqParams;
use hiway_workloads::snv::SnvParams;

/// `(runtime bits, placement digest, placement count)` of a run.
fn pin(report: &BaselineReport) -> (u64, u64, usize) {
    let mut bytes = Vec::new();
    for (task, node) in &report.placements {
        bytes.extend_from_slice(&task.0.to_le_bytes());
        bytes.extend_from_slice(&node.0.to_le_bytes());
    }
    (
        report.runtime_secs.to_bits(),
        fnv1a64(&bytes),
        report.placements.len(),
    )
}

/// Tez as Figure 4 configures it.
fn tez(
    cluster: &mut Cluster,
    workflow: StaticWorkflow,
    slots_per_node: u32,
    seed: u64,
) -> BaselineReport {
    run_dag(
        cluster,
        workflow,
        Baseline::Tez {
            slots_per_node,
            seed,
        },
    )
    .unwrap()
}

/// The shrunk Figure 4 SNV DAG (6 nodes, 6 samples, CPU scale 0.05).
fn tez_snv(slots_per_node: u32) -> (u64, u64, usize) {
    let seed = 1000 * 6 * slots_per_node as u64;
    let snv = SnvParams::fig4(6).scaled(0.05);
    let mut deployment = profiles::local_cluster(6, seed);
    for (path, size) in snv.input_files() {
        deployment.runtime.cluster.prestage(&path, size);
    }
    let mut source = CuneiformWorkflow::parse("snv-fig4", &snv.cuneiform_source(), seed).unwrap();
    let tasks = source.initial_tasks().unwrap();
    assert!(source.is_complete());
    let workflow = StaticWorkflow::new("snv-fig4", "cuneiform", tasks);
    pin(&tez(
        &mut deployment.runtime.cluster,
        workflow,
        slots_per_node,
        seed,
    ))
}

/// TRAPLINE on `nodes` c3.2xlarge CloudMan workers.
fn cloudman_trapline(nodes: usize) -> (u64, u64, usize) {
    let seed = nodes as u64 * 1000;
    let rnaseq = RnaseqParams::default();
    let (mut cluster, ebs) =
        profiles::cloudman_cluster(nodes, &NodeSpec::c3_2xlarge("proto"), seed);
    for (path, size) in rnaseq.input_files() {
        cluster.register_external_file(&path, ebs, size);
    }
    let workflow = parse_galaxy(
        &rnaseq.galaxy_json(),
        &rnaseq.input_bindings(),
        &rnaseq.tool_profiles(),
    )
    .unwrap();
    pin(&run_cloudman(&mut cluster, workflow, ebs).unwrap())
}

/// One task with no files but working-directory I/O: stage-in and
/// stage-out start nothing and must be skipped.
fn scratch_only() -> StaticWorkflow {
    StaticWorkflow::new(
        "scratch",
        "test",
        vec![TaskSpec {
            id: TaskId(0),
            name: "s".into(),
            command: "s".into(),
            inputs: vec![],
            outputs: vec![],
            cost: TaskCost::new(10.0, 2, 256).with_scratch(300 << 20),
        }],
    )
}

#[test]
fn tez_over_fig4_snv_is_pinned() {
    assert_eq!(
        [tez_snv(1), tez_snv(4)],
        [
            (4644951559012038246, 3362988349236544946, 108),
            (4643168795079213621, 2665978122356866069, 108),
        ]
    );
}

#[test]
fn cloudman_over_trapline_is_pinned() {
    assert_eq!(
        [cloudman_trapline(1), cloudman_trapline(3)],
        [
            (4670444023860403471, 5028723870235299990, 14),
            (4665362342648247034, 10841661279365255237, 14),
        ]
    );
}

#[test]
fn scratch_only_task_is_pinned() {
    let spec = ClusterSpec::homogeneous(2, "n", &NodeSpec::c3_2xlarge("p"));
    let mut cluster = Cluster::new(spec, 9);
    let tez_pin = pin(&tez(&mut cluster, scratch_only(), 1, 9));

    let mut spec = ClusterSpec::homogeneous(2, "n", &NodeSpec::c3_2xlarge("p"));
    let ebs = spec.add_external(ExternalSpec::ebs_shared());
    let mut cluster = Cluster::new(spec, 9);
    let cloudman_pin = pin(&run_cloudman(&mut cluster, scratch_only(), ebs).unwrap());
    assert_eq!(
        [tez_pin, cloudman_pin],
        [
            (4621787720842073647, 6082024272624116885, 1),
            (4622033596391037638, 6082024272624116885, 1),
        ]
    );
}
