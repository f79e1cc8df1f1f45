//! Galaxy workflow front-end (paper §3.2).
//!
//! Galaxy workflows are assembled in a web GUI and exported as `.ga` JSON
//! documents: a `steps` object mapping step ids to either *data inputs*
//! (placeholders bound at submission time — "input ports serve as
//! placeholders for the input files, which are resolved interactively when
//! the workflow is committed for execution") or *tool* steps wired
//! together through `input_connections`.
//!
//! `.ga` files carry no resource information — Galaxy runs tools on
//! whatever its job runner provides — so the caller supplies a
//! [`ToolProfiles`] registry mapping tool ids to cost models and output
//! size factors, mirroring how the real Hi-WAY relies on the tools being
//! installed and benchmarked on the cluster.

use std::collections::HashMap;

use hiway_format::json::Json;

use crate::ir::{LangError, OutputSpec, StaticWorkflow, TaskCost, TaskId, TaskSpec};

/// Cost model for one Galaxy tool.
#[derive(Clone, Copy, Debug)]
pub struct ToolProfile {
    /// Fixed CPU-seconds per invocation.
    pub cpu_fixed: f64,
    /// CPU-seconds per input byte.
    pub cpu_per_byte: f64,
    pub threads: u32,
    pub memory_mb: u64,
    /// Output bytes per input byte (spread evenly over declared outputs).
    pub output_factor: f64,
    /// Working-directory bytes per input byte (temporary files written
    /// and re-read during execution — TopHat 2 is notorious for these).
    pub scratch_factor: f64,
}

impl Default for ToolProfile {
    fn default() -> ToolProfile {
        ToolProfile {
            cpu_fixed: 10.0,
            cpu_per_byte: 0.0,
            threads: 1,
            memory_mb: 1024,
            output_factor: 1.0,
            scratch_factor: 0.0,
        }
    }
}

/// Registry of tool profiles, keyed by tool id substring match (Galaxy
/// tool ids are long toolshed URLs; `bowtie2` should match
/// `toolshed.g2.bx.psu.edu/repos/devteam/bowtie2/bowtie2/2.2.6`).
#[derive(Clone, Debug, Default)]
pub struct ToolProfiles {
    profiles: Vec<(String, ToolProfile)>,
    pub fallback: ToolProfile,
}

impl ToolProfiles {
    pub fn insert(&mut self, tool_key: impl Into<String>, profile: ToolProfile) {
        self.profiles.push((tool_key.into(), profile));
    }

    pub fn lookup(&self, tool_id: &str) -> ToolProfile {
        self.profiles
            .iter()
            .find(|(key, _)| tool_id.contains(key.as_str()))
            .map(|(_, p)| *p)
            .unwrap_or(self.fallback)
    }
}

/// A bound workflow input: HDFS path and size.
#[derive(Clone, Debug)]
pub struct BoundInput {
    pub path: String,
    pub size: u64,
}

/// Parses an exported Galaxy workflow.
///
/// * `inputs` binds each data-input step — by its `label`, its first
///   input's `name`, or its stringified step id — to a staged HDFS file.
/// * `profiles` supplies per-tool cost models.
pub fn parse_galaxy(
    src: &str,
    inputs: &HashMap<String, BoundInput>,
    profiles: &ToolProfiles,
) -> Result<StaticWorkflow, LangError> {
    let doc = Json::parse(src).map_err(|e| LangError::new("galaxy", format!("bad JSON: {e}")))?;
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("galaxy-workflow")
        .to_string();
    let steps = doc
        .get("steps")
        .and_then(Json::as_object)
        .ok_or_else(|| LangError::new("galaxy", "missing 'steps' object"))?;

    // First pass: map step id → produced files (per output name).
    struct StepInfo {
        outputs: HashMap<String, (String, u64)>, // output name → (path, size placeholder)
    }
    let mut parsed: Vec<(u64, &Json)> = Vec::new();
    for (key, step) in steps {
        let id = step
            .get("id")
            .and_then(Json::as_u64)
            .or_else(|| key.parse().ok())
            .ok_or_else(|| LangError::new("galaxy", format!("step '{key}' has no id")))?;
        parsed.push((id, step));
    }
    parsed.sort_by_key(|(id, _)| *id);

    let mut produced: HashMap<u64, StepInfo> = HashMap::new();
    let mut tasks = Vec::new();

    // Resolve data inputs and compute sizes in step-id order; tool outputs
    // need their input sizes, and Galaxy guarantees connections point to
    // earlier steps only (we validate via StaticWorkflow::validate).
    for &(id, step) in &parsed {
        let step_type = step.get("type").and_then(Json::as_str).unwrap_or("tool");
        if step_type == "data_input" || step_type == "data_collection_input" {
            let label = step
                .get("label")
                .and_then(Json::as_str)
                .map(str::to_string)
                .or_else(|| {
                    step.get("inputs")
                        .and_then(Json::as_array)
                        .and_then(|a| a.first())
                        .and_then(|i| i.get("name"))
                        .and_then(Json::as_str)
                        .map(str::to_string)
                })
                .unwrap_or_else(|| id.to_string());
            let bound = inputs
                .get(&label)
                .or_else(|| inputs.get(&id.to_string()))
                .ok_or_else(|| {
                    LangError::new(
                        "galaxy",
                        format!("input port '{label}' (step {id}) not bound to a file"),
                    )
                })?;
            let mut outputs = HashMap::new();
            outputs.insert("output".to_string(), (bound.path.clone(), bound.size));
            produced.insert(id, StepInfo { outputs });
            continue;
        }

        // A tool step.
        let tool_id = step
            .get("tool_id")
            .and_then(Json::as_str)
            .unwrap_or("unknown-tool")
            .to_string();
        let tool_name = tool_id
            .rsplit('/')
            .nth(1)
            .filter(|s| !s.is_empty())
            .unwrap_or(tool_id.as_str())
            .to_string();
        let profile = profiles.lookup(&tool_id);

        // Inputs from connections.
        let mut input_files: Vec<(String, u64)> = Vec::new();
        if let Some(conns) = step.get("input_connections").and_then(Json::as_object) {
            for (_port, conn) in conns {
                // A connection is an object or an array of objects.
                let conn_list: Vec<&Json> = match conn {
                    Json::Array(items) => items.iter().collect(),
                    single => vec![single],
                };
                for c in conn_list {
                    let src_id = c.get("id").and_then(Json::as_u64).ok_or_else(|| {
                        LangError::new("galaxy", format!("step {id}: connection without id"))
                    })?;
                    let out_name = c
                        .get("output_name")
                        .and_then(Json::as_str)
                        .unwrap_or("output");
                    let info = produced.get(&src_id).ok_or_else(|| {
                        LangError::new(
                            "galaxy",
                            format!("step {id} references missing/later step {src_id}"),
                        )
                    })?;
                    // Tolerate port-name drift across Galaxy versions by
                    // falling back to the step's first output.
                    let file = info
                        .outputs
                        .get(out_name)
                        .or_else(|| info.outputs.values().next());
                    let (path, size) = file.ok_or_else(|| {
                        LangError::new(
                            "galaxy",
                            format!("step {src_id} has no output '{out_name}'"),
                        )
                    })?;
                    input_files.push((path.clone(), *size));
                }
            }
        }

        // Saturating: a fan-in of huge bound inputs must not overflow.
        let total_in = input_files
            .iter()
            .fold(0u64, |sum, (_, size)| sum.saturating_add(*size));

        // Declared outputs.
        let out_decls: Vec<(String, String)> = step
            .get("outputs")
            .and_then(Json::as_array)
            .map(|outs| {
                outs.iter()
                    .map(|o| {
                        let oname = o
                            .get("name")
                            .and_then(Json::as_str)
                            .unwrap_or("output")
                            .to_string();
                        let ext = o
                            .get("type")
                            .and_then(Json::as_str)
                            .unwrap_or("dat")
                            .to_string();
                        (oname, ext)
                    })
                    .collect()
            })
            .unwrap_or_else(|| vec![("output".to_string(), "dat".to_string())]);
        let per_output = ((total_in as f64 * profile.output_factor) / out_decls.len().max(1) as f64)
            .max(1.0) as u64;

        let mut outputs = Vec::new();
        let mut info = StepInfo {
            outputs: HashMap::new(),
        };
        for (oname, ext) in &out_decls {
            let path = format!("/galaxy/{name}/step{id}_{oname}.{ext}");
            outputs.push(OutputSpec {
                path: path.clone(),
                size: per_output,
            });
            info.outputs.insert(oname.clone(), (path, per_output));
        }
        produced.insert(id, info);

        tasks.push(TaskSpec {
            id: TaskId(id),
            name: tool_name.clone(),
            command: format!("galaxy-tool {tool_id}"),
            inputs: input_files.into_iter().map(|(p, _)| p).collect(),
            outputs,
            cost: TaskCost::new(
                profile.cpu_fixed + profile.cpu_per_byte * total_in as f64,
                profile.threads,
                profile.memory_mb,
            )
            .with_scratch((total_in as f64 * profile.scratch_factor) as u64),
        });
    }

    let wf = StaticWorkflow::new(name, "galaxy", tasks);
    wf.validate()?;
    Ok(wf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ga() -> &'static str {
        r#"{
          "a_galaxy_workflow": "true",
          "name": "mini-rnaseq",
          "steps": {
            "0": {"id": 0, "type": "data_input", "label": "reads",
                  "inputs": [{"name": "reads"}], "input_connections": {}, "outputs": []},
            "1": {"id": 1, "type": "data_input", "label": "genome",
                  "inputs": [{"name": "genome"}], "input_connections": {}, "outputs": []},
            "2": {"id": 2, "type": "tool",
                  "tool_id": "toolshed.g2.bx.psu.edu/repos/devteam/tophat2/tophat2/2.1.0",
                  "input_connections": {
                    "input1": {"id": 0, "output_name": "output"},
                    "reference": {"id": 1, "output_name": "output"}},
                  "outputs": [{"name": "accepted_hits", "type": "bam"}]},
            "3": {"id": 3, "type": "tool",
                  "tool_id": "toolshed.g2.bx.psu.edu/repos/devteam/cufflinks/cufflinks/2.2.1",
                  "input_connections": {
                    "input": {"id": 2, "output_name": "accepted_hits"}},
                  "outputs": [{"name": "transcripts", "type": "gtf"},
                               {"name": "genes", "type": "tab"}]}
          }
        }"#
    }

    fn bindings() -> HashMap<String, BoundInput> {
        let mut m = HashMap::new();
        m.insert(
            "reads".into(),
            BoundInput {
                path: "/in/reads.fq".into(),
                size: 1000,
            },
        );
        m.insert(
            "genome".into(),
            BoundInput {
                path: "/in/genome.fa".into(),
                size: 5000,
            },
        );
        m
    }

    #[test]
    fn parses_tool_steps_with_connections() {
        let mut profiles = ToolProfiles::default();
        profiles.insert(
            "tophat2",
            ToolProfile {
                cpu_fixed: 100.0,
                cpu_per_byte: 0.01,
                threads: 8,
                memory_mb: 8000,
                output_factor: 0.5,
                scratch_factor: 0.0,
            },
        );
        let wf = parse_galaxy(sample_ga(), &bindings(), &profiles).unwrap();
        assert_eq!(wf.name, "mini-rnaseq");
        assert_eq!(wf.tasks.len(), 2, "data inputs are not tasks");

        let tophat = &wf.tasks[0];
        assert_eq!(tophat.name, "tophat2");
        assert_eq!(tophat.inputs.len(), 2);
        assert!(
            (tophat.cost.cpu_seconds - 160.0).abs() < 1e-9,
            "100 + 0.01*6000"
        );
        assert_eq!(tophat.cost.threads, 8);
        assert_eq!(tophat.outputs[0].size, 3000, "0.5 * 6000 bytes");

        let cufflinks = &wf.tasks[1];
        assert_eq!(cufflinks.name, "cufflinks");
        assert_eq!(cufflinks.inputs, vec![tophat.outputs[0].path.clone()]);
        assert_eq!(cufflinks.outputs.len(), 2);
    }

    #[test]
    fn external_inputs_are_the_bound_files() {
        let wf = parse_galaxy(sample_ga(), &bindings(), &ToolProfiles::default()).unwrap();
        assert_eq!(
            wf.external_inputs(),
            vec!["/in/genome.fa".to_string(), "/in/reads.fq".to_string()]
        );
    }

    #[test]
    fn unbound_input_port_is_an_error() {
        let err = parse_galaxy(sample_ga(), &HashMap::new(), &ToolProfiles::default()).unwrap_err();
        assert!(err.message.contains("not bound"), "{}", err.message);
    }

    #[test]
    fn profile_substring_matching() {
        let mut profiles = ToolProfiles::default();
        profiles.insert(
            "bowtie2",
            ToolProfile {
                threads: 16,
                ..ToolProfile::default()
            },
        );
        assert_eq!(
            profiles
                .lookup("toolshed.g2.bx.psu.edu/repos/devteam/bowtie2/bowtie2/2.2.6")
                .threads,
            16
        );
        assert_eq!(profiles.lookup("something-else").threads, 1);
    }

    #[test]
    fn rejects_connection_to_missing_step() {
        let ga = r#"{"name": "x", "steps": {
            "0": {"id": 0, "type": "tool", "tool_id": "t",
                  "input_connections": {"in": {"id": 9, "output_name": "output"}},
                  "outputs": [{"name": "o", "type": "dat"}]}}}"#;
        assert!(parse_galaxy(ga, &HashMap::new(), &ToolProfiles::default()).is_err());
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_galaxy("{", &HashMap::new(), &ToolProfiles::default()).is_err());
        assert!(parse_galaxy("{}", &HashMap::new(), &ToolProfiles::default()).is_err());
    }

    #[test]
    fn huge_fan_in_saturates_instead_of_overflowing() {
        let ga = r#"{"name": "x", "steps": {
            "0": {"id": 0, "type": "data_input", "label": "reads"},
            "1": {"id": 1, "type": "tool", "tool_id": "t",
                  "input_connections": {"in": [{"id": 0}, {"id": 0}, {"id": 0}]}}}}"#;
        let mut inputs = HashMap::new();
        inputs.insert(
            "reads".into(),
            BoundInput {
                path: "/in/reads.fq".into(),
                size: u64::MAX / 2,
            },
        );
        let wf = parse_galaxy(ga, &inputs, &ToolProfiles::default()).unwrap();
        assert_eq!(wf.tasks[0].outputs[0].size, u64::MAX);
    }
}
