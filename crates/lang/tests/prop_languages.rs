//! Property tests across the language front-ends.

use proptest::prelude::*;

use hiway_lang::cuneiform::CuneiformWorkflow;
use hiway_lang::dax::parse_dax;
use hiway_lang::ir::WorkflowSource;
use hiway_lang::trace::{parse_trace, parse_trace_events, write_trace, TaskEvent, TraceEvent};

/// Generates a random fan-out/fan-in Cuneiform program.
fn cuneiform_program(stages: &[usize], file_kb: u64) -> String {
    let mut src = String::new();
    src.push_str(
        "deftask work( out(\"/w/{0}_{1}.dat\", insize(x)) : x stage )\n  cpu 1 threads 1 mem 64;\n",
    );
    src.push_str("deftask fold( out(\"/w/fold_{1}.dat\", insize(xs)) : [xs] stage ) cpu 1;\n");
    src.push_str(&format!(
        "let inputs = [{}];\n",
        (0..stages[0])
            .map(|i| format!("file(\"/in/{i}\", {})", file_kb * 1024))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let mut prev = "inputs".to_string();
    for (si, &width) in stages.iter().enumerate() {
        if width == stages[0] && si == 0 {
            src.push_str(&format!("let s0 = work({prev}, \"s0\");\n"));
            prev = "s0".to_string();
        } else {
            // Fold to one, then no further fan-out (keeps paths unique).
            src.push_str(&format!("let s{si} = fold({prev}, \"s{si}\");\n"));
            prev = format!("s{si}");
        }
    }
    src.push_str(&format!("target {prev};\n"));
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated Cuneiform pipelines parse, unfold deterministically, and
    /// produce valid static task graphs.
    #[test]
    fn cuneiform_unfolding_is_deterministic_and_valid(
        width in 1usize..8,
        depth in 1usize..4,
        file_kb in 1u64..512,
        seed in 0u64..100,
    ) {
        let stages: Vec<usize> = std::iter::once(width).chain((1..depth).map(|_| 1)).collect();
        let src = cuneiform_program(&stages, file_kb);
        let mut a = CuneiformWorkflow::parse("p", &src, seed).expect("parse");
        let mut b = CuneiformWorkflow::parse("p", &src, seed).expect("parse");
        let ta = a.initial_tasks().expect("unfold");
        let tb = b.initial_tasks().expect("unfold");
        prop_assert_eq!(&ta, &tb, "same seed, same tasks");
        prop_assert!(a.is_complete(), "no val/if: fully static");
        // The unfolded graph is a valid DAG.
        let wf = hiway_lang::ir::StaticWorkflow::new("p", "cuneiform", ta.clone());
        wf.validate().expect("valid DAG");
        // Task count: width work tasks + (depth-1) folds.
        prop_assert_eq!(ta.len(), width + depth.saturating_sub(1));
    }

    /// DAX documents generated from random diamond-ish shapes round-trip
    /// through the parser with the right task count.
    #[test]
    fn dax_random_fanout_parses(width in 1usize..12, runtime in 1.0f64..100.0) {
        let mut jobs = String::new();
        for i in 0..width {
            jobs.push_str(&format!(
                r#"<job id="m{i}" name="mapper" runtime="{runtime}">
                     <uses file="in.dat" link="input" size="100"/>
                     <uses file="m{i}.out" link="output" size="10"/>
                   </job>"#
            ));
        }
        let uses: String = (0..width)
            .map(|i| format!(r#"<uses file="m{i}.out" link="input" size="10"/>"#))
            .collect();
        jobs.push_str(&format!(
            r#"<job id="r" name="reducer" runtime="{runtime}">{uses}
                 <uses file="final.out" link="output" size="1"/>
               </job>"#
        ));
        let doc = format!(r#"<adag name="gen">{jobs}</adag>"#);
        let wf = parse_dax(&doc).expect("valid DAX");
        prop_assert_eq!(wf.tasks.len(), width + 1);
        prop_assert_eq!(wf.external_inputs(), vec!["in.dat".to_string()]);
        for t in &wf.tasks {
            prop_assert!((t.cost.cpu_seconds - runtime).abs() < 1e-9);
        }
    }

    /// Trace events survive serialization for arbitrary metadata strings.
    #[test]
    fn trace_round_trip_any_strings(
        name in "[\\PC&&[^\"\\\\]]{0,24}",
        node in "[a-z0-9-]{1,16}",
        stdout in "\\PC{0,48}",
        t_start in 0.0f64..1.0e6,
        makespan in 0.0f64..1.0e4,
    ) {
        let event = TraceEvent::Task(TaskEvent {
            id: 7,
            name: name.clone(),
            command: format!("{name} --arg"),
            inputs: vec![("/in".into(), 42)],
            outputs: vec![("/out".into(), 7)],
            cpu_seconds: makespan,
            threads: 3,
            memory_mb: 123,
            node,
            t_start,
            t_end: t_start + makespan,
            attempts: 2,
            stdout,
            stderr: String::new(),
        });
        let text = write_trace(std::slice::from_ref(&event));
        let parsed = parse_trace_events(&text).expect("round trip");
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(&parsed[0], &event);
    }
}

/// A trace of a linear chain replays into an identical chain.
#[test]
fn chained_trace_replays_with_same_dependencies() {
    let mut events = Vec::new();
    for i in 0..5u64 {
        events.push(TraceEvent::Task(TaskEvent {
            id: i,
            name: format!("stage{i}"),
            command: format!("tool{i}"),
            inputs: vec![(
                if i == 0 {
                    "/input".into()
                } else {
                    format!("/mid{}", i - 1)
                },
                10,
            )],
            outputs: vec![(format!("/mid{i}"), 10)],
            cpu_seconds: 1.0,
            threads: 1,
            memory_mb: 10,
            node: "w0".into(),
            t_start: i as f64,
            t_end: i as f64 + 1.0,
            attempts: 1,
            stdout: String::new(),
            stderr: String::new(),
        }));
    }
    let wf = parse_trace(&write_trace(&events)).unwrap();
    assert_eq!(wf.tasks.len(), 5);
    assert_eq!(wf.external_inputs(), vec!["/input".to_string()]);
    wf.validate().unwrap();
}

/// Unguarded infinite recursion is an error, not a stack overflow.
#[test]
fn unbounded_recursion_is_rejected() {
    let src = r#"
        defun spin(x) = spin(x);
        target spin(1);
    "#;
    let mut wf = CuneiformWorkflow::parse("loop", src, 0).unwrap();
    let err = wf.initial_tasks().unwrap_err();
    assert!(err.message.contains("recursion"), "{}", err.message);
}

// ---------------------------------------------------------------------------
// Parse → IR → trace-replay equivalence (§3.5: "the trace file … can be
// interpreted as a workflow itself"). A workflow parsed from any front-end,
// executed, and re-parsed from its own trace must be the same workflow:
// same tasks, same commands, same file-mediated dependency structure, same
// costs. (The trace schema carries no scratch-I/O field, so the generated
// profiles below use none.)

use std::collections::HashMap;

use hiway_lang::galaxy::{parse_galaxy, BoundInput, ToolProfile, ToolProfiles};
use hiway_lang::ir::StaticWorkflow;
use hiway_lang::trace::WorkflowEvent;

/// Synthesizes the trace a run of `wf` would write (tasks in IR order,
/// one attempt each), re-parses it, and checks structural equivalence.
fn assert_replay_equivalent(wf: &StaticWorkflow) -> Result<(), TestCaseError> {
    let size_of: HashMap<String, u64> = wf
        .tasks
        .iter()
        .flat_map(|t| t.outputs.iter().map(|o| (o.path.clone(), o.size)))
        .collect();
    let mut events = vec![TraceEvent::Workflow(WorkflowEvent {
        name: wf.name.clone(),
        language: wf.language.to_string(),
        total_seconds: wf.tasks.len() as f64,
    })];
    for (i, t) in wf.tasks.iter().enumerate() {
        events.push(TraceEvent::Task(TaskEvent {
            id: t.id.0,
            name: t.name.clone(),
            command: t.command.clone(),
            inputs: t
                .inputs
                .iter()
                .map(|p| (p.clone(), *size_of.get(p).unwrap_or(&0)))
                .collect(),
            outputs: t.outputs.iter().map(|o| (o.path.clone(), o.size)).collect(),
            cpu_seconds: t.cost.cpu_seconds,
            threads: t.cost.threads,
            memory_mb: t.cost.memory_mb,
            node: "w-0".into(),
            t_start: i as f64,
            t_end: i as f64 + 1.0,
            attempts: 1,
            stdout: String::new(),
            stderr: String::new(),
        }));
    }
    let replay = parse_trace(&write_trace(&events)).expect("trace replays");
    prop_assert_eq!(replay.tasks.len(), wf.tasks.len());
    prop_assert_eq!(replay.external_inputs(), wf.external_inputs());
    for (a, b) in wf.tasks.iter().zip(&replay.tasks) {
        prop_assert_eq!(a.id.0, b.id.0);
        prop_assert_eq!(&a.name, &b.name);
        prop_assert_eq!(&a.command, &b.command);
        prop_assert_eq!(&a.inputs, &b.inputs);
        let outs = |t: &hiway_lang::ir::TaskSpec| -> Vec<(String, u64)> {
            t.outputs.iter().map(|o| (o.path.clone(), o.size)).collect()
        };
        prop_assert_eq!(outs(a), outs(b));
        prop_assert_eq!(a.cost.cpu_seconds, b.cost.cpu_seconds);
        prop_assert_eq!(a.cost.threads, b.cost.threads);
        prop_assert_eq!(a.cost.memory_mb, b.cost.memory_mb);
    }
    Ok(())
}

/// A Galaxy `.ga` document: one data input fanning out to `width` mapper
/// tool steps, folded by a collector step.
fn galaxy_doc(width: usize) -> String {
    let mut steps = String::from(
        r#""0": {"id": 0, "type": "data_input", "label": "reads",
             "input_connections": {}, "outputs": []}"#,
    );
    for i in 1..=width {
        steps.push_str(&format!(
            r#", "{i}": {{"id": {i}, "type": "tool",
                 "tool_id": "shed/repos/dev/mapper/mapper/1.{i}",
                 "input_connections": {{"input": {{"id": 0, "output_name": "output"}}}},
                 "outputs": [{{"name": "out", "type": "dat"}}]}}"#
        ));
    }
    let conns: Vec<String> = (1..=width)
        .map(|i| format!(r#""in{i}": {{"id": {i}, "output_name": "out"}}"#))
        .collect();
    let cid = width + 1;
    steps.push_str(&format!(
        r#", "{cid}": {{"id": {cid}, "type": "tool",
             "tool_id": "shed/repos/dev/collect/collect/1.0",
             "input_connections": {{{}}},
             "outputs": [{{"name": "merged", "type": "dat"}}]}}"#,
        conns.join(", ")
    ));
    format!(r#"{{"a_galaxy_workflow": "true", "name": "gen-ga", "steps": {{{steps}}}}}"#)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DAX documents survive the execute-and-replay loop structurally
    /// intact.
    #[test]
    fn dax_trace_replay_is_equivalent(width in 1usize..10, runtime in 1.0f64..100.0) {
        let mut jobs = String::new();
        for i in 0..width {
            jobs.push_str(&format!(
                r#"<job id="m{i}" name="mapper" runtime="{runtime}">
                     <uses file="in.dat" link="input" size="100"/>
                     <uses file="m{i}.out" link="output" size="10"/>
                   </job>"#
            ));
        }
        let uses: String = (0..width)
            .map(|i| format!(r#"<uses file="m{i}.out" link="input" size="10"/>"#))
            .collect();
        jobs.push_str(&format!(
            r#"<job id="r" name="reducer" runtime="{runtime}">{uses}
                 <uses file="final.out" link="output" size="1"/>
               </job>"#
        ));
        let wf = parse_dax(&format!(r#"<adag name="gen">{jobs}</adag>"#)).expect("valid DAX");
        prop_assert_eq!(wf.tasks.len(), width + 1);
        assert_replay_equivalent(&wf)?;
    }

    /// Galaxy workflows survive the execute-and-replay loop structurally
    /// intact, for arbitrary tool cost profiles.
    #[test]
    fn galaxy_trace_replay_is_equivalent(
        width in 1usize..8,
        input_kb in 1u64..4096,
        cpu_fixed in 1.0f64..600.0,
        threads in 1u32..16,
        memory_mb in 256u64..16_000,
    ) {
        let mut inputs = HashMap::new();
        inputs.insert(
            "reads".to_string(),
            BoundInput { path: "/in/reads.fq".to_string(), size: input_kb * 1024 },
        );
        let mut profiles = ToolProfiles::default();
        profiles.fallback = ToolProfile {
            cpu_fixed,
            cpu_per_byte: 0.0,
            threads,
            memory_mb,
            output_factor: 1.0,
            scratch_factor: 0.0,
        };
        let wf = parse_galaxy(&galaxy_doc(width), &inputs, &profiles).expect("valid .ga");
        prop_assert_eq!(wf.tasks.len(), width + 1, "data input is not a task");
        prop_assert_eq!(wf.external_inputs(), vec!["/in/reads.fq".to_string()]);
        assert_replay_equivalent(&wf)?;
    }
}

// Truncated traces: a trace file cut off mid-write must be rejected or
// accepted cleanly, both by the parser and by the provenance import that
// loads traces into the statistics store.

use hiway_core::ProvenanceManager;
use hiway_lang::trace::FileEvent;
use hiway_provdb::ProvDb;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every byte prefix of a written trace parses to `Ok` or `Err`, and
    /// every prefix that parses imports its task events, never panicking.
    /// Prefixes that split a UTF-8 sequence are read lossily, the way a
    /// reader of a torn file would see them.
    #[test]
    fn truncated_traces_parse_or_fail_without_panicking(
        name in "\\PC{0,12}",
        stdout in "\\PC{0,24}",
        t_start in 0.0f64..1.0e6,
        makespan in 0.0f64..1.0e4,
    ) {
        let events = vec![
            TraceEvent::Workflow(WorkflowEvent {
                name: name.clone(),
                language: "cuneiform".into(),
                total_seconds: t_start + makespan,
            }),
            TraceEvent::Task(TaskEvent {
                id: 3,
                name: name.clone(),
                command: format!("{name} --in \"/a b\\c\""),
                inputs: vec![("/in/ä.fq".into(), 1 << 40)],
                outputs: vec![(format!("/out/{name}"), 7)],
                cpu_seconds: makespan,
                threads: 2,
                memory_mb: 512,
                node: "worker-1".into(),
                t_start,
                t_end: t_start + makespan,
                attempts: 1,
                stdout,
                stderr: "\u{1f600}\t\n".into(),
            }),
            TraceEvent::File(FileEvent {
                path: "/in/ä.fq".into(),
                size: 1 << 40,
                task: 3,
                direction: "in".into(),
                transfer_seconds: 0.25,
            }),
        ];
        let text = write_trace(&events);
        let mut parsed_prefixes = 0;
        for n in 0..=text.len() {
            let prefix = String::from_utf8_lossy(&text.as_bytes()[..n]);
            if let Ok(parsed) = parse_trace_events(&prefix) {
                parsed_prefixes += 1;
                let tasks = parsed
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::Task(_)))
                    .count();
                let mut prov = ProvenanceManager::new(ProvDb::new());
                prop_assert_eq!(prov.import_trace(&prefix).ok(), Some(tasks), "prefix {}", n);
            }
        }
        // At least the empty prefix and each whole line parse.
        prop_assert!(parsed_prefixes > events.len());
        prop_assert_eq!(parse_trace_events(&text).expect("whole trace"), events);
    }
}

// ---------------------------------------------------------------------------
// Cuneiform front-end fuzzing: malformed programs are an `Err`, never a
// panic or a stack overflow, in the parser and in the first evaluation round.

/// A program that uses every production of the Cuneiform grammar.
const EVERY_CONSTRUCT: &str = r#"% comment
deftask probe( out("/p/{0}.dat", 10), out("/p/{x}.log", 1) : x )
  cpu mul(insize(x), 0.5) threads 2 mem 64 scratch 100 yield prob(0.5);
deftask fold( out("/f/{tag}.dat", insize(xs)) : [xs] tag ) cpu 1 yield tag;
defun iterate(c, i) = let n = fold([c], i); if lt(val(n), 2) then iterate(n, add(i, 1)) else n;
let inputs = [file("/in/a", 100), file("/in/b", 200)];
let probed = probe(inputs);
target [iterate(nth(inputs, 0), 0),
        if val(nth(nth(probed, 1), 0)) then fold(inputs, "yes") else (concat(inputs, []))];
"#;

/// Parses `src` and, when that succeeds, runs the first evaluation round.
/// Either step may fail; a panic or an abort fails the calling test.
fn parse_and_unfold(src: &str) -> bool {
    CuneiformWorkflow::parse("fuzz", src, 1)
        .and_then(|mut wf| wf.initial_tasks())
        .is_ok()
}

/// Every byte prefix of `src`, read lossily where it splits a UTF-8
/// sequence, parses and unfolds or fails; returns how many succeeded.
/// Besides the whole program (with or without its last newline), the
/// prefixes that end after a `let` succeed, so more than two do.
fn unfold_every_prefix(src: &str) -> usize {
    (0..=src.len())
        .filter(|&n| parse_and_unfold(&String::from_utf8_lossy(&src.as_bytes()[..n])))
        .count()
}

#[test]
fn truncated_cuneiform_programs_fail_without_panicking() {
    assert!(parse_and_unfold(EVERY_CONSTRUCT));
    assert!(unfold_every_prefix(EVERY_CONSTRUCT) > 2);
}

#[test]
fn deeply_nested_cuneiform_is_an_error() {
    const LEVELS: usize = 100_000;
    for (open, close) in [
        ("[", "]"),
        ("(", ")"),
        ("f(", ")"),
        ("if 1 then ", " else 1"),
    ] {
        let opened = format!("target {}", open.repeat(LEVELS));
        let closed = format!("{opened}1{};", close.repeat(LEVELS));
        let err = CuneiformWorkflow::parse("deep", &closed, 0).err();
        let message = err.expect("rejected").message;
        assert!(message.contains("nested"), "{open}: {message}");
        // Unclosed, it must still stop at the limit instead of recursing.
        assert!(!parse_and_unfold(&opened));
    }
}

/// Words and punctuation of the grammar, separated by spaces, so random
/// sequences reach past the lexer into the parser and the evaluator.
const TOKENS: &str = "deftask defun let target if then else out cpu yield ( ) [ ] , ; : = \
                      1 -2.5 \"s_{0}\" x f val file nth add prob \" %";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random byte strings and random token sequences parse and unfold or
    /// fail, never panicking.
    #[test]
    fn random_cuneiform_input_fails_without_panicking(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        picks in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        parse_and_unfold(&String::from_utf8_lossy(&bytes));
        let tokens: Vec<&str> = TOKENS.split_whitespace().collect();
        let words: Vec<&str> = picks
            .iter()
            .map(|&p| tokens[usize::from(p) % tokens.len()])
            .collect();
        parse_and_unfold(&words.join(" "));
    }

    /// Every byte prefix of a generated pipeline parses and unfolds or
    /// fails, never panicking; the whole program unfolds.
    #[test]
    fn truncated_generated_programs_fail_without_panicking(
        width in 1usize..5,
        depth in 1usize..3,
    ) {
        let stages: Vec<usize> = std::iter::once(width).chain((1..depth).map(|_| 1)).collect();
        let src = cuneiform_program(&stages, 4);
        prop_assert!(parse_and_unfold(&src));
        prop_assert!(unfold_every_prefix(&src) > 2);
    }
}

// ---------------------------------------------------------------------------
// DAX, Galaxy and trace fuzzing: random bytes, random token sequences,
// truncations and byte edits of valid documents are an `Err` or a
// workflow, never a panic.

/// A DAX document with every element and attribute the parser reads.
const SAMPLE_DAX: &str = r#"<?xml version="1.0"?>
<adag name="fuzz">
  <job id="a" name="pre" runtime="10" threads="2" memory="1000" scratch="5">
    <argument>-i in.dat</argument>
    <uses file="in.dat" link="input" size="100"/>
    <uses file="a.dat" link="output" size="50"/>
  </job>
  <job id="b" name="post"><uses file="a.dat" link="input"/></job>
  <child ref="b"><parent ref="a"/></child>
</adag>
"#;

/// Grammar words of the three formats, so random sequences get past the
/// tokenizers into the front-ends.
const DOC_TOKENS: &str = r#"<adag </adag> <job </job> <uses <child </child> <parent <argument>
    </argument> /> > = id="a" id="b" name="t" runtime="1e308" runtime="NaN" threads="-1"
    size="18446744073709551616" file="a.dat" link="input" link="output" ref="a" ref="b"
    <!-- --> <?xml ?> &amp; &#x41; { } [ ] : , "steps" "id" "type" "tool" "data_input" "label"
    "reads" "tool_id" "input_connections" "outputs" "name" "output_name" "output" 0 1 -1 1e999
    18446744073709551616 "task" "workflow" "file" "inputs" "path" "size" null true \n"#;

/// Runs every parser on `text`; returns how many accepted it.
fn parse_all(text: &str) -> usize {
    let mut bindings = HashMap::new();
    bindings.insert(
        "reads".to_string(),
        BoundInput {
            path: "/in/reads.fq".to_string(),
            size: u64::MAX / 2,
        },
    );
    [
        parse_dax(text).is_ok(),
        parse_galaxy(text, &bindings, &ToolProfiles::default()).is_ok(),
        parse_trace(text).is_ok(),
    ]
    .into_iter()
    .filter(|ok| *ok)
    .count()
}

/// A written trace of two dependent tasks.
fn sample_trace() -> String {
    let task = |id: u64, input: &str, output: &str| {
        TraceEvent::Task(TaskEvent {
            id,
            name: format!("t{id}"),
            command: "tool".into(),
            inputs: vec![(input.into(), 10)],
            outputs: vec![(output.into(), 5)],
            cpu_seconds: 1.5,
            threads: 1,
            memory_mb: 256,
            node: "w-1".into(),
            t_start: 0.0,
            t_end: 1.5,
            attempts: 1,
            stdout: String::new(),
            stderr: String::new(),
        })
    };
    write_trace(&[task(0, "/in", "/a"), task(1, "/a", "/b")])
}

/// `doc` with the byte at each `(position, value)` edit replaced, read
/// lossily.
fn edited(doc: &str, edits: &[(u16, u8)]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(at, value) in edits {
        let len = bytes.len();
        bytes[usize::from(at) % len] = value;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn truncated_documents_fail_without_panicking() {
    let docs = [SAMPLE_DAX.to_string(), galaxy_doc(3), sample_trace()];
    for doc in &docs {
        assert_eq!(parse_all(doc), 1, "the whole document parses: {doc}");
        for n in 0..doc.len() {
            parse_all(&String::from_utf8_lossy(&doc.as_bytes()[..n]));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bytes are an `Err` for every parser; random token sequences
    /// and byte edits of valid documents are an `Err` or a workflow.
    #[test]
    fn random_documents_fail_without_panicking(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        picks in proptest::collection::vec(any::<u8>(), 0..64),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..6),
    ) {
        prop_assert_eq!(parse_all(&String::from_utf8_lossy(&bytes)), 0);
        let tokens: Vec<&str> = DOC_TOKENS.split_whitespace().collect();
        let words: Vec<&str> = picks
            .iter()
            .map(|&p| tokens[usize::from(p) % tokens.len()])
            .collect();
        parse_all(&words.join(" "));
        parse_all(&words.concat());
        for doc in [SAMPLE_DAX.to_string(), galaxy_doc(2), sample_trace()] {
            parse_all(&edited(&doc, &edits));
        }
    }
}
