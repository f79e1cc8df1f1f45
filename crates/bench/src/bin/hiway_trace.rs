//! `hiway-trace`: run one fully-traced workflow execution and export the
//! observability artifacts: a Perfetto trace, a JSON-lines event log and
//! a plain-text per-node Gantt chart. `hiway-trace --help` prints the
//! flags and the files written ([`USAGE`]).
//!
//! Output is byte-deterministic for a given flag set; CI runs it twice
//! and diffs.

use std::path::Path;
use std::str::FromStr;

use hiway_bench::trace_run::{run, TraceParams};
use hiway_core::SchedulerPolicy;

const USAGE: &str = "\
usage: hiway-trace [--workers N] [--seed S] [--intensity X]
                   [--scheduler fcfs|data-aware|round-robin|heft|adaptive]
                   [--out-dir DIR]

Writes into --out-dir (default .):
  trace.perfetto.json  Chrome trace-event JSON, open at ui.perfetto.dev
  trace.events.jsonl   JSON-lines event log (events, decisions, metrics)
  trace.gantt.txt      plain-text per-node Gantt chart
";

/// What the command line asks for.
#[derive(Debug)]
enum Command {
    Help,
    Run {
        params: TraceParams,
        out_dir: String,
    },
}

fn parse_scheduler(s: &str) -> Result<SchedulerPolicy, String> {
    Ok(match s {
        "fcfs" => SchedulerPolicy::Fcfs,
        "data-aware" => SchedulerPolicy::DataAware,
        "round-robin" => SchedulerPolicy::RoundRobin,
        "heft" => SchedulerPolicy::Heft,
        "adaptive" => SchedulerPolicy::Adaptive,
        other => {
            return Err(format!(
                "unknown scheduler {other:?}; expected fcfs|data-aware|round-robin|heft|adaptive"
            ))
        }
    })
}

/// The value after `flag`, parsed.
fn value<T: FromStr>(it: &mut std::slice::Iter<String>, flag: &str) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

/// Parses the arguments after the program name.
fn parse(args: &[String]) -> Result<Command, String> {
    let mut params = TraceParams::default();
    let mut out_dir = ".".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--workers" => params.workers = value(&mut it, flag)?,
            "--seed" => params.seed = value(&mut it, flag)?,
            "--intensity" => params.intensity = value(&mut it, flag)?,
            "--scheduler" => params.scheduler = parse_scheduler(&value::<String>(&mut it, flag)?)?,
            "--out-dir" => out_dir = value(&mut it, flag)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Command::Run { params, out_dir })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (params, out_dir) = match parse(&args) {
        Ok(Command::Help) => {
            print!("{USAGE}");
            return;
        }
        Ok(Command::Run { params, out_dir }) => (params, out_dir),
        Err(e) => {
            eprint!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let out = match run(&params) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("trace run failed: {e}");
            std::process::exit(1);
        }
    };
    let dir = Path::new(&out_dir);
    std::fs::create_dir_all(dir).expect("create --out-dir");
    for (file, bytes) in [
        ("trace.perfetto.json", &out.perfetto),
        ("trace.events.jsonl", &out.jsonl),
        ("trace.gantt.txt", &out.gantt),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, bytes).expect("write trace artifact");
        println!("wrote {} ({} bytes)", path.display(), bytes.len());
    }
    print!("{}", out.summary);
    println!("open trace.perfetto.json at https://ui.perfetto.dev");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn help_wins_over_other_flags() {
        assert!(matches!(parse_strs(&["--help"]), Ok(Command::Help)));
        assert!(matches!(
            parse_strs(&["--seed", "7", "-h", "--bogus"]),
            Ok(Command::Help)
        ));
    }

    #[test]
    fn flags_set_params_and_bad_ones_err() {
        let Ok(Command::Run { params, out_dir }) =
            parse_strs(&["--workers", "3", "--scheduler", "heft", "--out-dir", "t"])
        else {
            panic!("a valid command line must parse");
        };
        assert_eq!(params.workers, 3);
        assert_eq!(params.scheduler, SchedulerPolicy::Heft);
        assert_eq!(out_dir, "t");
        for bad in [
            &["--bogus"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--scheduler", "lifo"],
        ] {
            assert!(parse_strs(bad).is_err(), "{bad:?}");
        }
    }
}
