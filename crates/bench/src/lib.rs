//! # hiway-bench — regenerating every table and figure of the paper
//!
//! Each experiment of the evaluation (Section 4) is implemented as a
//! library function returning structured results, so the same code backs
//! the regression tests and, through the one table
//! [`experiments::ALL`], the experiment binaries and `bench_e2e`. See
//! `EXPERIMENTS.md` at the repository root for paper-vs-measured numbers.
//!
//! | Binary    | Paper artefact | What it sweeps |
//! |-----------|----------------|----------------|
//! | `table1`  | Table 1        | experiment overview |
//! | `fig4`    | Figure 4       | SNV runtime vs container count, Hi-WAY vs Tez |
//! | `table2`  | Table 2 + Fig 5| SNV weak scaling 1→128 workers, cost model |
//! | `fig6`    | Figure 6       | master/worker resource utilization |
//! | `fig8`    | Figure 8       | TRAPLINE on Hi-WAY vs Galaxy CloudMan |
//! | `fig9`    | Figure 9       | Montage: HEFT vs FCFS over provenance warm-up |
//!
//! Supplementary binaries: `ablation`, `multiwf`, `chaos`, `resume`,
//! `bench_e2e` (the ten experiments above and below run serially, checked
//! against `results/`, timed, and split over the `hiway_obs::profile`
//! sections → `BENCH_e2e.json`, written through [`report`]), and
//! `hiway-trace` (one fully-traced run exported as Perfetto JSON /
//! JSON-lines / text Gantt; see [`trace_run`]).

pub mod experiments;
pub mod report;
pub mod stats;
pub mod trace_run;

pub use stats::Summary;
