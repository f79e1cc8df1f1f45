//! Supplementary experiment: concurrent per-workflow AMs vs sequential runs.
fn main() {
    hiway_bench::experiments::main("multiwf")
}
