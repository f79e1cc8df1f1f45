//! Runs the three design-choice ablations described in DESIGN.md.
fn main() {
    hiway_bench::experiments::main("ablation")
}
