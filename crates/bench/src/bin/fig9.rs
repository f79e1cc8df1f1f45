//! Regenerates Figure 9: Montage with HEFT vs FCFS over a provenance warm-up.
fn main() {
    hiway_bench::experiments::main("fig9")
}
