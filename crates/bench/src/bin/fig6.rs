//! Regenerates Figure 6: master/worker resource utilization.
fn main() {
    hiway_bench::experiments::main("fig6")
}
