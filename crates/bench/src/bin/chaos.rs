//! Regenerates the chaos experiment: Montage under injected faults.
fn main() {
    hiway_bench::experiments::main("chaos")
}
