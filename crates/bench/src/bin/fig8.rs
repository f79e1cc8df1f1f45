//! Regenerates Figure 8: TRAPLINE RNA-seq, Hi-WAY vs Galaxy CloudMan.
fn main() {
    hiway_bench::experiments::main("fig8")
}
