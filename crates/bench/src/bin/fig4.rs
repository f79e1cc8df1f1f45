//! Regenerates Figure 4: SNV runtime vs container count, Hi-WAY vs Tez.
fn main() {
    hiway_bench::experiments::main("fig4")
}
