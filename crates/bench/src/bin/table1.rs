//! Regenerates Table 1 (overview of conducted experiments).
fn main() {
    hiway_bench::experiments::main("table1")
}
