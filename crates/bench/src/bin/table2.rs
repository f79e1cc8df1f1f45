//! Regenerates Table 2 and Figure 5: SNV weak scaling, 1→128 workers.
fn main() {
    hiway_bench::experiments::main("table2")
}
