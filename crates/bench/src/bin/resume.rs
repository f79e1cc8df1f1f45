//! Crash-and-resume experiment: cold run, warm resume, and a run killed
//! mid-DAG then resumed, all against durable provenance stores.
fn main() {
    hiway_bench::experiments::main("resume")
}
