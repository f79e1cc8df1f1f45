//! One module per table/figure of the paper's evaluation, and [`ALL`]:
//! the table every experiment bin and `bench_e2e` run from.

pub mod ablation;
pub mod chaos;
pub mod common;
pub mod fig4;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod multiwf;
pub mod resume;
pub mod table1;
pub mod table2;

/// Renders an experiment bin's whole stdout.
pub type Run = fn() -> Result<String, String>;

/// Every experiment bin by name, in the order CI gates them. A bin's name
/// is also the name of its golden file `results/<name>.txt`.
pub const ALL: [(&str, Run); 10] = [
    ("table1", table1_page),
    ("fig4", fig4_page),
    ("table2", table2_page),
    ("fig6", fig6_page),
    ("fig8", fig8_page),
    ("fig9", fig9_page),
    ("ablation", ablation_page),
    ("multiwf", multiwf_page),
    ("chaos", chaos_page),
    ("resume", resume_page),
];

/// The body of every experiment bin: prints the output of the
/// experiment called `name`, or its error and exits 1.
pub fn main(name: &str) {
    let &(_, run) = ALL
        .iter()
        .find(|&&(n, _)| n == name)
        .unwrap_or_else(|| panic!("no experiment named {name}"));
    match run() {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("{name} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// A header, a blank line, then the rendered body.
fn page(header: &str, body: &str) -> String {
    format!("{header}\n\n{body}\n")
}

fn table1_page() -> Result<String, String> {
    let header = "Table 1: overview of conducted experiments";
    Ok(page(header, &table1::render()))
}

fn fig4_page() -> Result<String, String> {
    let p = fig4::Fig4Params::default();
    let header = format!(
        "Figure 4: SNV variant calling on a {}-node local cluster (1 GbE switch), {} runs/point",
        p.nodes, p.runs
    );
    Ok(page(&header, &fig4::render(&fig4::run(&p)?)))
}

fn table2_page() -> Result<String, String> {
    let p = table2::Table2Params::default();
    let header = format!(
        "Table 2 / Figure 5: SNV weak scaling on EC2 m3.large, {} runs/rung",
        p.runs
    );
    Ok(page(&header, &table2::render(&table2::run(&p)?)))
}

fn fig6_page() -> Result<String, String> {
    let header =
        "Figure 6: whole-run average utilization of Hadoop master, Hi-WAY AM, and a worker";
    let rows = fig6::run(&fig6::Fig6Params::default())?;
    Ok(page(header, &fig6::render(&rows)))
}

fn fig8_page() -> Result<String, String> {
    let p = fig8::Fig8Params::default();
    let header = format!(
        "Figure 8: TRAPLINE on EC2 c3.2xlarge, one task per node, {} runs/size",
        p.runs
    );
    Ok(page(&header, &fig8::render(&fig8::run(&p)?)))
}

fn fig9_page() -> Result<String, String> {
    let p = fig9::Fig9Params::default();
    let header = format!(
        "Figure 9: Montage on 11 heterogeneous (stressed) workers, {} repetitions",
        p.repetitions
    );
    let result = fig9::run(&p)?;
    let (t1, t11) = fig9::significance(&result);
    Ok(page(&header, &fig9::render(&result))
        + &format!("Welch t, FCFS vs HEFT(1 prior run):        {t1:.2}\n")
        + &format!("Welch t, HEFT(10 prior) vs HEFT(11 prior): {t11:.2}\n"))
}

fn ablation_page() -> Result<String, String> {
    let header = "Ablations of Hi-WAY's design choices";
    Ok(page(header, &ablation::render(&ablation::run(11)?)))
}

fn multiwf_page() -> Result<String, String> {
    let points = multiwf::run(11, &[1, 2, 4, 8], 5)?;
    let sweep = multiwf::run_fairness(16, 4, 5)?;
    let header = "Multi-tenancy: k concurrent Montage workflows, one AM each, 11 workers";
    let fairness = "Fairness: two queues weighted 2:1, 4 Montage workflows each, 16 workers";
    Ok(
        page(header, &multiwf::render(&points))
            + &page(fairness, &multiwf::render_fairness(&sweep)),
    )
}

fn chaos_page() -> Result<String, String> {
    let p = chaos::ChaosParams::default();
    let header = format!(
        "Chaos: Montage on {} workers under seeded fault injection, {} repetitions per intensity",
        p.workers, p.repetitions
    );
    Ok(page(&header, &chaos::render(&chaos::run(&p)?)))
}

/// Runs the resume experiment in a fresh scratch directory, removed
/// afterwards whether or not the run succeeds. Its output holds virtual
/// times and counts only, no host paths.
fn resume_page() -> Result<String, String> {
    let scratch = std::env::temp_dir().join(format!("hiway-resume-exp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let result = resume::run(&scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(page(
        "Crash-and-resume: Montage on 4 workers, durable provenance store, memoized re-execution",
        &resume::render(&result?),
    ))
}
