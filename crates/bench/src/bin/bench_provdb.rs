//! Provenance-store benchmark: append throughput (in-memory vs durable
//! WAL), indexed vs scan lookups, batched vs per-line import, and
//! recovery time against log size. Emits `BENCH_provdb.json` for
//! regression tracking.
//!
//! Usage: `bench_provdb [--quick] [output.json]`

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hiway_bench::report::{self, best_of, Report};
use hiway_format::json::Json;
use hiway_provdb::{Collection, ProvDb};

/// A provenance-event-shaped document, deterministic in `i`.
fn doc(i: u64) -> Json {
    Json::object()
        .with("event", "task-completed")
        .with(
            "key",
            format!("{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        )
        .with("name", format!("mProjectPP_{}", i % 17))
        .with("node", format!("w-{}", i % 11))
        .with("makespan", (i % 97) as f64 + 0.5)
        .with(
            "outputs",
            Json::Array(vec![Json::object()
                .with("path", format!("proj/image_{i}.fits"))
                .with("bytes", 4_194_304u64)]),
        )
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hiway-bench-provdb-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two threads that scan the collection (unindexed `find_eq`) until the
/// value is dropped: the readers of a contended import.
struct Readers {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Readers {
    fn start(col: &Collection, probe: &Json) -> Readers {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..2)
            .map(|_| {
                let (reader, probe, stop) = (col.clone(), probe.clone(), stop.clone());
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = reader.find_eq("key", &probe);
                    }
                })
            })
            .collect();
        Readers { stop, threads }
    }
}

impl Drop for Readers {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A second panic while the timed run unwinds would abort.
            if t.join().is_err() && !std::thread::panicking() {
                panic!("a reader thread panicked");
            }
        }
    }
}

fn main() {
    let args = report::args("BENCH_provdb.json");
    let (n_docs, n_lookups, runs) = if args.quick {
        (5_000u64, 2_000u64, 2)
    } else {
        (50_000u64, 20_000u64, 3)
    };
    println!("provenance store benchmark: {n_docs} docs, {n_lookups} lookups, best of {runs}");
    let mut report = Report::new("provdb");
    report
        .workload("docs", n_docs)
        .workload("lookups", n_lookups)
        .workload("runs", runs);

    // --- append throughput: in-memory vs durable WAL ---------------------
    let append = |col: &Collection, n: u64| {
        for i in 0..n {
            col.insert(doc(i));
        }
        col.len()
    };
    let (len, mem_secs) = best_of(
        runs,
        || (),
        |_| append(&ProvDb::new().collection("events"), n_docs),
    );
    assert_eq!(len as u64, n_docs);
    let dir = scratch("append");
    let (len, wal_secs) = best_of(
        runs,
        || {
            let _ = std::fs::remove_dir_all(&dir);
        },
        |_| {
            append(
                &ProvDb::open(&dir)
                    .expect("open durable")
                    .collection("events"),
                n_docs,
            )
        },
    );
    assert_eq!(len as u64, n_docs);
    let _ = std::fs::remove_dir_all(&dir);
    report
        .metric(
            "append.in_memory_docs_per_s",
            n_docs as f64 / mem_secs,
            "docs/s",
        )
        .metric(
            "append.durable_docs_per_s",
            n_docs as f64 / wal_secs,
            "docs/s",
        )
        .metric(
            "append.wal_overhead_frac",
            wal_secs / mem_secs - 1.0,
            "ratio",
        );

    // --- lookups: hash index vs full scan --------------------------------
    let col = ProvDb::new().collection("events");
    col.insert_many((0..n_docs).map(doc).collect());
    // Point lookups by unique key — the memo layer's hot path.
    let probe = Json::String(format!(
        "{:016x}",
        4321u64.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    ));
    let lookups = |n: u64| -> usize { (0..n).map(|_| col.find_eq("key", &probe).len()).sum() };
    // No index on "key" yet: find_eq falls back to a full scan.
    let (found, scan_secs) = best_of(runs, || (), |_| lookups(n_lookups / 100));
    assert_eq!(found as u64, n_lookups / 100);
    let scan_us = scan_secs / (n_lookups / 100) as f64 * 1e6;
    col.create_index("key");
    let (found, index_secs) = best_of(runs, || (), |_| lookups(n_lookups));
    assert_eq!(found as u64, n_lookups);
    let index_us = index_secs / n_lookups as f64 * 1e6;
    report
        .metric("lookup.scan_us", scan_us, "us")
        .metric("lookup.indexed_us", index_us, "us")
        .metric("lookup.speedup", scan_us / index_us, "ratio");

    // --- import: one batch vs a per-line insert loop ---------------------
    // Pre-parsed so the comparison isolates the insert path (per-line
    // lock + WAL acquisition vs one batch guard), not JSON parsing.
    let parsed: Vec<Json> = col
        .export_jsonl()
        .lines()
        .map(|l| Json::parse(l).expect("own dump"))
        .collect();
    // A fresh durable store per run, opened outside the timed region —
    // deleting a WAL directory is filesystem noise, not import cost.
    let import_dir = scratch("import");
    let fresh = || {
        let _ = std::fs::remove_dir_all(&import_dir);
        ProvDb::open(&import_dir)
            .expect("open durable")
            .collection("events")
    };
    let import = |col: &Collection, per_line: bool| {
        if per_line {
            // The old import path: re-acquire the locks per line.
            for d in &parsed {
                col.insert(d.clone());
            }
        } else {
            col.insert_many(parsed.clone());
        }
        col.len()
    };
    // The same comparison runs again with two concurrent readers (the
    // provenance store's real situation: memo lookups and scheduler
    // estimate scans run against the collection while a dump imports).
    // Per-line inserts release and re-acquire the write lock between
    // every document, so each scan slips in and stretches the import; the
    // batched path takes the guard once.
    for (prefix, contended) in [("import", false), ("import.contended", true)] {
        let mut secs = [0.0; 2];
        for (slot, per_line) in [true, false].into_iter().enumerate() {
            let (len, best) = best_of(
                runs,
                || {
                    let col = fresh();
                    let readers = contended.then(|| Readers::start(&col, &probe));
                    (col, readers)
                },
                |(col, _)| import(col, per_line),
            );
            assert_eq!(len as u64, n_docs);
            secs[slot] = best;
        }
        report
            .metric(&format!("{prefix}.per_line_s"), secs[0], "s")
            .metric(&format!("{prefix}.batched_s"), secs[1], "s")
            .metric(&format!("{prefix}.speedup"), secs[0] / secs[1], "ratio");
    }
    let _ = std::fs::remove_dir_all(&import_dir);

    // --- recovery time vs log size ---------------------------------------
    let recovery_sizes: &[u64] = if args.quick {
        &[500, 2_000, 8_000]
    } else {
        &[2_000, 10_000, 50_000]
    };
    for &size in recovery_sizes {
        let dir = scratch(&format!("recover-{size}"));
        append(
            &ProvDb::open(&dir)
                .expect("open durable")
                .collection("events"),
            size,
        );
        let log_bytes: u64 = std::fs::read_dir(&dir)
            .expect("list store")
            .map(|e| e.expect("entry").metadata().expect("meta").len())
            .sum();
        let (len, open_secs) = best_of(
            runs,
            || (),
            |_| {
                ProvDb::open(&dir)
                    .expect("recover")
                    .collection("events")
                    .len()
            },
        );
        assert_eq!(len as u64, size);
        report
            .metric(&format!("recovery.{size}.open_s"), open_secs, "s")
            .metric(
                &format!("recovery.{size}.log_bytes"),
                log_bytes as f64,
                "bytes",
            );
        let _ = std::fs::remove_dir_all(&dir);
    }
    report.write(&args.out);
}
