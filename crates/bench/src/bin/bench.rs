//! Perf-regression gate driver.
//!
//! ```text
//! bench baseline   # snapshot results/BENCH_*.json into results/baselines/
//! bench compare    # compare current results against the baselines
//! bench digests    # re-run Figs. 4-9 and check them against results/digests.json
//! ```
//!
//! `compare` exits 0 with a warning when no baselines exist (the first
//! run of a fresh checkout has nothing to compare against — CI treats
//! that as advisory), and exits 1 when any directional metric regressed
//! beyond the noise-aware thresholds (see `o2o_bench::regress`). The
//! relative threshold defaults to 25% and is overridable with
//! `O2O_REGRESS_MAX_PCT` (see `o2o_bench::gates`).
//!
//! `digests` runs the figure binaries of Figs. 4-9 (siblings of this
//! executable, so build them first: `cargo build --release -p o2o-bench
//! --bins`) at the ledger's scales (about 20 s in all) and exits 1 when
//! any run's outcome digest differs from `results/digests.json`, printing
//! each old and new digest (see `o2o_bench::digests`). `digests --record`
//! rewrites the ledger instead, for a change that alters outcomes on
//! purpose.

use o2o_bench::digests::{self, LEDGER_RUNS};
use o2o_bench::regress::{self, CompareOptions};
use o2o_bench::{results_dir, Json, REGRESS_MAX_PCT};
use std::process::{Command, Stdio};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("baseline") => baseline(),
        Some("compare") => compare(),
        Some("digests") => check_digests(args.get(1).map(String::as_str) == Some("--record")),
        other => {
            eprintln!(
                "usage: bench <baseline|compare|digests [--record]>\n\
                 \n\
                 baseline  snapshot results/BENCH_*.json into results/baselines/\n\
                 compare   compare current results against the snapshot\n\
                 digests   re-run Figs. 4-9 and check results/digests.json\n\
                 {}",
                other.map_or(String::new(), |o| format!("\nunknown subcommand: {o}"))
            );
            std::process::exit(2);
        }
    }
}

fn baseline() {
    let dir = results_dir();
    match regress::snapshot_baselines(&dir) {
        Ok(copied) => {
            println!(
                "snapshotted {} file(s) into {}:",
                copied.len(),
                regress::baselines_dir(&dir).display()
            );
            for name in copied {
                println!("  {name}");
            }
        }
        Err(e) => {
            eprintln!("bench baseline: {e}");
            std::process::exit(1);
        }
    }
}

fn compare() {
    let dir = results_dir();
    let opts = CompareOptions {
        max_pct: REGRESS_MAX_PCT.value(),
        ..CompareOptions::default()
    };
    let comparisons = match regress::compare_results(&dir, &opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench compare: {e}");
            std::process::exit(1);
        }
    };
    if comparisons.is_empty() {
        eprintln!(
            "bench compare: no baselines in {} — run `bench baseline` after a trusted run \
             to arm the gate (exiting 0)",
            regress::baselines_dir(&dir).display()
        );
        return;
    }
    let mut regressed = 0usize;
    for cmp in &comparisons {
        if cmp.missing_current {
            eprintln!(
                "  {}: baseline exists but the current run produced no file — skipped",
                cmp.file
            );
            continue;
        }
        let bad = regress::regressions(&cmp.deltas);
        println!(
            "  {}: {} metric(s) compared, {} regression(s)",
            cmp.file,
            cmp.deltas.len(),
            bad.len()
        );
        for d in bad {
            println!(
                "    REGRESSED {}: {:.3} -> {:.3} ({:+.1}% worse, limit {:.1}%)",
                d.path, d.baseline, d.current, d.worse_pct, opts.max_pct
            );
            regressed += 1;
        }
    }
    if regressed > 0 {
        eprintln!(
            "bench compare: {regressed} regression(s) beyond {:.1}% (override with {})",
            opts.max_pct, REGRESS_MAX_PCT.var
        );
        std::process::exit(1);
    }
    println!("bench compare: no regressions");
}

fn check_digests(record: bool) {
    let fail = |msg: String| -> ! {
        eprintln!("bench digests: {msg}");
        std::process::exit(1);
    };
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(e.to_string()));
    let dir = results_dir();
    let mut figures = Vec::new();
    for (name, scale) in LEDGER_RUNS {
        let bin = exe.with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX));
        let status = Command::new(&bin)
            .args(["--scale", &scale.to_string()])
            .stdout(Stdio::null())
            .status()
            .unwrap_or_else(|e| {
                fail(format!(
                    "cannot run {} ({e}); build the figure binaries first: \
                     cargo build --release -p o2o-bench --bins",
                    bin.display()
                ))
            });
        if !status.success() {
            fail(format!("{name} exited with {status}"));
        }
        let path = dir.join(format!("BENCH_{name}.json"));
        let doc = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .and_then(|doc| digests::figure_digests(&doc))
            .unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
        figures.push((digests::run_key(name, scale), doc));
    }
    // The figure binaries' default seed.
    let fresh = digests::ledger_json(42, &figures);
    let ledger = dir.join("digests.json");
    if record {
        std::fs::write(&ledger, format!("{fresh}\n"))
            .unwrap_or_else(|e| fail(format!("{}: {e}", ledger.display())));
        println!("bench digests: recorded {}", ledger.display());
        return;
    }
    let recorded = std::fs::read_to_string(&ledger)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .unwrap_or_else(|e| fail(format!("{}: {e}", ledger.display())));
    let diff = digests::ledger_diff(&recorded, &fresh);
    let runs: usize = figures.iter().map(|(_, d)| d.len()).sum();
    if diff.is_empty() {
        println!("bench digests: {runs} runs match {}", ledger.display());
        return;
    }
    for line in &diff {
        println!("  CHANGED {line}");
    }
    fail(format!(
        "{} of the ledger's entries differ; a change that alters outcomes on \
         purpose re-records with `bench digests --record` and names the old and \
         new digests in CHANGES.md",
        diff.len()
    ));
}
