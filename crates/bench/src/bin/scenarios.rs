//! The registry-driven scenario runner.
//!
//! ```text
//! scenarios --list                 # what's registered (+ headline, CI assertion)
//! scenarios --list --json          # the same registry, machine-readable
//! scenarios --quick                # smoke-run every scenario
//! scenarios --only fig4,fig8      # a subset, by exact name
//! scenarios --only broker          # ... or by substring/prefix
//! scenarios --jobs 4               # cap trial fan-out (results identical)
//! ```
//!
//! Every §IV figure, the ablations and the beyond-paper scenarios run
//! through the same `Scenario` row; this binary enumerates the
//! registry, runs the selection, and writes each scenario's CSV
//! artifacts under `--out` (default `results/`), plus a machine-readable
//! `BENCH_scenarios.json` (per-scenario wall time and headline metrics)
//! that CI uploads so the perf trajectory accumulates across commits.

// Measuring scenario wall time is this binary's job: the D001 exemption
// for the bench harness (see clippy.toml and dynatune_lint's policy).
#![allow(clippy::disallowed_types)]

use dynatune_bench::{bench_json, run_and_emit, select_names, BenchEntry, RunArgs};
use dynatune_cluster::scenario::{catalog_json, catalog_markdown, REGISTRY};
use dynatune_stats::table::Table;
use std::time::Instant;

fn main() {
    let args = RunArgs::parse();

    if args.describe_md {
        // The SCENARIOS.md generator: name, what it models, headline
        // metric, CI assertion — straight from the registry metadata.
        print!("{}", catalog_markdown());
        return;
    }

    if args.list {
        if args.json {
            print!("{}", catalog_json());
            return;
        }
        let mut t = Table::new(["name", "description", "headline metric", "CI assertion"]);
        for scenario in REGISTRY {
            t.row(scenario.columns());
        }
        print!("{}", t.render());
        return;
    }

    // Resolve the selection before running anything: a pattern that
    // matches nothing is a user error, reported up front with the
    // available names.
    let names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
    let wanted = match select_names(&names, &args.only) {
        Ok(wanted) => wanted,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("registered: {}", names.join(", "));
            std::process::exit(2);
        }
    };
    let selected: Vec<_> = REGISTRY
        .iter()
        .filter(|s| args.only.is_empty() || wanted.iter().any(|n| n == s.name))
        .collect();
    println!(
        "running {} scenario(s){}{}\n",
        selected.len(),
        if args.ctx.quick { " (quick)" } else { "" },
        if args.ctx.jobs > 0 {
            format!(" with --jobs {}", args.ctx.jobs)
        } else {
            String::new()
        }
    );

    let mut summary = Table::new(["scenario", "wall (s)", "tables", "artifacts"]);
    let mut entries = Vec::new();
    for scenario in selected {
        let started = Instant::now();
        let report = run_and_emit(scenario, &args);
        let wall_s = started.elapsed().as_secs_f64();
        summary.row([
            scenario.name.to_string(),
            format!("{wall_s:.1}"),
            format!("{}", report.tables.len()),
            format!("{}", report.artifacts.len()),
        ]);
        entries.push(BenchEntry {
            name: scenario.name.to_string(),
            wall_s,
            headlines: report.headlines,
        });
        println!();
    }
    let json = bench_json(&args, &entries);
    std::fs::create_dir_all(&args.out).expect("create output dir");
    let json_path = args.out.join("BENCH_scenarios.json");
    std::fs::write(&json_path, json).expect("write bench json");
    println!("================================================================");
    print!("{}", summary.render());
    println!("wrote {}", json_path.display());
}
