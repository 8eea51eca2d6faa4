//! Shared plumbing for the `scenarios` runner — the one entry point for
//! every registered experiment (`scenarios --only fig4 --quick`).
//!
//! The binary accepts:
//!
//! * `--quick` — scaled-down run (fewer trials, shorter holds) for smoke
//!   testing; the full defaults match the paper's §IV settings.
//! * `--trials N` / `--repeats N` — override trial counts.
//! * `--jobs N` — cap parallel trial fan-out at N worker threads
//!   (0/default: all cores). Results are bit-identical for every N.
//! * `--out DIR` — where to write CSV series (default `results/`).
//! * `--seed N` — master seed (default 42).
//!
//! It additionally accepts `--list` (print the registry with each
//! scenario's headline metric and CI assertion) and `--only PAT[,PAT...]`
//! (run a subset). Each pattern selects by exact
//! name first, else by substring — `--only broker` runs every scenario
//! with "broker" in its name, `--only fig` every paper figure.
//!
//! Output convention: a human-readable "paper vs measured" report on
//! stdout plus machine-readable CSVs under the output directory, beside
//! `BENCH_scenarios.json` (wall time and headlines of every scenario run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dynatune_cluster::scenario::{json_escape, Headline, Report, RunCtx, Scenario};
use std::path::{Path, PathBuf};

pub use dynatune_cluster::scenario::{compare_row, reduction_pct};

/// Parsed command-line options of the `scenarios` runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    /// The execution context `--quick`, `--trials`, `--repeats`, `--jobs`
    /// and `--seed` describe.
    pub ctx: RunCtx,
    /// Output directory for CSVs.
    pub out: PathBuf,
    /// Restrict `scenarios` to these registry names (empty = all).
    pub only: Vec<String>,
    /// List registered scenarios and exit.
    pub list: bool,
    /// With `--list`: emit the registry as JSON instead of a table.
    pub json: bool,
    /// Print the Markdown scenario catalog (`SCENARIOS.md`) and exit.
    pub describe_md: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            ctx: RunCtx::new(42),
            out: PathBuf::from("results"),
            only: Vec::new(),
            list: false,
            json: false,
            describe_md: false,
        }
    }
}

/// The usage string printed on `--help` and on parse errors.
pub const USAGE: &str = "usage: [--quick] [--trials N] [--repeats N] [--jobs N] [--out DIR] \
[--seed N] [--list [--json]] [--describe-md] [--only PAT[,PAT...]]
  --only selects by exact scenario name, else by substring (\"broker\"
  runs every broker_* scenario); unknown patterns are an error
  --list --json emits the registry (name, headline metric, CI assertion)
  as machine-readable JSON";

impl RunArgs {
    /// Parse from `std::env::args`. On bad input, prints the error and
    /// usage to stderr and exits with a nonzero status (no panic, no
    /// backtrace); `--help` prints usage to stdout and exits 0.
    #[must_use]
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(Some(args)) => args,
            Ok(None) => {
                // --help
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argument iterator. `Ok(None)` means help was
    /// requested; `Err` carries a human-readable message.
    ///
    /// # Errors
    /// Returns a message for unknown flags, missing values, unparsable
    /// numbers, and `--json` without `--list`.
    pub fn try_parse<I>(args: I) -> Result<Option<Self>, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => out.ctx.quick = true,
                "--list" => out.list = true,
                "--json" => out.json = true,
                "--describe-md" => out.describe_md = true,
                "--trials" => out.ctx.trials = Some(number(&mut args, "--trials")?),
                "--repeats" => out.ctx.repeats = Some(number(&mut args, "--repeats")?),
                "--jobs" => out.ctx.jobs = number(&mut args, "--jobs")?,
                "--seed" => out.ctx.seed = number(&mut args, "--seed")?,
                "--out" => {
                    let dir = args.next().ok_or("--out needs a path")?;
                    out.out = PathBuf::from(dir);
                }
                "--only" => {
                    let names = args.next().ok_or("--only needs a name list")?;
                    out.only.extend(
                        names
                            .split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(String::from),
                    );
                }
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if out.json && !out.list {
            return Err("--json only applies to --list".to_string());
        }
        Ok(Some(out))
    }
}

/// Parse the next argument as a number for `flag`.
fn number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let value = args
        .next()
        .ok_or_else(|| format!("{flag} needs a number"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got {value:?}"))
}

/// Resolve `--only` patterns against the registry's scenario names.
///
/// Each pattern selects by **exact name** when one matches (so a full
/// name never accidentally drags in scenarios it is a substring of),
/// else by **substring** — which subsumes prefix matching, so
/// `--only broker` selects every `broker_*` scenario. The result keeps
/// registry order with duplicates collapsed.
///
/// # Errors
/// Returns a message naming the first pattern that selects nothing.
pub fn select_names(all: &[&str], patterns: &[String]) -> Result<Vec<String>, String> {
    let mut selected: Vec<&str> = Vec::new();
    for pattern in patterns {
        let matched: Vec<&str> = if all.contains(&pattern.as_str()) {
            vec![pattern.as_str()]
        } else {
            all.iter()
                .copied()
                .filter(|name| name.contains(pattern.as_str()))
                .collect()
        };
        if matched.is_empty() {
            return Err(format!("no scenario matches {pattern:?}"));
        }
        selected.extend(matched);
    }
    Ok(all
        .iter()
        .filter(|name| selected.contains(name))
        .map(ToString::to_string)
        .collect())
}

/// Write a CSV file under the output directory, creating it if needed.
pub fn write_csv(dir: &Path, name: &str, content: &str) {
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write csv");
    println!("  wrote {}", path.display());
}

/// One scenario's entry in the machine-readable benchmark summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Registry name.
    pub name: String,
    /// Wall-clock seconds the run took.
    pub wall_s: f64,
    /// The report's headline metrics.
    pub headlines: Vec<Headline>,
}

/// Render the benchmark summary the `scenarios` binary writes as
/// `BENCH_scenarios.json`: per-scenario wall time plus the headline
/// metrics, so CI runs accumulate a perf/result trajectory without
/// scraping stdout tables.
#[must_use]
pub fn bench_json(args: &RunArgs, entries: &[BenchEntry]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"dynatune-bench-scenarios/v1\",\n");
    out.push_str(&format!("  \"quick\": {},\n", args.ctx.quick));
    out.push_str(&format!("  \"seed\": {},\n", args.ctx.seed));
    out.push_str(&format!("  \"jobs\": {},\n", args.ctx.jobs));
    // fold, not sum: an empty f64 `sum()` is -0.0 (std seeds the fold with
    // -0.0), which would print "-0.000" for an empty run.
    out.push_str(&format!(
        "  \"total_wall_s\": {:.3},\n",
        entries.iter().fold(0.0, |acc, e| acc + e.wall_s)
    ));
    out.push_str("  \"scenarios\": [\n");
    let scenario_entries: Vec<String> = entries
        .iter()
        .map(|e| {
            let headlines: Vec<String> = e
                .headlines
                .iter()
                .map(|h| {
                    format!(
                        "        {{\"label\": \"{}\", \"paper\": \"{}\", \"measured\": \"{}\"}}",
                        json_escape(&h.label),
                        json_escape(&h.paper),
                        json_escape(&h.measured)
                    )
                })
                .collect();
            format!(
                "    {{\n      \"name\": \"{}\",\n      \"wall_s\": {:.3},\n      \"headlines\": [\n{}\n      ]\n    }}",
                json_escape(&e.name),
                e.wall_s,
                headlines.join(",\n")
            )
        })
        .collect();
    out.push_str(&scenario_entries.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Standard banner for a scenario run.
pub fn banner(scenario: &Scenario, quick: bool) {
    let [name, describe, ..] = scenario.columns();
    println!("================================================================");
    println!("{name}: {describe}");
    if quick {
        println!(
            "(QUICK mode: scaled-down parameters; `scenarios --only {name}` without \
             --quick runs at paper scale)"
        );
    }
    println!("================================================================");
}

/// Run one registered scenario under `args` and print/write everything:
/// banner, report text, CSV artifacts.
pub fn run_and_emit(scenario: &Scenario, args: &RunArgs) -> Report {
    banner(scenario, args.ctx.quick);
    let report = args.ctx.run(scenario);
    print!("{}", report.render());
    for artifact in &report.artifacts {
        write_csv(&args.out, &artifact.filename, &artifact.csv);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Option<RunArgs>, String> {
        RunArgs::try_parse(words.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults_and_flags() {
        let args = parse(&[]).unwrap().unwrap();
        assert_eq!(args, RunArgs::default());
        let args = parse(&[
            "--quick",
            "--trials",
            "7",
            "--jobs",
            "3",
            "--seed",
            "9",
            "--out",
            "x",
            "--only",
            "fig4,fig8",
            "--list",
            "--json",
        ])
        .unwrap()
        .unwrap();
        assert!(args.ctx.quick && args.list && args.json);
        assert_eq!(args.ctx.trials, Some(7));
        assert_eq!(args.ctx.jobs, 3);
        assert_eq!(args.ctx.seed, 9);
        assert_eq!(args.out, PathBuf::from("x"));
        assert_eq!(args.only, vec!["fig4".to_string(), "fig8".to_string()]);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "many"]).is_err());
        assert!(parse(&["--seed", "-1"]).is_err());
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--json"]).is_err());
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&["--help"]).unwrap(), None);
        assert_eq!(parse(&["-h"]).unwrap(), None);
    }

    #[test]
    fn scale_picks_by_mode() {
        assert_eq!(RunArgs::default().ctx.scale(1000, 50), 1000);
        let quick = parse(&["--quick"]).unwrap().unwrap();
        assert_eq!(quick.ctx.scale(1000, 50), 50);
    }

    #[test]
    fn ctx_carries_the_knobs() {
        let args = parse(&["--quick", "--jobs", "2", "--seed", "5"])
            .unwrap()
            .unwrap();
        assert_eq!(args.ctx, RunCtx::new(5).quick(true).jobs(2));
    }

    #[test]
    fn bench_json_shape_and_escaping() {
        let args = RunArgs {
            ctx: RunCtx::new(42).quick(true).jobs(2),
            ..RunArgs::default()
        };
        let entries = vec![
            BenchEntry {
                name: "fig4".to_string(),
                wall_s: 1.25,
                headlines: vec![Headline {
                    label: "detection \"reduction\"".to_string(),
                    paper: "80%".to_string(),
                    measured: "88%\nline2".to_string(),
                }],
            },
            BenchEntry {
                name: "hot_shard".to_string(),
                wall_s: 0.5,
                headlines: vec![],
            },
        ];
        let json = bench_json(&args, &entries);
        assert!(json.contains("\"schema\": \"dynatune-bench-scenarios/v1\""));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\"jobs\": 2"));
        assert!(json.contains("\"total_wall_s\": 1.750"));
        assert!(json.contains("\"name\": \"fig4\""));
        assert!(json.contains("\"wall_s\": 1.250"));
        // Quotes and newlines inside headline strings are escaped.
        assert!(json.contains("detection \\\"reduction\\\""));
        assert!(json.contains("88%\\nline2"));
        assert!(!json.contains("88%\nline2"));
        // Balanced braces/brackets — a cheap structural sanity check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let opens = json.matches(open).count();
            let closes = json.matches(close).count();
            assert_eq!(opens, closes, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn bench_json_empty_run_is_wellformed() {
        let json = bench_json(&RunArgs::default(), &[]);
        assert!(json.contains("\"total_wall_s\": 0.000"));
        assert!(json.contains("\"scenarios\": ["));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn only_patterns_match_exact_then_substring() {
        let all = ["fig4", "fig4_geo", "broker_produce", "consumer_lag"];
        let s = |words: &[&str]| words.iter().map(ToString::to_string).collect::<Vec<_>>();
        // Exact name wins: it does not drag in names it is a substring of.
        assert_eq!(select_names(&all, &s(&["fig4"])).unwrap(), vec!["fig4"]);
        // Substring (and thus prefix) selects every containing name.
        assert_eq!(
            select_names(&all, &s(&["fig"])).unwrap(),
            vec!["fig4", "fig4_geo"]
        );
        assert_eq!(
            select_names(&all, &s(&["broker"])).unwrap(),
            vec!["broker_produce"]
        );
        // Union keeps registry order, deduplicated.
        assert_eq!(
            select_names(&all, &s(&["consumer", "fig", "fig4"])).unwrap(),
            vec!["fig4", "fig4_geo", "consumer_lag"]
        );
        // A pattern that selects nothing is an error naming the pattern.
        let err = select_names(&all, &s(&["fig9"])).unwrap_err();
        assert!(err.contains("fig9"));
    }

    #[test]
    fn reduction_and_compare_reexports() {
        assert!((reduction_pct(1205.0, 237.0) - 80.33).abs() < 0.1);
        let row = compare_row("detection (ms)", 1205.0, 1100.0);
        assert_eq!(row[3], "0.91x");
    }
}
