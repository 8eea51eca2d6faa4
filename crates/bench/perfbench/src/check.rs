//! `benchmark --check A B`: compare two result sets (captured standard
//! output of runs, any number of runs per workload) under the bounds of
//! `BENCHMARK.json`.
//!
//! Simulated metrics and exact counters must be identical: the simulator
//! is deterministic, so a pure code speed-up leaves them bit for bit as
//! they were. Host-clock metrics may worsen by at most their bound; one
//! whose own rep-to-rep spread exceeds its bound is *unresolved*, never
//! *unchanged*.

use crate::measure;
use crate::spec::{self, Better, Source};
use std::collections::BTreeMap;

type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Parse `# workload NAME ...` headers and `name value unit` lines.
pub fn parse(text: &str) -> Runs {
    let mut runs = Runs::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["#", "workload", name, ..] => current = Some((*name).to_string()),
            [name, value, _unit] => {
                if let (Some(w), Ok(v)) = (&current, value.parse::<f64>()) {
                    runs.entry(w.clone())
                        .or_default()
                        .entry((*name).to_string())
                        .or_default()
                        .push(v);
                }
            }
            _ => {}
        }
    }
    runs
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Identical,
    Differs,
    Unchanged,
    Unresolved,
    Improved,
    Regressed,
    Info,
}

/// Verdict for one metric of one workload. `spread` is the larger of the
/// two sides' own rep-to-rep spreads, as a share.
pub fn judge(name: &str, a: f64, b: f64, spread: f64) -> Verdict {
    let Some(metric) = spec::find(name) else {
        return Verdict::Info;
    };
    match metric.source {
        Source::Exact => {
            if a.to_bits() == b.to_bits() {
                Verdict::Identical
            } else {
                Verdict::Differs
            }
        }
        Source::Host => {
            let change = if a == 0.0 { 0.0 } else { (b - a) / a };
            let worse = match metric.better {
                Better::Higher => -change,
                Better::Lower => change,
            };
            if worse > metric.bound {
                Verdict::Regressed
            } else if spread > metric.bound {
                Verdict::Unresolved
            } else if worse < -metric.bound {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            }
        }
        Source::Info => Verdict::Info,
    }
}

/// Print the comparison; true when nothing differs or regressed.
pub fn compare(a: &Runs, b: &Runs) -> bool {
    let mut ok = true;
    for (workload, ma) in a {
        let Some(mb) = b.get(workload) else {
            println!("{workload}: missing from the second set");
            ok = false;
            continue;
        };
        println!("# workload {workload}");
        let med = |m: &BTreeMap<String, Vec<f64>>, name: &str| {
            m.get(name).map(|v| measure::median(&mut v.clone()))
        };
        let spread = [ma, mb]
            .iter()
            .filter_map(|m| med(m, "bench.rep_wall_iqr_pct"))
            .fold(0.0, f64::max)
            / 100.0;
        for name in ma.keys() {
            let (Some(va), Some(vb)) = (med(ma, name), med(mb, name)) else {
                continue;
            };
            // Only ops_per_wall_s is built from the reps whose spread is
            // reported; set-up and memory are judged on their bound alone.
            let own_spread = if name == "ops_per_wall_s" {
                spread
            } else {
                0.0
            };
            let verdict = judge(name, va, vb, own_spread);
            if matches!(verdict, Verdict::Differs | Verdict::Regressed) {
                ok = false;
            }
            if verdict != Verdict::Identical {
                let change = if va == 0.0 {
                    0.0
                } else {
                    (vb - va) / va * 100.0
                };
                println!("{name} {va} -> {vb} ({change:+.2}%) {verdict:?}");
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_runs_grouped_by_workload() {
        let text = "# workload kv_write_wan seed 1\nops_per_wall_s 100.5 op/s\nlat_ms_p50 133 ms\n\
                    {\"correct\": true}\n# workload kv_write_wan seed 2\nops_per_wall_s 99.5 op/s\n";
        let runs = parse(text);
        assert_eq!(runs["kv_write_wan"]["ops_per_wall_s"], vec![100.5, 99.5]);
        assert_eq!(runs["kv_write_wan"]["lat_ms_p50"], vec![133.0]);
    }

    #[test]
    fn simulated_metrics_must_match_exactly() {
        assert_eq!(judge("lat_ms_p50", 133.25, 133.25, 0.0), Verdict::Identical);
        assert_eq!(judge("lat_ms_p50", 133.25, 133.26, 0.0), Verdict::Differs);
        assert_eq!(
            judge("raft.entries_committed", 9.0, 10.0, 0.0),
            Verdict::Differs
        );
    }

    #[test]
    fn host_metrics_are_judged_within_their_bound_and_spread() {
        // ops_per_wall_s: higher is better, bound 25 %.
        assert_eq!(
            judge("ops_per_wall_s", 100.0, 90.0, 0.05),
            Verdict::Unchanged
        );
        assert_eq!(
            judge("ops_per_wall_s", 100.0, 70.0, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            judge("ops_per_wall_s", 100.0, 130.0, 0.05),
            Verdict::Improved
        );
        // A spread wider than the bound resolves nothing.
        assert_eq!(
            judge("ops_per_wall_s", 100.0, 90.0, 0.30),
            Verdict::Unresolved
        );
        // setup_s: lower is better, bound 25 %.
        assert_eq!(judge("setup_s", 1.0, 1.3, 0.0), Verdict::Regressed);
        assert_eq!(judge("setup_s", 1.0, 1.2, 0.0), Verdict::Unchanged);
        // Drives are information, not gates.
        assert_eq!(judge("kv.apply_ns", 100.0, 300.0, 0.0), Verdict::Info);
    }
}
