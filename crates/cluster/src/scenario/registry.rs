//! The experiment registry: every runnable scenario, by name.
//!
//! `scenarios --list` prints this; `scenarios --only NAME` looks names up
//! here. Adding a scenario means adding a [`catalog`] type and one line
//! below.

use crate::scenario::catalog;
use crate::scenario::experiment::Experiment;

/// All registered experiments, in presentation order.
#[must_use]
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(catalog::Fig4Failover),
        Box::new(catalog::Fig5Throughput),
        Box::new(catalog::Fig6aGradualRtt),
        Box::new(catalog::Fig6bRadicalRtt),
        Box::new(catalog::Fig7LossFluctuation),
        Box::new(catalog::Fig8GeoFailover),
        Box::new(catalog::Ablations),
        Box::new(catalog::Extensions),
        Box::new(catalog::GeoAsymmetricFailover),
        Box::new(catalog::PartitionChurn),
        Box::new(catalog::ShardedThroughput),
        Box::new(catalog::HotShard),
        Box::new(catalog::ShardLeaderFailover),
        Box::new(catalog::LaggingFollowerCatchup),
        Box::new(catalog::CompactionChurn),
        Box::new(catalog::PipelineDepth),
        Box::new(catalog::ReadHeavyThroughput),
        Box::new(catalog::FollowerReadOffload),
        Box::new(catalog::LeaseSafetyPartition),
        Box::new(catalog::BrokerProduceThroughput),
        Box::new(catalog::ConsumerLagFailover),
        Box::new(catalog::ConsumerFanout),
        Box::new(catalog::ElasticScaleout),
        Box::new(catalog::ShardRebalance),
        Box::new(catalog::MembershipChurn),
    ]
}

/// Render the registry as the Markdown catalog `SCENARIOS.md` carries:
/// one row per scenario — name, what it models, headline metric, CI
/// assertion — generated from the same metadata the experiments compile
/// against (`scenarios --describe-md` writes it; a repo test keeps the
/// committed file in sync).
#[must_use]
pub fn catalog_markdown() -> String {
    let mut out = String::from(
        "# Scenario catalog\n\n\
         Generated by `scenarios --describe-md` from the experiment registry\n\
         (`crates/cluster/src/scenario/registry.rs`) — do not edit by hand;\n\
         regenerate with:\n\n\
         ```\n\
         cargo run --release -p dynatune_bench --bin scenarios -- --describe-md > SCENARIOS.md\n\
         ```\n\n\
         Run any scenario with `scenarios --only NAME` (add `--quick` for the\n\
         CI-scale smoke run).\n\n\
         | scenario | what it models | headline metric | CI assertion |\n\
         |---|---|---|---|\n",
    );
    for e in registry() {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            e.name(),
            e.describe(),
            e.headline_metric(),
            e.ci_assertion()
        ));
    }
    out
}

/// Render the registry as JSON (`scenarios --list --json`): one object per
/// scenario carrying the same metadata as the Markdown catalog — name,
/// description, headline metric, CI assertion — so CI tooling and scripts
/// share one machine-readable source with the docs.
#[must_use]
pub fn catalog_json() -> String {
    let mut out = String::from("{\n  \"schema\": \"dynatune-scenarios/v1\",\n  \"scenarios\": [\n");
    let rows: Vec<String> = registry()
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"description\": \"{}\", \"headline_metric\": \"{}\", \"ci_assertion\": \"{}\"}}",
                json_escape(e.name()),
                json_escape(e.describe()),
                json_escape(e.headline_metric()),
                json_escape(e.ci_assertion())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Escape a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Look an experiment up by registry name.
#[must_use]
pub fn find(name: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_markdown_covers_every_scenario() {
        let md = catalog_markdown();
        for e in registry() {
            assert!(
                md.contains(&format!("| `{}` |", e.name())),
                "catalog row missing for {}",
                e.name()
            );
            assert!(!e.headline_metric().is_empty());
            assert!(!e.ci_assertion().is_empty());
        }
    }

    #[test]
    fn catalog_json_covers_every_scenario() {
        let json = catalog_json();
        assert!(json.contains("\"schema\": \"dynatune-scenarios/v1\""));
        for e in registry() {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", e.name())),
                "catalog_json entry missing for {}",
                e.name()
            );
        }
        // Balanced braces/brackets — a cheap structural sanity check
        // (metadata strings contain neither).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn names_are_unique_and_findable() {
        let all = registry();
        assert!(all.len() >= 25);
        let mut names: Vec<&str> = all.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate registry names");
        for name in names {
            let found = find(name).expect("registered name resolves");
            assert_eq!(found.name(), name);
            assert!(!found.describe().is_empty());
        }
        assert!(find("no_such_experiment").is_none());
    }
}
