//! The scenario registry: every runnable scenario, by name.
//!
//! `scenarios --list` prints this; `scenarios --only NAME` looks names up
//! here. Adding a scenario means declaring its [`Scenario`] `const` beside
//! its procedure in a [`catalog`](super::catalog) module, adding one line
//! below, and pinning its report in `tests/parallel_determinism.rs`.

use crate::scenario::catalog::{
    ablations, broker, compaction, failover, fluctuation, membership, novel, pipeline, reads,
    sharded, throughput,
};
use crate::scenario::experiment::Scenario;

/// All registered scenarios, in presentation order.
pub static REGISTRY: [&Scenario; 24] = [
    &failover::FIG4,
    &throughput::FIG5,
    &fluctuation::FIG6A,
    &fluctuation::FIG6B,
    &fluctuation::FIG7,
    &failover::FIG8,
    &ablations::ABLATIONS,
    &novel::GEO_ASYMMETRIC,
    &novel::PARTITION_CHURN,
    &sharded::SHARDED_THROUGHPUT,
    &sharded::HOT_SHARD,
    &sharded::SHARD_LEADER_FAILOVER,
    &compaction::LAGGING_FOLLOWER_CATCHUP,
    &compaction::COMPACTION_CHURN,
    &pipeline::PIPELINE_DEPTH,
    &reads::READ_HEAVY_THROUGHPUT,
    &reads::FOLLOWER_READ_OFFLOAD,
    &reads::LEASE_SAFETY_PARTITION,
    &broker::BROKER_PRODUCE_THROUGHPUT,
    &broker::CONSUMER_LAG_FAILOVER,
    &broker::CONSUMER_FANOUT,
    &membership::ELASTIC_SCALEOUT,
    &membership::SHARD_REBALANCE,
    &membership::MEMBERSHIP_CHURN,
];

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
    for scenario in REGISTRY {
        let [name, rest @ ..] = scenario.columns();
        out.push_str(&format!("| `{name}` | {} |\n", rest.join(" | ")));
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
    let keys = ["name", "description", "headline_metric", "ci_assertion"];
    let rows: Vec<String> = REGISTRY
        .iter()
        .map(|scenario| {
            let fields: Vec<String> = keys
                .iter()
                .zip(scenario.columns())
                .map(|(key, value)| format!("\"{key}\": \"{}\"", json_escape(value)))
                .collect();
            format!("    {{{}}}", fields.join(", "))
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

/// Look a scenario up by registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().copied().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_markdown_covers_every_scenario() {
        let md = catalog_markdown();
        for s in REGISTRY {
            assert!(
                md.contains(&format!("| `{}` |", s.name)),
                "catalog row missing for {}",
                s.name
            );
            assert!(!s.headline_metric.is_empty());
            assert!(!s.ci_assertion.is_empty());
        }
    }

    #[test]
    fn every_scenario_asserts_its_claim() {
        for s in REGISTRY {
            assert!(
                s.ci_assertion.starts_with("asserts")
                    && !s.ci_assertion.contains("not asserted")
                    && !s.ci_assertion.contains("reported"),
                "{} is report-only: {:?}",
                s.name,
                s.ci_assertion
            );
        }
    }

    #[test]
    fn catalog_json_covers_every_scenario() {
        let json = catalog_json();
        assert!(json.contains("\"schema\": \"dynatune-scenarios/v1\""));
        for s in REGISTRY {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", s.name)),
                "catalog_json entry missing for {}",
                s.name
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
        assert!(REGISTRY.len() >= 24);
        let mut names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate registry names");
        for name in names {
            let found = find(name).expect("registered name resolves");
            assert_eq!(found.name, name);
            assert!(!found.describe.is_empty());
        }
        assert!(find("no_such_experiment").is_none());
    }
}
