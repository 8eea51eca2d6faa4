//! Keep the generated docs in lockstep with the code that defines them.

use dynatune_repro::cluster::scenario::{catalog_json, catalog_markdown, REGISTRY};

/// The hand-written guides whose citations are checked against the tree.
const GUIDES: [(&str, &str); 2] = [
    ("README.md", include_str!("../README.md")),
    ("ARCHITECTURE.md", include_str!("../ARCHITECTURE.md")),
];

/// `SCENARIOS.md` is generated from the scenario registry
/// (`scenarios --describe-md`); a scenario added, renamed, or re-described
/// without regenerating the catalog fails here.
#[test]
fn scenarios_md_matches_the_registry() {
    let committed = include_str!("../SCENARIOS.md");
    let generated = catalog_markdown();
    assert_eq!(
        committed, generated,
        "SCENARIOS.md is stale — regenerate with:\n  cargo run --release -p dynatune_bench \
         --bin scenarios -- --describe-md > SCENARIOS.md"
    );
}

/// `scenarios --list --json` and the Markdown catalog are views of the same
/// registry: every registered scenario must appear in both, so tooling that
/// consumes the JSON never drifts from the docs.
#[test]
fn catalog_json_and_markdown_cover_the_same_registry() {
    let json = catalog_json();
    let md = catalog_markdown();
    for scenario in REGISTRY {
        let name = scenario.name;
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "catalog_json missing {name}"
        );
        assert!(
            md.contains(&format!("| `{name}` |")),
            "catalog_markdown missing {name}"
        );
    }
}

/// Every repo-relative `.rs` path the hand-written guides cite
/// (`crates/…`, `src/…`, `tests/…`, `examples/…`) exists on disk, so a file
/// that is split, moved or deleted cannot leave a dangling pointer behind.
#[test]
fn rs_paths_cited_in_the_guides_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut cited = 0;
    let mut stale = Vec::new();
    for (guide, text) in GUIDES {
        for word in text.split(|c| !is_path_char(c)) {
            let path = word.trim_end_matches('.');
            let rooted = ["crates/", "src/", "tests/", "examples/"]
                .iter()
                .any(|dir| path.starts_with(dir));
            if rooted && path.ends_with(".rs") {
                cited += 1;
                if !root.join(path).is_file() {
                    stale.push(format!("{guide}: {path}"));
                }
            }
        }
    }
    assert!(cited > 0, "no path found at all: the scan itself is broken");
    assert!(
        stale.is_empty(),
        "cited files that do not exist: {stale:#?}"
    );
}

/// Every `RaftConfig::name` / `TuningConfig::name` the hand-written guides
/// cite is a field, `fn` or `const` of the config file that defines the
/// struct, so a knob that becomes a constant (or moves to another layer)
/// cannot leave its citation behind.
#[test]
fn config_names_cited_in_the_guides_exist() {
    let configs = [
        ("RaftConfig::", include_str!("../crates/raft/src/config.rs")),
        (
            "TuningConfig::",
            include_str!("../crates/core/src/config.rs"),
        ),
    ];
    let is_ident_char = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut cited = 0;
    let mut stale = Vec::new();
    for (guide, text) in GUIDES {
        for (prefix, source) in configs {
            for (at, _) in text.match_indices(prefix) {
                let rest = &text[at + prefix.len()..];
                let name = &rest[..rest.find(|c| !is_ident_char(c)).unwrap_or(rest.len())];
                cited += 1;
                let defined = [
                    format!("pub {name}: "),
                    format!("fn {name}("),
                    format!("const {name}: "),
                ]
                .iter()
                .any(|decl| source.contains(decl.as_str()));
                if !defined {
                    stale.push(format!("{guide}: {prefix}{name}"));
                }
            }
        }
    }
    assert!(
        cited > 0,
        "no citation found at all: the scan itself is broken"
    );
    assert!(
        stale.is_empty(),
        "cited config names that do not exist: {stale:#?}"
    );
}
