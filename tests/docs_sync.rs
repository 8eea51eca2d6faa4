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

/// Every repo-relative path the hand-written guides cite (`crates/…`,
/// `src/…`, `tests/…`, `examples/…`, `vendor/…`) exists on disk as a file
/// or a directory, so a file or module that is split, moved or deleted
/// cannot leave a dangling pointer behind.
#[test]
fn paths_cited_in_the_guides_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut cited = 0;
    let mut stale = Vec::new();
    for (guide, text) in GUIDES {
        for word in text.split(|c| !is_path_char(c)) {
            let path = word.trim_end_matches('.');
            let rooted = ["crates/", "src/", "tests/", "examples/", "vendor/"]
                .iter()
                .any(|dir| path.starts_with(dir));
            if rooted {
                cited += 1;
                if !root.join(path).exists() {
                    stale.push(format!("{guide}: {path}"));
                }
            }
        }
    }
    assert!(cited > 0, "no path found at all: the scan itself is broken");
    assert!(
        stale.is_empty(),
        "cited paths that do not exist: {stale:#?}"
    );
}

/// Every `*.md` file named in a `.rs` doc comment (`///`, `//!`) or in the
/// hand-written guides exists: at the repo root, or relative to the citing
/// file's directory or one of its ancestors. A design note that was never
/// written, or was deleted, cannot stay cited.
#[test]
fn md_files_cited_in_doc_comments_and_guides_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut sources = Vec::new();
    let mut dirs: Vec<std::path::PathBuf> = ["crates", "src", "tests", "examples", "vendor"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() && name != "target" && !name.starts_with('.') {
                dirs.push(path);
            } else if name.ends_with(".rs") {
                let text = std::fs::read_to_string(&path).expect("readable source");
                let docs: String = text
                    .lines()
                    .filter(|l| {
                        let l = l.trim_start();
                        l.starts_with("///") || l.starts_with("//!")
                    })
                    .collect::<Vec<_>>()
                    .join("\n");
                sources.push((path, docs));
            }
        }
    }
    for (guide, text) in GUIDES {
        sources.push((root.join(guide), text.to_string()));
    }
    let mut cited = 0;
    let mut stale = Vec::new();
    for (file, text) in &sources {
        for word in text.split(|c| !is_path_char(c)) {
            let md = word.trim_start_matches("./");
            if !md.ends_with(".md") || md.len() == ".md".len() {
                continue;
            }
            cited += 1;
            let found = std::iter::once(root)
                .chain(file.ancestors().skip(1).take_while(|d| d.starts_with(root)))
                .any(|dir| dir.join(md).is_file());
            if !found {
                let at = file.strip_prefix(root).unwrap_or(file);
                stale.push(format!("{}: {md}", at.display()));
            }
        }
    }
    assert!(
        cited > 0,
        "no .md citation found at all: the scan itself is broken"
    );
    assert!(
        stale.is_empty(),
        "cited .md files that do not exist: {stale:#?}"
    );
}

/// Every `RaftConfig::name` / `TuningConfig::name` the hand-written guides
/// cite is a field, `fn` or `const` of the config file that defines the
/// struct, so a knob that becomes a constant (or moves to another layer)
/// cannot leave its citation behind. Likewise every `ClusterSim::name`,
/// `ServerHost::name` and `ClientHost::name` is defined in the file that
/// holds the type, so a deleted read-out cannot stay cited, and every
/// `ScenarioBuilder::name` and `CostModel::name` likewise, so a deleted
/// constructor or cost field cannot either. Prefixes match whole
/// identifiers: `BrokerClusterSim::` is not a `ClusterSim::` citation.
#[test]
fn type_members_cited_in_the_guides_exist() {
    let configs = [
        ("RaftConfig::", include_str!("../crates/raft/src/config.rs")),
        (
            "TuningConfig::",
            include_str!("../crates/core/src/config.rs"),
        ),
        ("ClusterSim::", include_str!("../crates/cluster/src/sim.rs")),
        (
            "ServerHost::",
            include_str!("../crates/cluster/src/server.rs"),
        ),
        (
            "ClientHost::",
            include_str!("../crates/cluster/src/client.rs"),
        ),
        (
            "ScenarioBuilder::",
            include_str!("../crates/cluster/src/scenario/builder.rs"),
        ),
        ("CostModel::", include_str!("../crates/cluster/src/cpu.rs")),
    ];
    let is_ident_char = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut cited = 0;
    let mut stale = Vec::new();
    for (guide, text) in GUIDES {
        for (prefix, source) in configs {
            for (at, _) in text.match_indices(prefix) {
                if text[..at].ends_with(is_ident_char) {
                    continue;
                }
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
        "cited members that do not exist: {stale:#?}"
    );
}
