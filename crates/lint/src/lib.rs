//! `dynatune_lint` — determinism-and-hazard static analysis for the
//! Dynatune workspace.
//!
//! The repo's load-bearing claim is that every scenario is bit-identical
//! across `--jobs` widths and seeds. That only holds if no deterministic
//! code path reads the wall clock, iterates a hash container, draws
//! ambient randomness, or races OS threads. This crate enforces those
//! rules mechanically (ARCHITECTURE.md states them in prose and cites the
//! rule IDs defined in [`rules`]):
//!
//! | rule | hazard |
//! |------|--------|
//! | D001 | wall-clock time outside the bench harness |
//! | D002 | `HashMap`/`HashSet` (unordered iteration) in deterministic crates |
//! | D003 | ambient randomness / randomized hashing |
//! | D004 | thread/sync primitives outside the vendored rayon shim |
//! | L001 | `let _ =` discards in protocol code |
//! | P001 | `.unwrap()` / `.expect()` in protocol prod code |
//! | P002 | explicit panic macros in protocol prod code |
//! | P003 | narrowing `as` integer casts in protocol prod code |
//! | C001 | crate imports outside the declared layering DAG |
//! | W001 | malformed waiver comment |
//! | W002 | stale waiver |
//!
//! The P-family guards the *serving path*: `raft`, `cluster`, and
//! `broker` prod code must not contain a latent crash, so every
//! panicking construct is either converted to typed error propagation, a
//! stated-invariant assertion, or carries a reasoned waiver. C001 keeps
//! the crate DAG (declared in [`layering`]) from eroding. New rules land
//! incrementally through the baseline ratchet ([`baseline`], CLI
//! `--baseline`): recorded findings are grandfathered, new ones fail
//! `--deny`, and a tree that gets cleaner forces the baseline to be
//! regenerated.
//!
//! Violations are waived inline with
//! `// lint: allow(D002) — <non-empty reason>`; the waiver covers its own
//! line (trailing comment) or the next code line (own-line comment).
//!
//! Run it as `cargo run -p dynatune_lint` (add `--deny` for CI; `--json
//! PATH` writes the machine-readable report). The implementation is a
//! hand-rolled tokenizer (comments, strings, raw strings, char literals
//! all skipped correctly) plus `use`-path resolution, so aliased imports
//! are caught and hazard names inside literals are not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod engine;
pub mod layering;
pub mod policy;
pub mod report;
pub mod rules;
pub mod tokens;
pub mod uses;
pub mod walk;

use report::LintReport;
use std::io;
use std::path::Path;

/// Lint every scannable `.rs` file under `root` (a workspace checkout),
/// plus every crate/vendor manifest (C001 checks `Cargo.toml` dependency
/// sections against the declared DAG).
///
/// # Errors
/// Propagates filesystem errors (unreadable directories or files).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let files = walk::rust_files(root)?;
    let mut report = LintReport {
        root: root.display().to_string(),
        ..Default::default()
    };
    for rel in &files {
        let rel_str = rel
            .to_str()
            .map(|s| s.replace('\\', "/"))
            .unwrap_or_default();
        let Some(policy) = policy::policy_for(&rel_str) else {
            continue;
        };
        let src = std::fs::read_to_string(root.join(rel))?;
        let scan = engine::scan_source(&rel_str, &src, &policy);
        report.files_scanned += 1;
        report.violations.extend(scan.violations);
        report.waivers.extend(scan.waivers);
    }
    report.violations.extend(layering::check_manifests(root)?);
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .waivers
        .sort_by(|a, b| (&a.file, a.comment_line).cmp(&(&b.file, b.comment_line)));
    Ok(report)
}

/// Locate the workspace root: walk up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table is found.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
