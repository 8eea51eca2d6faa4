//! The live tree must lint clean: `cargo test -p dynatune_lint` fails the
//! same way CI's `--deny` run does, so a violation can't land through a
//! path that skips the lint job. Also pins the accepted-waiver set — a new
//! waiver showing up here means README.md's waiver list needs updating —
//! and the panic-freedom contract: the protocol crates carry **zero**
//! P001/P002 findings against an **empty** committed baseline, so the
//! ratchet has nothing grandfathered and any new unwrap is a regression.

use dynatune_lint::baseline::Baseline;
use dynatune_lint::rules::id;
use dynatune_lint::{find_workspace_root, lint_workspace};
use std::path::Path;

fn root() -> std::path::PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(here).expect("workspace root above crates/lint")
}

#[test]
fn workspace_has_zero_unwaived_violations() {
    let report = lint_workspace(&root()).expect("scan workspace");
    assert!(
        report.files_scanned > 100,
        "walked too little: {} files",
        report.files_scanned
    );
    assert!(
        report.clean(),
        "the tree must be lint-clean; run `cargo run -p dynatune_lint` for the report:\n{}",
        report.human()
    );
    // The accepted waivers, by file — keep in sync with README.md's
    // "Static analysis" section. The panic-freedom sweep (PR 9) landed
    // with no P-rule waivers at all: every serving-path unwrap became a
    // typed fallback, a structural rewrite, or an `invariant!`. The one
    // D002 exception in production code is `KvStore`'s hash index: a
    // fixed-key hasher, iterated in one place and sorted before anything
    // observes the order.
    let mut by_file: Vec<(&str, usize)> = Vec::new();
    for w in &report.waivers {
        match by_file.iter_mut().find(|(f, _)| *f == w.file) {
            Some((_, n)) => *n += 1,
            None => by_file.push((&w.file, 1)),
        }
    }
    assert_eq!(
        by_file,
        vec![
            ("crates/kvstore/src/store.rs", 3),
            ("tests/election_safety.rs", 2)
        ],
        "waiver set changed — update README.md's accepted-waiver list"
    );
    assert!(report
        .waivers
        .iter()
        .all(|w| w.used && !w.reason.is_empty()));
}

#[test]
fn committed_baseline_is_empty_and_not_stale() {
    // The ratchet ships fully turned: nothing is grandfathered. If this
    // fails because the baseline file gained entries, someone regenerated
    // it to paper over a regression — fix the code instead.
    let root = root();
    let text = std::fs::read_to_string(root.join("crates/lint/baseline.json"))
        .expect("committed baseline at crates/lint/baseline.json");
    let baseline = Baseline::parse(&text).expect("valid baseline schema");
    assert!(
        baseline.is_empty(),
        "the committed baseline must stay empty — {} grandfathered entries found",
        baseline.len()
    );
    // And applying it to the live tree yields no regressions and no stale
    // entries — exactly what CI's `--deny --baseline` run asserts.
    let mut report = lint_workspace(&root).expect("scan workspace");
    report.apply_baseline(&baseline);
    assert!(report.deny_ok(), "{}", report.human());
}

#[test]
fn protocol_crates_are_panic_free_without_waivers() {
    // Belt and braces over the pinned-waiver test: even if a P-rule
    // waiver were accepted some day, this test keeps the three protocol
    // crates' prod code at literally zero unwrap/expect/panic findings,
    // waived or not.
    let report = lint_workspace(&root()).expect("scan workspace");
    let panicky: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == id::P001 || v.rule == id::P002)
        .collect();
    assert!(panicky.is_empty(), "{panicky:?}");
    let waived_panics: Vec<_> = report
        .waivers
        .iter()
        .filter(|w| w.rules.iter().any(|r| r == id::P001 || r == id::P002))
        .collect();
    assert!(
        waived_panics.is_empty(),
        "P001/P002 are swept, not waived: {waived_panics:?}"
    );
}
