//! Per-crate policy: which rules apply where.
//!
//! The workspace splits into three worlds:
//!
//! * **Deterministic crates** (`simnet`, `core`, `stats`, `raft`,
//!   `kvstore`, `broker`, `cluster`, the umbrella `src/`, top-level
//!   `tests/` and `examples/`, and this lint itself): everything that
//!   feeds a scenario report. All D-rules apply — including to their
//!   `#[cfg(test)]` code, since tests assert bit-identical reports. The
//!   protocol crates (`raft`, `cluster`, `broker`) additionally get L001
//!   on non-test code.
//! * **The measurement harness** (`crates/bench`): wall-clock time is
//!   its job, so D001 is off; everything else applies.
//! * **The vendored concurrency shim** (`vendor/rayon`): threads and sync
//!   are its job, so D004 is off there — and *only* there.

/// The rule switches for one kind of code (prod vs test) in one crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    /// Wall-clock time.
    pub d001: bool,
    /// Hash containers / unordered iteration.
    pub d002: bool,
    /// D002 sub-switch: flag the *presence* of a hash-container type, not
    /// just iteration over one. On for deterministic crates (where the
    /// policy is "just use BTreeMap"), off for vendor shims.
    pub d002_presence: bool,
    /// Ambient randomness.
    pub d003: bool,
    /// Threads/sync.
    pub d004: bool,
    /// `let _ =` discards.
    pub l001: bool,
    /// `.unwrap()` / `.expect()` calls.
    pub p001: bool,
    /// Explicit panic macros.
    pub p002: bool,
    /// Narrowing `as` integer casts.
    pub p003: bool,
}

impl RuleSet {
    /// Is `rule` enabled in this set?
    #[must_use]
    pub fn enabled(&self, rule: &str) -> bool {
        match rule {
            "D001" => self.d001,
            "D002" => self.d002,
            "D003" => self.d003,
            "D004" => self.d004,
            "L001" => self.l001,
            "P001" => self.p001,
            "P002" => self.p002,
            "P003" => self.p003,
            _ => false,
        }
    }
}

/// Policy for one file: who it belongs to and which rules bind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilePolicy {
    /// The policy bucket the file fell into (e.g. `crates/raft`), for
    /// reports.
    pub label: String,
    /// True when the whole file is test-kind (`tests/`, `examples/`);
    /// `#[cfg(test)]` modules inside prod files are detected separately by
    /// the engine.
    pub file_is_test: bool,
    /// Rules for production code.
    pub prod: RuleSet,
    /// Rules for test code (L001/P001/P002/P003 never apply: tests drive
    /// state machines, legitimately discard step results, and panic on
    /// assertion failure by design).
    pub test: RuleSet,
    /// C001 layering scope: `Some(layer)` when the file belongs to a
    /// workspace crate in the declared DAG, `Some(vendor sentinel)` —
    /// the `VENDOR` layer with an empty allowlist — for vendor shims,
    /// `None` for the unconstrained umbrella (`src/`, root `tests/`,
    /// `examples/` re-export everything by design).
    pub layer: Option<&'static crate::layering::CrateLayer>,
}

/// The empty-allowlist layer vendor shims scan under: no `dynatune_*`
/// import is ever a declared edge from a vendored dependency.
pub const VENDOR_LAYER: crate::layering::CrateLayer = crate::layering::CrateLayer {
    dir: "",
    lib: "a vendor shim",
    allowed: &[],
};

const fn det(protocol: bool) -> RuleSet {
    RuleSet {
        d001: true,
        d002: true,
        d002_presence: true,
        d003: true,
        d004: true,
        l001: protocol,
        p001: protocol,
        p002: protocol,
        p003: protocol,
    }
}

const fn without_d001(mut rs: RuleSet) -> RuleSet {
    rs.d001 = false;
    rs
}

const fn without_d004(mut rs: RuleSet) -> RuleSet {
    rs.d004 = false;
    rs
}

const fn vendor_default() -> RuleSet {
    RuleSet {
        d001: true,
        d002: true,
        d002_presence: false,
        d003: true,
        d004: true,
        l001: false,
        p001: false,
        p002: false,
        p003: false,
    }
}

/// Decide the policy for one workspace-relative path (`/`-separated).
/// Returns `None` for files the lint does not scan (non-Rust sources are
/// filtered earlier; this is for completeness).
#[must_use]
pub fn policy_for(rel_path: &str) -> Option<FilePolicy> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let file_is_test = rel_path.contains("/tests/")
        || rel_path.starts_with("tests/")
        || rel_path.starts_with("examples/")
        || rel_path.contains("/examples/");

    let (label, prod, layer): (&str, RuleSet, Option<&'static crate::layering::CrateLayer>) =
        if let Some(rest) = rel_path.strip_prefix("crates/") {
            let name = rest.split('/').next().unwrap_or("");
            let layer = crate::layering::layer_for_dir(name);
            match name {
                // Protocol crates: full deterministic set plus L001 and
                // the panic-freedom family (P001/P002/P003).
                "raft" | "cluster" | "broker" => ("protocol", det(true), layer),
                // Other deterministic crates.
                "simnet" | "core" | "stats" | "kvstore" | "lint" => {
                    ("deterministic", det(false), layer)
                }
                // The measurement harness owns the wall clock.
                "bench" => ("bench-harness", without_d001(det(false)), layer),
                _ => ("deterministic", det(false), layer),
            }
        } else if let Some(rest) = rel_path.strip_prefix("vendor/") {
            let name = rest.split('/').next().unwrap_or("");
            let vendor = Some(&VENDOR_LAYER);
            match name {
                // The one place threads/locks are allowed: the shim that
                // *provides* deterministic fan-out.
                "rayon" => ("vendor-rayon", without_d004(vendor_default()), vendor),
                _ => ("vendor", vendor_default(), vendor),
            }
        } else {
            // Umbrella src/, top-level tests/ and examples/: they re-export
            // or exercise the whole workspace, so C001 does not bind them.
            ("workspace-root", det(false), None)
        };

    let mut test = prod;
    test.l001 = false;
    test.p001 = false;
    test.p002 = false;
    test.p003 = false;
    Some(FilePolicy {
        label: label.to_string(),
        file_is_test,
        prod,
        test,
        layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_crates_get_l001_in_prod_only() {
        let p = policy_for("crates/raft/src/node/election.rs").unwrap();
        assert!(p.prod.l001);
        assert!(!p.test.l001);
        assert!(!p.file_is_test);
        let t = policy_for("crates/raft/tests/pipeline.rs").unwrap();
        assert!(t.file_is_test);
    }

    #[test]
    fn bench_may_read_the_clock() {
        assert!(
            !policy_for("crates/bench/src/bin/scenarios.rs")
                .unwrap()
                .prod
                .d001
        );
        assert!(policy_for("crates/simnet/src/world.rs").unwrap().prod.d001);
    }

    #[test]
    fn only_rayon_may_thread() {
        assert!(!policy_for("vendor/rayon/src/lib.rs").unwrap().prod.d004);
        assert!(policy_for("vendor/bytes/src/lib.rs").unwrap().prod.d004);
        assert!(policy_for("crates/cluster/src/sim.rs").unwrap().prod.d004);
    }

    #[test]
    fn panic_rules_bind_protocol_prod_code_only() {
        let p = policy_for("crates/broker/src/partition.rs").unwrap();
        assert!(p.prod.p001 && p.prod.p002 && p.prod.p003);
        assert!(!p.test.p001 && !p.test.p002 && !p.test.p003);
        let det = policy_for("crates/simnet/src/world.rs").unwrap();
        assert!(!det.prod.p001 && !det.prod.p002 && !det.prod.p003);
        let bench = policy_for("crates/bench/src/lib.rs").unwrap();
        assert!(!bench.prod.p001);
    }

    #[test]
    fn layering_scope_follows_the_dag() {
        let raft = policy_for("crates/raft/src/node/election.rs").unwrap();
        assert_eq!(raft.layer.unwrap().lib, "dynatune_raft");
        let vendor = policy_for("vendor/bytes/src/lib.rs").unwrap();
        assert!(vendor.layer.unwrap().allowed.is_empty());
        assert!(policy_for("src/lib.rs").unwrap().layer.is_none());
        assert!(policy_for("tests/docs_sync.rs").unwrap().layer.is_none());
    }

    #[test]
    fn deterministic_world_denies_hash_presence_vendor_does_not() {
        assert!(
            policy_for("tests/election_safety.rs")
                .unwrap()
                .prod
                .d002_presence
        );
        assert!(policy_for("src/lib.rs").unwrap().prod.d002_presence);
        assert!(
            !policy_for("vendor/proptest/src/lib.rs")
                .unwrap()
                .prod
                .d002_presence
        );
    }
}
