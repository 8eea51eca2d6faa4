//! Rule catalog: the determinism/hazard classes the lint enforces.
//!
//! Every rule has a stable ID (cited by ARCHITECTURE.md and by inline
//! waivers), a hazard description, and a fix hint. The path tables below
//! are matched against *resolved* paths — `use std::time::Instant as
//! Clock` makes `Clock::now()` resolve to `std::time::Instant::now`, so
//! aliasing cannot dodge a rule.

/// Stable rule identifiers.
pub mod id {
    /// Wall-clock time in simulated/deterministic code.
    pub const D001: &str = "D001";
    /// `HashMap`/`HashSet` (unordered iteration) in a deterministic crate.
    pub const D002: &str = "D002";
    /// Ambient randomness or randomized hashing.
    pub const D003: &str = "D003";
    /// Thread/sync primitives outside the vendored rayon shim.
    pub const D004: &str = "D004";
    /// `let _ =` result discard in protocol code.
    pub const L001: &str = "L001";
    /// `.unwrap()` / `.expect()` in protocol prod code.
    pub const P001: &str = "P001";
    /// Explicit panic macro (`panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!`) in protocol prod code.
    pub const P002: &str = "P002";
    /// Narrowing `as` integer cast in protocol prod code.
    pub const P003: &str = "P003";
    /// Crate-layering violation: an import outside the declared DAG.
    pub const C001: &str = "C001";
    /// Malformed waiver comment (missing reason or bad syntax).
    pub const W001: &str = "W001";
    /// Stale waiver: covers a line with no matching violation.
    pub const W002: &str = "W002";
}

/// Human-facing metadata for one rule (drives `--rules`, the JSON report
/// and the docs).
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable ID (`D001`...).
    pub id: &'static str,
    /// What the hazard is.
    pub summary: &'static str,
    /// How to fix a finding.
    pub fix: &'static str,
}

/// Every rule, in ID order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: id::D001,
        summary: "wall-clock time (std::time::Instant / SystemTime) in deterministic code — \
                  simulated components must read time from HostCtx::now / SimTime only",
        fix: "thread virtual time through the call; wall-clock timing belongs to the \
              bench harness",
    },
    RuleInfo {
        id: id::D002,
        summary: "HashMap/HashSet in a deterministic crate — iteration order depends on \
                  SipHash keys and allocation history, so any iteration (or report built \
                  from one) can differ across runs and --jobs widths",
        fix: "use BTreeMap/BTreeSet (ordered, seed-free); if the map provably is never \
              iterated, waive with a stated reason",
    },
    RuleInfo {
        id: id::D003,
        summary: "ambient randomness or randomized hashing (rand::thread_rng / rand::random / \
                  RandomState / DefaultHasher) — entropy outside the master seed",
        fix: "draw from the simulator's splittable Rng (seed / child(k)); hash with an \
              order-free structure or a fixed-key hasher",
    },
    RuleInfo {
        id: id::D004,
        summary: "thread or sync primitive (std::thread, Mutex, RwLock, Condvar, mpsc, \
                  Barrier) outside the vendored rayon shim — scheduling order is \
                  OS-nondeterministic",
        fix: "fan out through the rayon shim (index-seeded, input-order merge) and keep \
              per-trial state unshared",
    },
    RuleInfo {
        id: id::L001,
        summary: "`let _ =` discard in protocol code — silently dropped Results/effects are \
                  the silent-stall hazard class (a dropped append/ack never retries)",
        fix: "handle or propagate the value; if the discard is intentional, destructure to \
              a named `_reason` binding or waive with the invariant that makes it safe",
    },
    RuleInfo {
        id: id::P001,
        summary: "`.unwrap()` / `.expect()` in protocol prod code — a latent crash in the \
                  serving path (raft/cluster/broker serve live traffic; a poisoned Option \
                  here takes the whole replica down)",
        fix: "propagate a typed error, restructure so the None/Err case is impossible by \
              construction, state the invariant with `assert!`/`invariant!`, or waive with \
              the invariant that makes the value always present",
    },
    RuleInfo {
        id: id::P002,
        summary: "explicit panic (`panic!` / `unreachable!` / `todo!` / `unimplemented!`) in \
                  protocol prod code — only a *stated invariant* justifies crashing a \
                  serving replica",
        fix: "return a typed error for reachable conditions; for true invariants use \
              `assert!`/`dynatune_core::invariant!` (message required) or waive with the \
              invariant spelled out",
    },
    RuleInfo {
        id: id::P003,
        summary: "narrowing `as` integer cast (u8/u16/u32/i8/i16/i32) in protocol prod code \
                  — log offsets and indexes are u64; a silent truncation corrupts state \
                  instead of failing",
        fix: "keep arithmetic in the wide type, use `u32::try_from(x)` with an explicit \
              overflow policy (saturate/propagate), or waive with the bound that makes \
              the cast lossless",
    },
    RuleInfo {
        id: id::C001,
        summary: "crate-layering violation: a `use dynatune_*` import (or Cargo.toml \
                  dependency) outside the declared crate DAG — e.g. `raft` importing \
                  `cluster` inverts the protocol/serving boundary",
        fix: "depend only on lower layers (see ARCHITECTURE.md \"Crate layering\" and \
              `crates/lint/src/layering.rs`); move shared code down the DAG instead of \
              importing up",
    },
    RuleInfo {
        id: id::W001,
        summary: "malformed waiver comment",
        fix: "waiver syntax is `// lint: allow(D00X) — <non-empty reason>`",
    },
    RuleInfo {
        id: id::W002,
        summary: "stale waiver: the covered line has no violation of the waived rule",
        fix: "delete the waiver (or move it next to the code it excuses)",
    },
];

/// Look up one rule's metadata by ID.
#[must_use]
pub fn rule_info(rule_id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == rule_id)
}

/// True when `id` names a known waivable rule (the W-rules are about the
/// waivers themselves and cannot be waived).
#[must_use]
pub fn is_waivable(rule_id: &str) -> bool {
    matches!(
        rule_id,
        id::D001
            | id::D002
            | id::D003
            | id::D004
            | id::L001
            | id::P001
            | id::P002
            | id::P003
            | id::C001
    )
}

/// Macro names whose invocation is an explicit panic (P002).
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Cast-target type names that narrow a 64-bit offset/index (P003).
/// `u64`/`i64`/`u128`/`usize` are not listed: they cannot truncate the
/// u64 offsets/indexes this rule protects.
pub const NARROWING_CAST_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// A hazard path: the rule it belongs to plus the path-prefix that
/// triggers it.
pub struct HazardPath {
    /// Owning rule ID.
    pub rule: &'static str,
    /// Path prefix, outermost segment first. A resolved path matches when
    /// it starts with these segments.
    pub path: &'static [&'static str],
}

/// Path prefixes that trigger D/L rules when referenced in code covered by
/// the relevant policy. Matching is prefix-based on resolved segments, so
/// `std::thread` also catches `std::thread::spawn` and `std::thread::sleep`.
pub const HAZARD_PATHS: &[HazardPath] = &[
    // D001 — wall clock.
    HazardPath {
        rule: id::D001,
        path: &["std", "time", "Instant"],
    },
    HazardPath {
        rule: id::D001,
        path: &["std", "time", "SystemTime"],
    },
    HazardPath {
        rule: id::D001,
        path: &["std", "time", "UNIX_EPOCH"],
    },
    // D002 — unordered containers (the hash_map/hash_set modules cover
    // Entry/Iter/RandomState re-imports).
    HazardPath {
        rule: id::D002,
        path: &["std", "collections", "HashMap"],
    },
    HazardPath {
        rule: id::D002,
        path: &["std", "collections", "HashSet"],
    },
    HazardPath {
        rule: id::D002,
        path: &["std", "collections", "hash_map"],
    },
    HazardPath {
        rule: id::D002,
        path: &["std", "collections", "hash_set"],
    },
    // D003 — ambient randomness / randomized hashing.
    HazardPath {
        rule: id::D003,
        path: &["rand", "thread_rng"],
    },
    HazardPath {
        rule: id::D003,
        path: &["rand", "random"],
    },
    HazardPath {
        rule: id::D003,
        path: &["rand", "rngs", "ThreadRng"],
    },
    HazardPath {
        rule: id::D003,
        path: &["std", "collections", "hash_map", "RandomState"],
    },
    HazardPath {
        rule: id::D003,
        path: &["std", "hash", "RandomState"],
    },
    HazardPath {
        rule: id::D003,
        path: &["std", "collections", "hash_map", "DefaultHasher"],
    },
    HazardPath {
        rule: id::D003,
        path: &["std", "hash", "DefaultHasher"],
    },
    // D004 — threads and sync. `std::thread` as a prefix catches spawn,
    // sleep, park, scope, JoinHandle...
    HazardPath {
        rule: id::D004,
        path: &["std", "thread"],
    },
    HazardPath {
        rule: id::D004,
        path: &["std", "sync", "Mutex"],
    },
    HazardPath {
        rule: id::D004,
        path: &["std", "sync", "RwLock"],
    },
    HazardPath {
        rule: id::D004,
        path: &["std", "sync", "Condvar"],
    },
    HazardPath {
        rule: id::D004,
        path: &["std", "sync", "Barrier"],
    },
    HazardPath {
        rule: id::D004,
        path: &["std", "sync", "mpsc"],
    },
];

/// Method names that iterate a collection — calling any of these on a
/// known hash-container binding is a D002 violation even where the plain
/// type reference is allowed.
pub const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Does a resolved path trigger a hazard? Returns every matching rule ID
/// (a path can belong to two rules: `std::collections::hash_map::
/// RandomState` is both a hash-container module reference and a
/// randomized-hashing source).
#[must_use]
pub fn matching_rules(resolved: &[String]) -> Vec<&'static str> {
    let mut hits = Vec::new();
    for hp in HAZARD_PATHS {
        if resolved.len() >= hp.path.len()
            && hp.path.iter().zip(resolved.iter()).all(|(a, b)| a == b)
            && !hits.contains(&hp.rule)
        {
            hits.push(hp.rule);
        }
    }
    hits
}

/// Is this resolved path a hash-container type (for binding tracking)?
#[must_use]
pub fn is_hash_container(resolved: &[String]) -> bool {
    matching_rules(resolved).contains(&id::D002)
}
