//! [`Scenario`] and [`RunCtx`]: the one shape every registered scenario
//! has.
//!
//! A scenario is a row of data — a name, three lines of metadata and the
//! `fn` that turns a [`RunCtx`] (seed, scale, parallelism) into a
//! [`Report`]. The registry (`scenario::registry`) lists the rows; the
//! `scenarios` binary drives them.

use crate::scenario::report::Report;
use dynatune_simnet::rng::splitmix64;

/// Execution context shared by every experiment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCtx {
    /// Master seed; per-system and per-trial seeds derive from it via
    /// [`RunCtx::system_seed`] and the experiments' trial splitting.
    pub seed: u64,
    /// Scaled-down smoke run (fewer trials, shorter holds).
    pub quick: bool,
    /// Trial-count override (`None`: the experiment's default).
    pub trials: Option<usize>,
    /// Repeat-count override (`None`: the experiment's default).
    pub repeats: Option<usize>,
    /// Worker threads for trial fan-out; 0 means "all cores". Any value
    /// produces bit-identical reports (seeds derive from trial indices and
    /// results merge in input order).
    pub jobs: usize,
}

impl RunCtx {
    /// A context with the given seed, full scale, default parallelism.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            quick: false,
            trials: None,
            repeats: None,
            jobs: 0,
        }
    }

    /// Builder-style quick toggle.
    #[must_use]
    pub fn quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }

    /// Builder-style jobs cap.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Pick between the full (paper-scale) and quick values.
    #[must_use]
    pub fn scale(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Trial count: the override if given, else full/quick defaults.
    #[must_use]
    pub fn trials_or(&self, full: usize, quick: usize) -> usize {
        self.trials.unwrap_or_else(|| self.scale(full, quick))
    }

    /// Repeat count: the override if given, else full/quick defaults.
    #[must_use]
    pub fn repeats_or(&self, full: usize, quick: usize) -> usize {
        self.repeats.unwrap_or_else(|| self.scale(full, quick))
    }

    /// Derive the master seed for one *system under test* (e.g. "raft" vs
    /// "dynatune") from a stable label.
    ///
    /// This replaces the ad-hoc `seed ^ 0xD1` splitting the figure
    /// binaries used to scatter: every label maps to an independent,
    /// documented seed stream (FNV-1a over the label, mixed with the
    /// master seed through splitmix64), so two systems in one experiment
    /// never share RNG streams and adding a third system cannot collide
    /// with the first two.
    #[must_use]
    pub fn system_seed(&self, label: &str) -> u64 {
        // FNV-1a 64-bit over the label bytes.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in label.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut state = self.seed ^ hash;
        splitmix64(&mut state)
    }

    /// Run a scenario under this context's `jobs` cap: parallel trial
    /// fan-out inside the scenario is limited to `jobs` worker threads
    /// (0 = all cores).
    #[must_use]
    pub fn run(&self, scenario: &Scenario) -> Report {
        if self.jobs > 0 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(self.jobs)
                .build();
            match pool {
                Ok(pool) => pool.install(|| (scenario.run)(self)),
                // Results are bit-identical across thread counts, so an
                // inline run is a correct (merely slower) fallback.
                Err(_) => (scenario.run)(self),
            }
        } else {
            (scenario.run)(self)
        }
    }
}

/// A named, registered scenario: one row of the registry.
///
/// The metadata fields feed the generated `SCENARIOS.md` catalog
/// (`scenarios --describe-md`), so every scenario documents its headline
/// metric and what CI enforces — in code, where it cannot rot apart from
/// the implementation.
#[derive(Debug)]
pub struct Scenario {
    /// Registry key (`fig4`, `partition_churn`, ...).
    pub name: &'static str,
    /// One-line description for `scenarios --list` (what it models).
    pub describe: &'static str,
    /// The headline metric the report leads with.
    pub headline_metric: &'static str,
    /// What the CI `--quick` smoke run enforces: the hard `assert!`s inside
    /// `run`, in a phrase that starts with "asserts".
    pub ci_assertion: &'static str,
    /// Execute and report.
    pub run: fn(&RunCtx) -> Report,
}

impl Scenario {
    /// The metadata columns — name, description, headline metric, CI
    /// assertion — in the order every view of the registry presents them
    /// (`--list`, `--list --json`, `SCENARIOS.md`, the run banner).
    #[must_use]
    pub fn columns(&self) -> [&'static str; 4] {
        [
            self.name,
            self.describe,
            self.headline_metric,
            self.ci_assertion,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_seeds_differ_by_label_and_seed() {
        let ctx = RunCtx::new(42);
        let raft = ctx.system_seed("raft");
        let dynatune = ctx.system_seed("dynatune");
        assert_ne!(raft, dynatune);
        assert_ne!(raft, 42, "derived, not the raw master seed");
        // Stable across calls.
        assert_eq!(raft, ctx.system_seed("raft"));
        // Responds to the master seed.
        assert_ne!(raft, RunCtx::new(43).system_seed("raft"));
    }

    #[test]
    fn scale_and_overrides() {
        let mut ctx = RunCtx::new(1);
        assert_eq!(ctx.trials_or(1000, 50), 1000);
        ctx.quick = true;
        assert_eq!(ctx.trials_or(1000, 50), 50);
        ctx.trials = Some(7);
        assert_eq!(ctx.trials_or(1000, 50), 7);
        assert_eq!(ctx.repeats_or(10, 2), 2);
    }

    const COUNT_UP: Scenario = Scenario {
        name: "count_up",
        describe: "test experiment",
        headline_metric: "xor of derived seeds",
        ci_assertion: "none (test-only)",
        run: count_up,
    };

    fn count_up(ctx: &RunCtx) -> Report {
        use rayon::prelude::*;
        let v: Vec<u64> = (0..100u64)
            .into_par_iter()
            .map(|i| {
                let mut s = ctx.seed ^ i;
                dynatune_simnet::rng::splitmix64(&mut s)
            })
            .collect();
        let mut r = Report::new(COUNT_UP.name);
        r.note(format!("{:x}", v.iter().fold(0u64, |a, b| a ^ b)));
        r
    }

    #[test]
    fn jobs_cap_does_not_change_results() {
        let serial = RunCtx::new(9).jobs(1).run(&COUNT_UP);
        let wide = RunCtx::new(9).jobs(4).run(&COUNT_UP);
        let default = RunCtx::new(9).run(&COUNT_UP);
        assert_eq!(serial, wide);
        assert_eq!(serial, default);
    }
}
