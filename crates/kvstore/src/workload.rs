//! Open-loop workload generation (§IV-B2 of the paper).
//!
//! The paper's throughput experiment drives etcd with open-loop clients
//! whose offered rate ramps up in 1000 req/s increments, each level held
//! for 10 s. [`WorkloadGen`] reproduces that: it emits command arrival
//! times from a rate schedule (requests are sent regardless of completions
//! — open loop), with Zipf-distributed keys and configurable value sizes.

use crate::store::KvCommand;
use bytes::Bytes;
use dynatune_simnet::rng::Rng;
use dynatune_simnet::SimTime;
use dynatune_stats::Zipf;
use std::time::Duration;

/// Mix of operations, as fractions summing to at most 1 (the remainder
/// becomes `Get`s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Fraction of `Put`s.
    pub put: f64,
    /// Fraction of `Delete`s.
    pub delete: f64,
    /// Fraction of `Cas` operations.
    pub cas: f64,
}

impl OpMix {
    /// Write-heavy default (etcd benchmark style: mostly puts).
    #[must_use]
    pub fn write_heavy() -> Self {
        Self {
            put: 0.9,
            delete: 0.05,
            cas: 0.05,
        }
    }

    /// Read-mostly mix: 95% `Get`s, 5% `Put`s — the serving profile the
    /// log-free read path is built for.
    #[must_use]
    pub fn read_mostly() -> Self {
        Self {
            put: 0.05,
            delete: 0.0,
            cas: 0.0,
        }
    }

    /// Validate the fractions.
    ///
    /// # Panics
    /// Panics when fractions are negative or exceed 1 in total.
    pub fn validate(&self) {
        assert!(
            self.put >= 0.0 && self.delete >= 0.0 && self.cas >= 0.0,
            "negative fraction"
        );
        assert!(
            self.put + self.delete + self.cas <= 1.0 + 1e-9,
            "mix exceeds 1"
        );
    }
}

/// A single step of the offered-load schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateStep {
    /// Offered rate in requests per second.
    pub rps: f64,
    /// How long the level is held.
    pub hold: Duration,
}

/// Open-loop workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    steps: Vec<RateStep>,
    mix: OpMix,
    keys: Zipf,
    key_space: usize,
    value_size: usize,
    rng: Rng,
    /// Current position.
    step_idx: usize,
    step_started: SimTime,
    next_arrival: SimTime,
}

impl WorkloadGen {
    /// Create a generator starting at `start`.
    ///
    /// # Panics
    /// Panics on an empty schedule or zero key space.
    #[must_use]
    pub fn new(
        steps: Vec<RateStep>,
        mix: OpMix,
        key_space: usize,
        zipf_theta: f64,
        value_size: usize,
        rng: Rng,
        start: SimTime,
    ) -> Self {
        assert!(!steps.is_empty(), "workload needs at least one rate step");
        assert!(key_space > 0, "empty key space");
        mix.validate();
        let mut gen = Self {
            steps,
            mix,
            keys: Zipf::new(key_space, zipf_theta),
            key_space,
            value_size,
            rng,
            step_idx: 0,
            step_started: start,
            next_arrival: start,
        };
        gen.schedule_next(start);
        gen
    }

    /// The paper's ramp: 1000, 2000, ... `peak_rps` req/s, each held `hold`.
    #[must_use]
    pub fn paper_ramp(peak_rps: f64, increment: f64, hold: Duration) -> Vec<RateStep> {
        assert!(increment > 0.0 && peak_rps >= increment, "bad ramp");
        let mut steps = Vec::new();
        let mut rps = increment;
        while rps <= peak_rps + 1e-9 {
            steps.push(RateStep { rps, hold });
            rps += increment;
        }
        steps
    }

    fn current_rate(&self) -> f64 {
        self.steps[self.step_idx.min(self.steps.len() - 1)].rps
    }

    /// Offered rate at the current instant (for reporting).
    #[must_use]
    pub fn offered_rps(&self) -> f64 {
        self.current_rate()
    }

    /// Index of the rate step the next arrival belongs to (clamped to the
    /// last step once finished). Clients use this to bucket latencies per
    /// offered-load level.
    #[must_use]
    pub fn step_index(&self) -> usize {
        self.step_idx.min(self.steps.len() - 1)
    }

    /// The schedule this generator runs.
    #[must_use]
    pub fn steps(&self) -> &[RateStep] {
        &self.steps
    }

    /// True when the schedule has been exhausted.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.step_idx >= self.steps.len()
    }

    /// Time of the next arrival (None when finished).
    #[must_use]
    pub fn peek_next(&self) -> Option<SimTime> {
        (!self.finished()).then_some(self.next_arrival)
    }

    fn schedule_next(&mut self, from: SimTime) {
        let mut from = from;
        loop {
            if self.finished() {
                return;
            }
            let step = self.steps[self.step_idx];
            // Exponential inter-arrival (Poisson process) at the step rate.
            let gap = self.rng.exponential(1.0 / step.rps.max(1e-9));
            let candidate = from + Duration::from_secs_f64(gap);
            if candidate < self.step_started + step.hold {
                self.next_arrival = candidate;
                return;
            }
            // Move to the next step; arrivals restart at the boundary.
            self.step_started += step.hold;
            self.step_idx += 1;
            from = self.step_started;
        }
    }

    fn make_key(&mut self) -> Bytes {
        key_for_rank(self.keys.sample(self.rng.f64()) as u64)
    }

    fn make_value(&mut self) -> Bytes {
        let mut v = vec![0u8; self.value_size];
        for chunk in v.chunks_mut(8) {
            let r = self.rng.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&r[..n]);
        }
        Bytes::from(v)
    }

    /// Produce the next `(arrival_time, command)` pair, advancing the
    /// schedule. Returns `None` once the schedule is exhausted.
    pub fn next_request(&mut self) -> Option<(SimTime, KvCommand)> {
        if self.finished() {
            return None;
        }
        let at = self.next_arrival;
        let key = self.make_key();
        let roll = self.rng.f64();
        let cmd = if roll < self.mix.put {
            KvCommand::Put {
                key,
                value: self.make_value(),
            }
        } else if roll < self.mix.put + self.mix.delete {
            KvCommand::Delete { key }
        } else if roll < self.mix.put + self.mix.delete + self.mix.cas {
            KvCommand::Cas {
                key,
                expect: None,
                value: self.make_value(),
            }
        } else {
            KvCommand::Get { key }
        };
        self.schedule_next(at);
        Some((at, cmd))
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn key_space(&self) -> usize {
        self.key_space
    }
}

/// The bytes of `format!("key-{rank:08}")` — zero-padded to at least eight
/// digits — written directly: one key per request makes `fmt`, a `String`
/// and a second copy measurable in the generator.
fn key_for_rank(rank: u64) -> Bytes {
    const PREFIX: &[u8] = b"key-";
    // A `u64` has at most 20 digits.
    let mut buf = [b'0'; PREFIX.len() + 20];
    let mut start = buf.len();
    let mut rest = rank;
    while rest > 0 || buf.len() - start < 8 {
        start -= 1;
        buf[start] = b"0123456789"[(rest % 10) as usize];
        rest /= 10;
    }
    start -= PREFIX.len();
    buf[start..start + PREFIX.len()].copy_from_slice(PREFIX);
    Bytes::copy_from_slice(&buf[start..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_the_bytes_format_would_print() {
        for rank in [0, 9, 99_999_999, 100_000_000, u64::MAX] {
            assert_eq!(
                key_for_rank(rank),
                Bytes::from(format!("key-{rank:08}")),
                "rank {rank}"
            );
        }
    }

    fn gen_with(steps: Vec<RateStep>) -> WorkloadGen {
        WorkloadGen::new(
            steps,
            OpMix::write_heavy(),
            1000,
            0.99,
            64,
            Rng::new(7),
            SimTime::ZERO,
        )
    }

    #[test]
    fn paper_ramp_shape() {
        let steps = WorkloadGen::paper_ramp(15_000.0, 1000.0, Duration::from_secs(10));
        assert_eq!(steps.len(), 15);
        assert_eq!(steps[0].rps, 1000.0);
        assert_eq!(steps[14].rps, 15_000.0);
        assert!(steps.iter().all(|s| s.hold == Duration::from_secs(10)));
    }

    #[test]
    fn arrivals_are_monotone_and_respect_rate() {
        let mut g = gen_with(vec![RateStep {
            rps: 1000.0,
            hold: Duration::from_secs(5),
        }]);
        let mut last = SimTime::ZERO;
        let mut count = 0u64;
        while let Some((at, _)) = g.next_request() {
            assert!(at >= last, "arrivals must be monotone");
            assert!(at < SimTime::from_secs(5), "inside the schedule window");
            last = at;
            count += 1;
        }
        // ~1000 rps for 5 s => ~5000 requests (Poisson: wide tolerance).
        assert!((4000..6000).contains(&count), "count = {count}");
        assert!(g.finished());
    }

    #[test]
    fn rate_steps_advance() {
        let mut g = gen_with(vec![
            RateStep {
                rps: 100.0,
                hold: Duration::from_secs(2),
            },
            RateStep {
                rps: 2000.0,
                hold: Duration::from_secs(2),
            },
        ]);
        let mut first_window = 0u64;
        let mut second_window = 0u64;
        while let Some((at, _)) = g.next_request() {
            if at < SimTime::from_secs(2) {
                first_window += 1;
            } else {
                second_window += 1;
            }
        }
        assert!(first_window < 400, "low step too fast: {first_window}");
        assert!(second_window > 2500, "high step too slow: {second_window}");
    }

    #[test]
    fn op_mix_fractions_roughly_hold() {
        let mut g = WorkloadGen::new(
            vec![RateStep {
                rps: 5000.0,
                hold: Duration::from_secs(4),
            }],
            OpMix {
                put: 0.5,
                delete: 0.25,
                cas: 0.0,
            },
            100,
            0.0,
            16,
            Rng::new(11),
            SimTime::ZERO,
        );
        let mut puts = 0u64;
        let mut dels = 0u64;
        let mut gets = 0u64;
        let mut total = 0u64;
        while let Some((_, cmd)) = g.next_request() {
            total += 1;
            match cmd {
                KvCommand::Put { .. } => puts += 1,
                KvCommand::Delete { .. } => dels += 1,
                KvCommand::Get { .. } => gets += 1,
                _ => {}
            }
        }
        let frac = |n: u64| n as f64 / total as f64;
        assert!((frac(puts) - 0.5).abs() < 0.03, "puts {}", frac(puts));
        assert!((frac(dels) - 0.25).abs() < 0.03, "dels {}", frac(dels));
        assert!((frac(gets) - 0.25).abs() < 0.03, "gets {}", frac(gets));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut g = WorkloadGen::new(
                vec![RateStep {
                    rps: 500.0,
                    hold: Duration::from_secs(1),
                }],
                OpMix::write_heavy(),
                100,
                0.99,
                32,
                Rng::new(seed),
                SimTime::ZERO,
            );
            let mut out = Vec::new();
            while let Some((at, cmd)) = g.next_request() {
                out.push((at, format!("{cmd:?}")));
            }
            out
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn zipf_keys_are_skewed() {
        let mut g = gen_with(vec![RateStep {
            rps: 5000.0,
            hold: Duration::from_secs(2),
        }]);
        let mut head = 0u64;
        let mut total = 0u64;
        while let Some((_, cmd)) = g.next_request() {
            let key = match &cmd {
                KvCommand::Put { key, .. }
                | KvCommand::Get { key }
                | KvCommand::Delete { key }
                | KvCommand::Cas { key, .. } => key.clone(),
            };
            if key == "key-00000000" {
                head += 1;
            }
            total += 1;
        }
        // Zipf(1000, 0.99): rank 0 carries ~12% of the mass.
        let frac = head as f64 / total as f64;
        assert!(frac > 0.05, "head key fraction {frac}");
    }

    #[test]
    fn value_size_respected() {
        let mut g = gen_with(vec![RateStep {
            rps: 100.0,
            hold: Duration::from_secs(1),
        }]);
        while let Some((_, cmd)) = g.next_request() {
            if let KvCommand::Put { value, .. } = cmd {
                assert_eq!(value.len(), 64);
            }
        }
    }
}
