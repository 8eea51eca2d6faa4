//! Sample arithmetic and host-clock probes.

use dynatune_stats::{lerp, quantile_rank};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The percentile rule: the highest quantile, at most `want`, that still
/// has at least ten samples beyond it. A `p99` of 400 samples is therefore
/// really a p97.5; the sample count is reported beside it.
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    if n <= 10 {
        return 0.5_f64.min(want);
    }
    want.min(1.0 - 10.0 / n as f64)
}

/// The sample at the supported quantile (nearest rank, the workspace's
/// convention); sorts in place. An empty sample reads 0.
pub fn tail(samples: &mut [f64], want: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let rank = quantile_rank(n as u64, supported_quantile(n, want));
    samples[rank as usize - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => samples[n / 2],
        _ => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a percentage of the
/// median, quartiles as Python's `statistics.quantiles(v, n=4)` gives them.
pub fn iqr_pct(samples: &mut [f64]) -> f64 {
    let med = median(samples);
    let n = samples.len();
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let at = |p: f64| {
        // Exclusive method: position p*(n+1), clamped, linear between ranks.
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        lerp(samples[lo - 1], samples[hi - 1], pos - lo as f64)
    };
    (at(0.75) - at(0.25)) / med * 100.0
}

/// Host seconds the speed probe takes on the calibration box when nothing
/// else runs. Host times are reported as if the probe took exactly this.
pub const PROBE_REF_SECS: f64 = 0.100;

/// The speed probe: a fixed piece of work of the benchmark's own, on the
/// standard library alone (so no change to the repository moves it), shaped
/// like what the workloads do on the host: an event heap, a bounded log of
/// 512 B entries, each entry cloned into three ordered maps of 20 000 keys
/// (34 MiB, allocation-heavy, pointer-chasing). Returns its host time.
pub fn probe() -> Duration {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut stores: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = vec![BTreeMap::new(); 3];
    let mut log: VecDeque<(Vec<u8>, Vec<u8>)> = VecDeque::new();
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> =
        (0..1_000u64).map(|i| Reverse((i, i))).collect();
    for _ in 0..60_000u32 {
        let Reverse((at, id)) = heap.pop().unwrap_or(Reverse((0, 0)));
        let r = next();
        let key = format!("key-{:08}", r % 20_000).into_bytes();
        log.push_back((key, vec![(r >> 8) as u8; 512]));
        if log.len() > 4_096 {
            log.pop_front();
        }
        if let Some((k, v)) = log.back() {
            for store in &mut stores {
                store.insert(k.clone(), v.clone());
            }
        }
        heap.push(Reverse((at + 1 + r % 1_000, id)));
    }
    black_box((stores.len(), log.len(), heap.len()));
    t.elapsed()
}

/// Run `f` between two probes. Returns its result and the machine's speed
/// while it ran, relative to the calibration box (1.0; below it, slower).
///
/// This box speeds up and slows down by up to 2x for minutes at a time
/// (neighbours on the host; the slow-downs show as user time, not steal),
/// all of a run at once, so no estimator inside a run can take them out.
/// The probe is disturbed with the work it brackets: multiplying a host
/// time by this speed gives what it would have been at calibration speed,
/// and cut the spread of ten runs from 7-18 % to 3-4 % (README, "Bounds").
pub fn probed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = probe();
    let out = f();
    let after = probe();
    let probe_secs = (before + after).as_secs_f64() / 2.0;
    (out, PROBE_REF_SECS / probe_secs)
}

/// Estimated host shares per layer: (calls counted in the run x drive time
/// per call) / rep host time. `unattributed` is what is left, so the shares
/// and it sum to one.
pub struct Shares {
    pub layers: Vec<(&'static str, f64)>,
    pub unattributed: f64,
}

pub fn shares(layer_ns: &[(&'static str, f64)], rep_host_ns: f64) -> Shares {
    let layers: Vec<(&'static str, f64)> = layer_ns
        .iter()
        .map(|&(name, ns)| (name, ns / rep_host_ns))
        .collect();
    let unattributed = 1.0 - layers.iter().map(|&(_, s)| s).sum::<f64>();
    Shares {
        layers,
        unattributed,
    }
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time this process has used (user + system, `/proc/self/stat`).
pub fn cpu_time() -> Duration {
    // Fields 14 and 15 after the parenthesised command name, in clock ticks;
    // Linux reports them at USER_HZ = 100.
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    let after = text.rsplit(')').next().unwrap_or("");
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        // 1000 samples support p99 exactly; 400 only p97.5; 120 only p91.67.
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        assert_eq!(supported_quantile(100_000, 0.99), 0.99);
        assert!((supported_quantile(400, 0.99) - 0.975).abs() < 1e-12);
        assert!((supported_quantile(120, 0.99) - (1.0 - 10.0 / 120.0)).abs() < 1e-12);
        // p90 needs 100 samples: 120 injected failures carry it.
        assert_eq!(supported_quantile(120, 0.90), 0.90);
        assert!(supported_quantile(50, 0.90) < 0.90);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(supported_quantile(8, 0.99), 0.5);
        let mut v: Vec<f64> = (1..=400).map(f64::from).collect();
        // p97.5 of 1..=400 by nearest rank is the 390th value: 10 beyond it.
        assert_eq!(tail(&mut v, 0.99), 390.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_pct(&mut v) - (8.25 - 2.75) / 5.5 * 100.0).abs() < 1e-9);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let mut v = vec![16.0, 1.0, 4.0, 2.0, 8.0];
        assert!((iqr_pct(&mut v) - (12.0 - 1.5) / 4.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn shares_and_unattributed_sum_to_one() {
        let s = shares(&[("simnet", 300.0), ("raft", 250.0), ("kv", 50.0)], 1000.0);
        assert_eq!(s.layers[0], ("simnet", 0.3));
        assert!((s.unattributed - 0.4).abs() < 1e-12);
        let total: f64 = s.layers.iter().map(|&(_, v)| v).sum::<f64>() + s.unattributed;
        assert!((total - 1.0).abs() < 1e-12);
        // Drives that over-estimate leave a negative remainder, not a clamp:
        // the identity is what makes the table checkable.
        let s = shares(&[("raft", 1200.0)], 1000.0);
        assert!((s.unattributed + 0.2).abs() < 1e-12);
    }

    #[test]
    fn host_probes_read_this_process() {
        assert!(peak_rss_mib() > 0.0);
        let _ = cpu_time();
        let (out, speed) = probed(|| 7);
        assert_eq!(out, 7);
        assert!(speed > 0.0 && speed.is_finite());
    }
}
