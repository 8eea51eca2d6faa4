//! Statistics utilities for the Dynatune reproduction.
//!
//! This crate is dependency-free and provides the numeric building blocks the
//! rest of the workspace leans on:
//!
//! * [`OnlineStats`] — streaming mean/variance/min/max (Welford's algorithm),
//!   mergeable across parallel workers.
//! * [`SampleWindow`] — bounded sliding window whose only statistics are a
//!   running mean and standard deviation: the µ and σ of the Dynatune RTT
//!   estimator (`RTTs` list in the paper).
//! * [`Histogram`] — log-bucketed latency histogram with quantile queries.
//! * [`EmpiricalCdf`] — exact empirical CDF over a finished sample set; this
//!   is what the paper's Figures 4 and 8 plot.
//! * [`TimeSeries`] — append-only `(t, value)` series with fixed-interval
//!   resampling, used for the Figure 6/7 time plots.
//! * [`Zipf`] — Zipf-distributed key sampler for KV workloads.
//! * [`table`] — plain-text aligned table rendering for benchmark reports.
//!
//! All floating point summaries are deterministic functions of the inserted
//! values; nothing here consumes randomness except [`Zipf::sample`], which is
//! driven by a caller-provided uniform variate so the workspace's
//! deterministic RNG discipline is preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod histogram;
mod online;
pub mod table;
mod timeseries;
mod window;
mod zipf;

pub use cdf::EmpiricalCdf;
pub use histogram::Histogram;
pub use online::OnlineStats;
pub use timeseries::{ResamplePolicy, TimeSeries};
pub use window::SampleWindow;
pub use zipf::Zipf;

/// One-based rank of quantile `q` among `n` ordered samples, under the
/// workspace-wide convention "smallest value `v` with `P(X <= v) >= q`":
/// `max(ceil(q * n), 1)`, with `q` clamped to `[0, 1]`.
///
/// [`EmpiricalCdf::quantile`] and [`Histogram::quantile`] both index with
/// this rank; sharing the formula keeps the off-by-one convention from
/// silently diverging between the exact and the bucketed estimator.
/// Returns 0 only when `n == 0` (callers handle the empty case first).
#[must_use]
pub fn quantile_rank(n: u64, q: f64) -> u64 {
    let q = q.clamp(0.0, 1.0);
    (((q * n as f64).ceil() as u64).max(1)).min(n)
}

/// Linear interpolation between `a` and `b` at fraction `t in [0, 1]`.
#[must_use]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints_and_midpoint() {
        assert_eq!(lerp(10.0, 20.0, 0.0), 10.0);
        assert_eq!(lerp(10.0, 20.0, 1.0), 20.0);
        assert_eq!(lerp(10.0, 20.0, 0.5), 15.0);
    }

    #[test]
    fn quantile_rank_convention() {
        // q=0 and tiny q floor at rank 1; q=1 lands on n exactly.
        assert_eq!(quantile_rank(4, 0.0), 1);
        assert_eq!(quantile_rank(4, 0.25), 1);
        assert_eq!(quantile_rank(4, 0.26), 2);
        assert_eq!(quantile_rank(4, 0.5), 2);
        assert_eq!(quantile_rank(4, 1.0), 4);
        // Out-of-range q clamps instead of over/under-indexing.
        assert_eq!(quantile_rank(4, -3.0), 1);
        assert_eq!(quantile_rank(4, 7.0), 4);
        assert_eq!(quantile_rank(0, 0.5), 0);
        // Never exceeds n even at the float boundary.
        for n in 1..=100u64 {
            for i in 0..=20 {
                let r = quantile_rank(n, i as f64 / 20.0);
                assert!((1..=n).contains(&r), "n={n} q={} rank={r}", i as f64 / 20.0);
            }
        }
    }
}
