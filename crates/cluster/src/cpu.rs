//! CPU cost model and utilization metering.
//!
//! The paper measures container CPU utilization with `docker stats` in 5 s
//! windows, capped at 200 % for the 2-core allocation (Fig. 7b), and finds
//! peak request throughput limited by the leader's processing power
//! (Fig. 5). The simulator reproduces both with a simple cost model: every
//! simulated action charges busy time onto one of `cores` virtual cores;
//! request admission is *delayed* until a core is free, which is what makes
//! offered load beyond capacity queue up (latency) and saturate
//! (throughput), exactly the Fig. 5 hockey stick.
//!
//! Cost calibration (documented in DESIGN.md): per-message costs are sized
//! so that a 2-core leader pushing 64 followers at Fix-K cadence pegs near
//! 100 %+ (paper Fig. 7b) and a 4-core leader saturates near the paper's
//! ~13.7 k req/s peak (Fig. 5). The `tuning_per_request` tax encodes the
//! paper's measured 6.4 % peak-throughput overhead of the tuning machinery,
//! which the paper reports but does not decompose.

use dynatune_core::invariant_violated;
use dynatune_simnet::SimTime;
use dynatune_stats::TimeSeries;
use std::time::Duration;

/// Per-action busy-time costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Handling one received protocol message.
    pub per_message_recv: Duration,
    /// Serializing/sending one protocol message.
    pub per_message_send: Duration,
    /// Full client-request handling on the leader (parse, propose, respond).
    pub per_request: Duration,
    /// Handling one log-free read (lease/ReadIndex path): parse, grant
    /// check, one ordered-map lookup, respond. Charged instead of
    /// `per_request` + `per_apply` + replication — a read that skips the
    /// log costs heartbeat-weight work, not append-weight work, which is
    /// exactly the throughput lever the read path exists to pull.
    pub per_read: Duration,
    /// Serializing one KiB of log-entry payload into an outgoing
    /// `AppendEntries` (rounded up per message). Charging replication by
    /// payload bytes rather than per entry is what lets group commit pay
    /// off honestly in the sim: coalescing many small proposals into one
    /// append costs the same bytes but saves the per-message overhead,
    /// exactly as on real hardware.
    pub per_append_kib: Duration,
    /// Applying one committed entry to the state machine.
    pub per_apply: Duration,
    /// Extra per protocol message when tuning is active (measurement
    /// bookkeeping in the hot path).
    pub tuning_per_message: Duration,
    /// Extra per client request when tuning is active (per-follower timer
    /// and tuning-state bookkeeping; calibrated to the paper's 6.4 % peak
    /// throughput overhead).
    pub tuning_per_request: Duration,
    /// Cost of servicing one timer wake-up (scheduler churn). Zero by
    /// default; the §IV-E consolidated-timer extension study sets it to
    /// expose the n−1-timers overhead the paper attributes to Dynatune.
    pub per_timer_wake: Duration,
    /// Serializing (sender) or installing (receiver) one KiB of snapshot
    /// state during an `InstallSnapshot` transfer — the size-aware part of
    /// the cost model: shipping a big store visibly occupies the CPU and
    /// delays request admission, unlike ordinary fixed-cost messages.
    pub per_snapshot_kib: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            per_message_recv: Duration::from_micros(150),
            per_message_send: Duration::from_micros(150),
            per_request: Duration::from_micros(250),
            per_read: Duration::from_micros(60),
            per_apply: Duration::from_micros(30),
            // ~30µs/KiB ≈ the retired 5µs-per-entry charge at the workload's
            // ~170-byte mean entry, keeping the Fig. 5 peak calibration.
            per_append_kib: Duration::from_micros(30),
            tuning_per_message: Duration::from_micros(15),
            tuning_per_request: Duration::from_micros(18),
            per_timer_wake: Duration::ZERO,
            per_snapshot_kib: Duration::from_micros(2),
        }
    }
}

impl CostModel {
    /// A zero-cost model (infinitely fast servers) for experiments where
    /// CPU effects are irrelevant (e.g. pure election timing studies).
    #[must_use]
    pub fn free() -> Self {
        Self {
            per_message_recv: Duration::ZERO,
            per_message_send: Duration::ZERO,
            per_request: Duration::ZERO,
            per_read: Duration::ZERO,
            per_apply: Duration::ZERO,
            per_append_kib: Duration::ZERO,
            tuning_per_message: Duration::ZERO,
            tuning_per_request: Duration::ZERO,
            per_timer_wake: Duration::ZERO,
            per_snapshot_kib: Duration::ZERO,
        }
    }

    /// Busy time to serialize or install a snapshot of `bytes` (size-aware
    /// transfer modeling; rounds up to whole KiB).
    #[must_use]
    pub fn snapshot_cost(&self, bytes: usize) -> Duration {
        self.per_snapshot_kib * kib_factor(bytes)
    }

    /// Busy time to serialize `bytes` of entry payload into one outgoing
    /// `AppendEntries` (rounds up to whole KiB; an empty append charges
    /// nothing beyond `per_message_send`).
    #[must_use]
    pub fn append_cost(&self, bytes: usize) -> Duration {
        self.per_append_kib * kib_factor(bytes)
    }
}

/// Whole-KiB multiplier for byte-sized costs. `Duration * u32` is the only
/// multiply std offers, so saturate rather than silently truncate a
/// (physically impossible) 4 TiB payload.
fn kib_factor(bytes: usize) -> u32 {
    u32::try_from(bytes.div_ceil(1024)).unwrap_or(u32::MAX)
}

/// Multi-core busy-time meter with windowed utilization reporting.
#[derive(Debug, Clone)]
pub struct CpuMeter {
    /// Next-free instant per virtual core.
    cores: Vec<SimTime>,
    window: Duration,
    /// Busy seconds by window index; `None` for a window nothing was
    /// charged to, which the utilization series skips.
    window_busy: Vec<Option<f64>>,
    total_busy: Duration,
}

impl CpuMeter {
    /// Create a meter with `cores` virtual cores and the given utilization
    /// sampling window (the paper samples every 5 s).
    #[must_use]
    pub fn new(cores: usize, window: Duration) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(window > Duration::ZERO, "zero sampling window");
        Self {
            cores: vec![SimTime::ZERO; cores],
            window,
            window_busy: Vec::new(),
            total_busy: Duration::ZERO,
        }
    }

    /// Charge `cost` of busy time starting no earlier than `now` on the
    /// least-loaded core. Returns the completion instant (used to delay
    /// request admission under load).
    pub fn charge(&mut self, now: SimTime, cost: Duration) -> SimTime {
        if cost.is_zero() {
            return now;
        }
        // Pick the earliest-free core.
        let earliest = self.cores.iter().enumerate().min_by_key(|(_, &t)| t);
        let Some((idx, &free_at)) = earliest else {
            invariant_violated!("CpuMeter has no cores — `new` asserts at least one");
        };
        let start = free_at.max(now);
        let end = start + cost;
        self.cores[idx] = end;
        self.total_busy += cost;
        self.attribute(start, end);
        end
    }

    /// Spread the busy interval across utilization windows.
    fn attribute(&mut self, start: SimTime, end: SimTime) {
        let w = self.window.as_secs_f64();
        let mut t = start.as_secs_f64();
        let end_s = end.as_secs_f64();
        // The window index advances by counting, not by dividing the next
        // boundary back by `w`: `(k * w) / w` can round below `k` (a 3 ms
        // window at k = 49), which would re-enter the same window with a
        // zero slice forever.
        let mut widx = (t / w) as usize;
        while t < end_s {
            let wend = (widx + 1) as f64 * w;
            let slice = end_s.min(wend) - t;
            if widx >= self.window_busy.len() {
                self.window_busy.resize(widx + 1, None);
            }
            *self.window_busy[widx].get_or_insert(0.0) += slice;
            t = wend;
            widx += 1;
        }
    }

    /// Cumulative busy time.
    #[must_use]
    pub fn total_busy(&self) -> Duration {
        self.total_busy
    }

    /// Utilization time series in percent of one core (docker-stats style:
    /// up to `cores * 100`). One point per window, at the window start, in
    /// seconds.
    #[must_use]
    pub fn utilization_series(&self) -> TimeSeries {
        let mut ts = TimeSeries::new();
        let w = self.window.as_secs_f64();
        for (widx, busy) in self.window_busy.iter().enumerate() {
            if let Some(busy) = busy {
                ts.push(widx as f64 * w, busy / w * 100.0);
            }
        }
        ts
    }

    /// Mean utilization (percent of one core) over `[from, to)`.
    #[must_use]
    pub fn mean_utilization(&self, from: SimTime, to: SimTime) -> f64 {
        let w = self.window.as_secs_f64();
        let lo = (from.as_secs_f64() / w) as usize;
        let hi = (to.as_secs_f64() / w).ceil() as usize;
        if hi <= lo {
            return 0.0;
        }
        let busy: f64 = (lo..hi)
            .map(|i| self.window_busy.get(i).copied().flatten().unwrap_or(0.0))
            .sum();
        busy / ((hi - lo) as f64 * w) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// The meter as it was when windows were keyed in a `BTreeMap`: the
    /// reference `prop_meter_matches_the_btreemap_meter` holds it to. Its
    /// loop re-derives the window from the boundary it reached, so it never
    /// ends on a window whose multiples do not divide back exactly; whole
    /// seconds do.
    struct ModelMeter {
        cores: Vec<SimTime>,
        window: Duration,
        window_busy: BTreeMap<u64, f64>,
    }

    impl ModelMeter {
        fn new(cores: usize, window: Duration) -> Self {
            Self {
                cores: vec![SimTime::ZERO; cores],
                window,
                window_busy: BTreeMap::new(),
            }
        }

        fn charge(&mut self, now: SimTime, cost: Duration) -> SimTime {
            if cost.is_zero() {
                return now;
            }
            let (idx, &free_at) = self
                .cores
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .unwrap();
            let start = free_at.max(now);
            let end = start + cost;
            self.cores[idx] = end;
            let w = self.window.as_secs_f64();
            let mut t = start.as_secs_f64();
            let end_s = end.as_secs_f64();
            while t < end_s {
                let widx = (t / w) as u64;
                let wend = (widx + 1) as f64 * w;
                let slice = end_s.min(wend) - t;
                *self.window_busy.entry(widx).or_insert(0.0) += slice;
                t = wend;
            }
            end
        }

        fn utilization_series(&self) -> Vec<(f64, f64)> {
            let w = self.window.as_secs_f64();
            let busy = self.window_busy.iter();
            busy.map(|(&widx, &busy)| (widx as f64 * w, busy / w * 100.0))
                .collect()
        }

        fn mean_utilization(&self, from: SimTime, to: SimTime) -> f64 {
            let w = self.window.as_secs_f64();
            let lo = (from.as_secs_f64() / w) as u64;
            let hi = (to.as_secs_f64() / w).ceil() as u64;
            if hi <= lo {
                return 0.0;
            }
            let busy: f64 = (lo..hi)
                .map(|i| self.window_busy.get(&i).copied().unwrap_or(0.0))
                .sum();
            busy / ((hi - lo) as f64 * w) * 100.0
        }
    }

    fn bits(points: &[(f64, f64)]) -> Vec<(u64, u64)> {
        points
            .iter()
            .map(|(t, v)| (t.to_bits(), v.to_bits()))
            .collect()
    }

    /// One charge: `idle` whole windows pass, then the charge arrives
    /// `at`‰ of a window later and costs `cost`‰ of a window — from
    /// nothing to more than two windows, so one charge can span three.
    fn charge() -> impl Strategy<Value = (u32, u32, u32)> {
        let idle = prop_oneof![6 => Just(0u32), 1 => 1u32..4];
        let cost = prop_oneof![8 => 0u32..1000, 1 => 2000u32..3000];
        (idle, 0u32..1000, cost)
    }

    proptest! {
        /// Fed the same charges, the `Vec` meter and the `BTreeMap` one
        /// return the same completion instants, a bit-identical
        /// utilization series, and a bit-identical mean utilization over
        /// ranges that start and end on window boundaries or inside
        /// windows, charged or not.
        #[test]
        fn prop_meter_matches_the_btreemap_meter(
            cores in 1usize..=3,
            window_s in 1u64..=10,
            charges in proptest::collection::vec(charge(), 0..60),
            probes in proptest::collection::vec((0u32..600, 0u32..600), 1..8),
        ) {
            let window = Duration::from_secs(window_s);
            let mut meter = CpuMeter::new(cores, window);
            let mut model = ModelMeter::new(cores, window);
            let mut now = SimTime::ZERO;
            for (idle, at, cost) in charges {
                now = now + window * idle + window * at / 1000;
                let cost = window * cost / 1000;
                prop_assert_eq!(meter.charge(now, cost), model.charge(now, cost));
            }
            let series = meter.utilization_series();
            prop_assert_eq!(bits(series.points()), bits(&model.utilization_series()));
            // Probes in tenths of a window: every tenth one is aligned.
            for (a, b) in probes {
                let at = |tenths: u32| SimTime::ZERO + window * tenths / 10;
                let (from, to) = (at(a.min(b)), at(a.max(b)));
                prop_assert_eq!(
                    meter.mean_utilization(from, to).to_bits(),
                    model.mean_utilization(from, to).to_bits()
                );
            }
        }
    }

    #[test]
    fn zero_cost_is_instant() {
        let mut m = CpuMeter::new(2, Duration::from_secs(5));
        assert_eq!(m.charge(ms(10), Duration::ZERO), ms(10));
        assert_eq!(m.total_busy(), Duration::ZERO);
    }

    #[test]
    fn idle_core_completes_after_cost() {
        let mut m = CpuMeter::new(1, Duration::from_secs(5));
        let end = m.charge(ms(100), Duration::from_millis(10));
        assert_eq!(end, ms(110));
    }

    #[test]
    fn saturated_core_queues() {
        let mut m = CpuMeter::new(1, Duration::from_secs(5));
        let a = m.charge(ms(0), Duration::from_millis(30));
        let b = m.charge(ms(0), Duration::from_millis(30));
        assert_eq!(a, ms(30));
        assert_eq!(b, ms(60), "second job waits for the first");
    }

    #[test]
    fn two_cores_run_in_parallel() {
        let mut m = CpuMeter::new(2, Duration::from_secs(5));
        let a = m.charge(ms(0), Duration::from_millis(30));
        let b = m.charge(ms(0), Duration::from_millis(30));
        let c = m.charge(ms(0), Duration::from_millis(30));
        assert_eq!(a, ms(30));
        assert_eq!(b, ms(30), "second core absorbs the second job");
        assert_eq!(c, ms(60), "third job queues behind the first");
    }

    #[test]
    fn utilization_window_accounting() {
        let mut m = CpuMeter::new(2, Duration::from_secs(5));
        // 2 seconds of busy inside window 0 (two cores, 1s each).
        m.charge(ms(0), Duration::from_secs(1));
        m.charge(ms(0), Duration::from_secs(1));
        let ts = m.utilization_series();
        assert_eq!(ts.points().len(), 1);
        let (t, pct) = ts.points()[0];
        assert_eq!(t, 0.0);
        assert!((pct - 40.0).abs() < 1e-9, "2 busy-sec / 5s = 40%: {pct}");
    }

    #[test]
    fn busy_interval_spans_windows() {
        let mut m = CpuMeter::new(1, Duration::from_secs(5));
        // 4s of work starting at t=3s: 2s in window 0, 2s in window 1.
        m.charge(SimTime::from_secs(3), Duration::from_secs(4));
        let ts = m.utilization_series();
        let pts = ts.points();
        assert_eq!(pts.len(), 2);
        assert!((pts[0].1 - 40.0).abs() < 1e-9);
        assert!((pts[1].1 - 40.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_capped_by_core_count() {
        let mut m = CpuMeter::new(2, Duration::from_secs(5));
        // Offer far more work than 2 cores can do in the first window.
        for _ in 0..100 {
            m.charge(ms(0), Duration::from_millis(500));
        }
        let ts = m.utilization_series();
        // Every window's utilization is at most 200%.
        for &(_, pct) in ts.points() {
            assert!(pct <= 200.0 + 1e-9, "window exceeded 2 cores: {pct}");
        }
        // And the first windows are fully saturated.
        assert!((ts.points()[0].1 - 200.0).abs() < 1e-9);
    }

    #[test]
    fn a_window_boundary_that_divides_back_short_still_advances() {
        // 0.003 * 49 / 0.003 < 49: re-deriving the window from the
        // boundary would re-enter window 48 with a zero slice forever.
        let mut m = CpuMeter::new(1, Duration::from_millis(3));
        assert_eq!(m.charge(ms(146), Duration::from_millis(10)), ms(156));
        let pts = m.utilization_series();
        let windows: Vec<f64> = pts.points().iter().map(|&(t, _)| t / 0.003).collect();
        assert_eq!(windows.len(), 4, "windows 48..=51: {windows:?}");
        let busy: f64 = pts
            .points()
            .iter()
            .map(|&(_, pct)| pct * 0.003 / 100.0)
            .sum();
        assert!((busy - 0.010).abs() < 1e-12, "{busy}");
    }

    #[test]
    fn mean_utilization_over_range() {
        let mut m = CpuMeter::new(1, Duration::from_secs(5));
        m.charge(ms(0), Duration::from_secs(5)); // window 0 fully busy
        assert!((m.mean_utilization(SimTime::ZERO, SimTime::from_secs(5)) - 100.0).abs() < 1e-9);
        assert!((m.mean_utilization(SimTime::ZERO, SimTime::from_secs(10)) - 50.0).abs() < 1e-9);
        assert_eq!(
            m.mean_utilization(SimTime::from_secs(5), SimTime::from_secs(5)),
            0.0
        );
    }

    #[test]
    fn default_cost_model_scale_check() {
        // Sanity-check the calibration story: 64 followers at 20ms cadence
        // (Fix-K at Et=200ms) cost the leader ~96% of one core per second.
        let c = CostModel::default();
        let msgs_per_sec = 64.0 * 50.0 * 2.0; // sends + receipts
        let busy = msgs_per_sec
            * (c.per_message_send.as_secs_f64() + c.per_message_recv.as_secs_f64())
            / 2.0;
        assert!(busy > 0.8 && busy < 1.2, "Fix-K N=65 leader busy {busy}/s");
        // And a request costs ~300µs all-in, so 4 cores peak near 13k req/s.
        // Replication is charged by payload bytes: a ~176-byte workload
        // entry serialized to 4 followers.
        let entry_bytes = 176.0;
        let per_req = c.per_request.as_secs_f64()
            + c.per_apply.as_secs_f64()
            + 4.0 * (entry_bytes / 1024.0) * c.per_append_kib.as_secs_f64();
        let peak = 4.0 / per_req;
        assert!(peak > 10_000.0 && peak < 16_000.0, "peak {peak}");
    }

    #[test]
    fn append_cost_rounds_up_per_message_and_rewards_batching() {
        let c = CostModel::default();
        assert_eq!(c.append_cost(0), Duration::ZERO, "empty append is free");
        assert_eq!(c.append_cost(1), c.per_append_kib);
        assert_eq!(c.append_cost(4096), c.per_append_kib * 4);
        // One 64-entry group commit costs far less than 64 lone appends of
        // the same payload (the per-message KiB round-up amortizes).
        assert!(c.append_cost(64 * 176) < c.append_cost(176) * 64);
    }
}
