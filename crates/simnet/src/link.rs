//! Per-link delay/loss sampling and the network fabric.
//!
//! The paper's Dynatune fork moves heartbeats to UDP while leaving the rest
//! of the Raft traffic on TCP (§III-E). The fabric therefore models two
//! channel disciplines over the same underlying path parameters:
//!
//! * [`Channel::Udp`] — packets are independently delayed (base one-way
//!   delay x lognormal jitter + congestion burst extra), independently lost
//!   and occasionally duplicated; reordering emerges naturally from
//!   independent delays.
//! * [`Channel::Tcp`] — no losses are surfaced; instead each would-be loss
//!   adds a retransmission penalty (`max(RTT, 200 ms)`, the Linux minimum
//!   RTO) to the delivery time, and deliveries are forced FIFO per directed
//!   flow, modelling head-of-line blocking.

use crate::congestion::{CongestionConfig, CongestionProcess};
use crate::rng::Rng;
use crate::schedule::LinkSchedule;
use crate::time::SimTime;
use std::sync::Arc;
use std::time::Duration;

/// Node identifier inside a simulation (dense, starting at 0).
pub type NodeId = usize;

/// Transport discipline for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Lossy, unordered, possibly-duplicating datagram channel.
    Udp,
    /// Reliable FIFO channel; loss shows up as added latency.
    Tcp,
}

/// Minimum modelled TCP retransmission timeout (Linux default floor).
pub const TCP_MIN_RTO: Duration = Duration::from_millis(200);
/// Hard floor on one-way delivery delay (serialization + kernel hop).
pub const MIN_ONE_WAY_DELAY: Duration = Duration::from_micros(20);
/// Cap on modelled consecutive TCP retransmissions per segment.
const TCP_MAX_RETRANS: u32 = 8;

/// Outcome of offering one message to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Message was dropped (UDP loss).
    Dropped,
    /// Deliver once at the given instant.
    Deliver(SimTime),
    /// Deliver twice (UDP duplication).
    DeliverDup(SimTime, SimTime),
}

/// State for one directed link.
#[derive(Debug, Clone)]
struct DirectedLink {
    schedule: Arc<LinkSchedule>,
    rng: Rng,
    /// Last TCP delivery instant on this flow, for FIFO enforcement.
    tcp_last_delivery: SimTime,
}

/// The network fabric: per-directed-link models plus per-egress congestion.
#[derive(Debug)]
pub struct Network {
    n: usize,
    links: Vec<DirectedLink>,
    congestion: Vec<CongestionProcess>,
}

impl Network {
    /// Build a fabric over `n` nodes from per-directed-link schedules.
    ///
    /// `schedule_for(from, to)` is called for every ordered pair; diagonal
    /// entries are never used. `congestion` applies per egress node.
    pub fn new(
        n: usize,
        seed_rng: &Rng,
        congestion: CongestionConfig,
        mut schedule_for: impl FnMut(NodeId, NodeId) -> Arc<LinkSchedule>,
    ) -> Self {
        let link_rng_root = seed_rng.child(0xB1A5);
        let cong_rng_root = seed_rng.child(0xC00F);
        let mut links = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                links.push(DirectedLink {
                    schedule: schedule_for(from, to),
                    rng: link_rng_root.child((from * n + to) as u64),
                    tcp_last_delivery: SimTime::ZERO,
                });
            }
        }
        let congestion = (0..n)
            .map(|node| CongestionProcess::new(congestion, cong_rng_root.child(node as u64)))
            .collect();
        Self {
            n,
            links,
            congestion,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the fabric has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn link_index(&self, from: NodeId, to: NodeId) -> usize {
        debug_assert!(
            from < self.n && to < self.n && from != to,
            "bad link {from}->{to}"
        );
        from * self.n + to
    }

    /// Offer a message to the fabric at `now`; returns delivery instants.
    pub fn send(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        channel: Channel,
    ) -> SendOutcome {
        let idx = self.link_index(from, to);
        let params = self.links[idx].schedule.params_at(now);
        let base_one_way = params.rtt / 2;
        // Congestion is sampled before borrowing the link mutably.
        let extra = self.congestion[from].extra_delay(now, params.rtt);
        let link = &mut self.links[idx];

        match channel {
            Channel::Udp => {
                if link.rng.chance(params.loss) {
                    return SendOutcome::Dropped;
                }
                let jitter = link.rng.lognormal_unit_mean(params.jitter_cv);
                let delay = scale_duration(base_one_way, jitter) + extra;
                let at = now + delay.max(MIN_ONE_WAY_DELAY);
                if link.rng.chance(params.dup) {
                    let dup_jitter = link.rng.lognormal_unit_mean(params.jitter_cv.max(0.05));
                    let dup_delay = scale_duration(base_one_way, dup_jitter) + extra;
                    let dup_at = now + dup_delay.max(MIN_ONE_WAY_DELAY);
                    SendOutcome::DeliverDup(at, dup_at)
                } else {
                    SendOutcome::Deliver(at)
                }
            }
            Channel::Tcp => {
                let jitter = link.rng.lognormal_unit_mean(params.jitter_cv);
                let mut delay = scale_duration(base_one_way, jitter) + extra;
                // Losses become retransmission latency.
                let rto = params.rtt.max(TCP_MIN_RTO);
                let mut retrans = 0;
                while retrans < TCP_MAX_RETRANS && link.rng.chance(params.loss) {
                    delay += rto;
                    retrans += 1;
                }
                let mut at = now + delay.max(MIN_ONE_WAY_DELAY);
                // FIFO per directed flow (head-of-line blocking).
                if at <= link.tcp_last_delivery {
                    at = link.tcp_last_delivery + Duration::from_nanos(1);
                }
                link.tcp_last_delivery = at;
                SendOutcome::Deliver(at)
            }
        }
    }
}

fn scale_duration(d: Duration, factor: f64) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() * factor.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NetParams;

    fn fabric(params: NetParams) -> Network {
        let schedule = Arc::new(LinkSchedule::constant(params));
        Network::new(3, &Rng::new(77), CongestionConfig::disabled(), |_, _| {
            schedule.clone()
        })
    }

    #[test]
    fn clean_udp_delivers_at_half_rtt() {
        let mut net = fabric(NetParams::clean(Duration::from_millis(100)));
        match net.send(SimTime::ZERO, 0, 1, Channel::Udp) {
            SendOutcome::Deliver(at) => assert_eq!(at, SimTime::from_millis(50)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delivery_never_before_send() {
        let mut net = fabric(NetParams::clean(Duration::ZERO).with_jitter(0.5));
        for i in 0..1000u64 {
            let now = SimTime::from_millis(i);
            match net.send(now, 0, 1, Channel::Udp) {
                SendOutcome::Deliver(at) => assert!(at > now),
                SendOutcome::DeliverDup(a, b) => {
                    assert!(a > now);
                    assert!(b > now);
                }
                SendOutcome::Dropped => {}
            }
        }
    }

    #[test]
    fn udp_loss_rate_respected() {
        let mut net = fabric(NetParams::clean(Duration::from_millis(10)).with_loss(0.3));
        let n = 20_000;
        let dropped = (0..n)
            .filter(|&i| {
                matches!(
                    net.send(SimTime::from_millis(i), 0, 1, Channel::Udp),
                    SendOutcome::Dropped
                )
            })
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn udp_duplication() {
        let mut net = fabric(NetParams::clean(Duration::from_millis(10)).with_dup(0.5));
        let n = 2000;
        let dups = (0..n)
            .filter(|&i| {
                matches!(
                    net.send(SimTime::from_millis(i), 0, 1, Channel::Udp),
                    SendOutcome::DeliverDup(..)
                )
            })
            .count();
        assert!(dups > (n / 3) as usize, "dups {dups}");
        assert!(dups < (2 * n / 3) as usize, "dups {dups}");
    }

    #[test]
    fn tcp_never_drops_and_is_fifo() {
        let mut net = fabric(
            NetParams::clean(Duration::from_millis(50))
                .with_loss(0.4)
                .with_jitter(0.4),
        );
        let mut last = SimTime::ZERO;
        for i in 0..5000u64 {
            match net.send(SimTime::from_micros(i * 100), 0, 1, Channel::Tcp) {
                SendOutcome::Deliver(at) => {
                    assert!(at > last, "TCP must deliver in order");
                    last = at;
                }
                other => panic!("TCP produced {other:?}"),
            }
        }
    }

    #[test]
    fn tcp_loss_inflates_latency() {
        let clean = {
            let mut net = fabric(NetParams::clean(Duration::from_millis(50)));
            let mut total = Duration::ZERO;
            for i in 0..2000u64 {
                let now = SimTime::from_millis(i * 10);
                if let SendOutcome::Deliver(at) = net.send(now, 0, 1, Channel::Tcp) {
                    total += at - now;
                }
            }
            total
        };
        let lossy = {
            let mut net = fabric(NetParams::clean(Duration::from_millis(50)).with_loss(0.2));
            let mut total = Duration::ZERO;
            for i in 0..2000u64 {
                let now = SimTime::from_millis(i * 10);
                if let SendOutcome::Deliver(at) = net.send(now, 0, 1, Channel::Tcp) {
                    total += at - now;
                }
            }
            total
        };
        assert!(
            lossy > clean * 15 / 10,
            "lossy {lossy:?} vs clean {clean:?}"
        );
    }

    #[test]
    fn independent_links_have_independent_randomness() {
        let mut net = fabric(NetParams::clean(Duration::from_millis(100)).with_jitter(0.3));
        let a = match net.send(SimTime::ZERO, 0, 1, Channel::Udp) {
            SendOutcome::Deliver(at) => at,
            _ => unreachable!(),
        };
        let b = match net.send(SimTime::ZERO, 0, 2, Channel::Udp) {
            SendOutcome::Deliver(at) => at,
            _ => unreachable!(),
        };
        assert_ne!(a, b, "two links should sample different jitter");
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed: u64| {
            let schedule = Arc::new(LinkSchedule::constant(
                NetParams::clean(Duration::from_millis(30))
                    .with_jitter(0.2)
                    .with_loss(0.1),
            ));
            let mut net = Network::new(
                2,
                &Rng::new(seed),
                CongestionConfig::wan_default(),
                |_, _| schedule.clone(),
            );
            (0..500u64)
                .map(|i| net.send(SimTime::from_millis(i), 0, 1, Channel::Udp))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
