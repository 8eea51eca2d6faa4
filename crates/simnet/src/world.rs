//! The discrete-event kernel: hosts, event queue, delivery, pause/resume.
//!
//! A [`World`] owns a set of [`Host`]s (protocol endpoints — Raft servers,
//! clients, ...) plus the [`Network`] fabric. Hosts are pure reactors: they
//! receive messages and wake-ups, and emit messages plus a "next wake-up"
//! deadline. The kernel guarantees:
//!
//! * events are processed in non-decreasing time order, ties broken by
//!   sequence number (deterministic). Messages and controls take theirs when
//!   they are scheduled. A host has at most one live wake-up, and it takes
//!   its number at its *last reschedule* — after every dispatch to the host
//!   and on every [`World::reschedule_wake`] — so a wake-up sorts behind
//!   every same-instant event scheduled before that reschedule and ahead of
//!   every one scheduled after it. A wake-up due in the past fires at `now`;
//! * a paused host (the paper's `docker pause` failure mode) processes
//!   nothing: its live wake-up is dropped (resume reschedules it with a fresh
//!   sequence number); inbound messages are buffered up to a cap and
//!   replayed on resume, mimicking kernel socket buffers on a frozen
//!   container;
//! * every mutation is driven by the queue, so equal seeds produce equal
//!   traces.
//!
//! The queue is three flat structures: a binary heap of 24-byte
//! `(at, seq, slot)` keys for messages and controls, a slab holding each
//! such event from `push` until it is popped, and one `(at, seq)` wake-up
//! per host in a table, so rescheduling a wake-up overwrites the old one
//! instead of leaving it in the heap. The table is scanned once per event:
//! O(hosts), where the heap it replaced was O(log queue). The registered
//! scenarios build worlds of up to 65 hosts (`fig7` runs 65 servers); timed
//! on `fig7`'s measurement the scan beat the single heap at 17, 65, 129 and
//! 257 servers, by a margin that narrows (CHANGES.md, PR 19), so a world of
//! many hundreds of hosts would want the minimum kept incrementally.

use crate::link::{Channel, Network, NodeId, SendOutcome};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A protocol endpoint living inside the simulation.
pub trait Host {
    /// Message type exchanged between hosts.
    type Msg: Clone;

    /// Deliver a message from `from`.
    fn on_message(&mut self, ctx: &mut HostCtx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// The host's requested wake-up deadline has arrived.
    fn on_wake(&mut self, ctx: &mut HostCtx<'_, Self::Msg>);

    /// Earliest instant at which the host wants `on_wake` called, if any.
    /// Re-queried after every dispatch to this host.
    fn next_wake(&self) -> Option<SimTime>;
}

/// Dispatch context handed to hosts: the clock and an outbox.
pub struct HostCtx<'a, M> {
    /// Current simulated time.
    pub now: SimTime,
    /// The host's own node id.
    pub node: NodeId,
    outbox: &'a mut Vec<(NodeId, Channel, M)>,
}

impl<'a, M> HostCtx<'a, M> {
    /// Queue a message for transmission over the given channel.
    pub fn send(&mut self, to: NodeId, channel: Channel, msg: M) {
        self.outbox.push((to, channel, msg));
    }

    /// Build a detached context for unit-testing hosts outside a [`World`].
    /// Messages accumulate in `outbox` instead of entering a network.
    pub fn test_ctx(now: SimTime, node: NodeId, outbox: &'a mut Vec<(NodeId, Channel, M)>) -> Self {
        Self { now, node, outbox }
    }
}

/// Fabric-level counters, exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Messages offered to the fabric.
    pub sent: u64,
    /// Messages delivered to a host.
    pub delivered: u64,
    /// UDP messages dropped by link loss.
    pub dropped_loss: u64,
    /// Extra deliveries due to UDP duplication.
    pub duplicated: u64,
    /// Messages discarded because the destination's pause buffer was full.
    pub dropped_paused: u64,
    /// Messages discarded because a network partition separated the
    /// endpoints.
    pub dropped_partitioned: u64,
}

enum Event<H: Host> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: H::Msg,
    },
    Control(ControlFn<H>),
}

struct HostSlot<H: Host> {
    host: H,
    paused: bool,
    pause_buffer: VecDeque<(NodeId, H::Msg)>,
}

/// Maximum messages buffered for a paused host before drops begin.
pub const PAUSE_BUFFER_CAP: usize = 256;

/// Partition side marker for nodes exempted from the cut (they bridge all
/// sides). See [`World::exempt_from_partition`].
const PARTITION_BRIDGE: u32 = u32::MAX;

type ControlFn<H> = Box<dyn FnOnce(&mut World<H>)>;

/// "No live wake-up" in [`World::wakes`]; sorts after every real `(at, seq)`
/// because no event is ever given sequence number `u64::MAX`.
const NO_WAKE: (SimTime, u64) = (SimTime::MAX, u64::MAX);

/// The simulation world: hosts + network + event queue.
pub struct World<H: Host> {
    now: SimTime,
    seq: u64,
    /// `(at, seq, slot)` of every pending message and control, earliest first.
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Slab the heap's `slot`s index: written at `push`, taken at pop.
    events: Vec<Option<Event<H>>>,
    free_slots: Vec<usize>,
    hosts: Vec<HostSlot<H>>,
    /// The live wake-up of each host as `(at, seq)`, or [`NO_WAKE`].
    wakes: Vec<(SimTime, u64)>,
    net: Network,
    counters: NetCounters,
    outbox_scratch: Vec<(NodeId, Channel, H::Msg)>,
    /// Partition group per node; messages only flow within a group.
    partition: Vec<u32>,
}

impl<H: Host> World<H> {
    /// Create a world; initial wake-ups are scheduled from each host's
    /// `next_wake`.
    pub fn new(hosts: Vec<H>, net: Network) -> Self {
        assert_eq!(hosts.len(), net.len(), "host count must match fabric size");
        let n = hosts.len();
        let mut world = Self {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            events: Vec::new(),
            free_slots: Vec::new(),
            hosts: hosts
                .into_iter()
                .map(|host| HostSlot {
                    host,
                    paused: false,
                    pause_buffer: VecDeque::new(),
                })
                .collect(),
            wakes: vec![NO_WAKE; n],
            net,
            counters: NetCounters::default(),
            outbox_scratch: Vec::new(),
            partition: vec![0; n],
        };
        for node in 0..world.hosts.len() {
            world.reschedule_wake(node);
        }
        world
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of hosts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when the world has no hosts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Fabric counters so far.
    #[must_use]
    pub fn counters(&self) -> NetCounters {
        self.counters
    }

    /// Immutable access to a host (observers).
    #[must_use]
    pub fn host(&self, node: NodeId) -> &H {
        &self.hosts[node].host
    }

    /// Mutable access to a host. Call [`World::reschedule_wake`] afterwards
    /// if the mutation may have changed the host's wake deadline.
    pub fn host_mut(&mut self, node: NodeId) -> &mut H {
        &mut self.hosts[node].host
    }

    /// Whether a host is currently paused.
    #[must_use]
    pub fn is_paused(&self, node: NodeId) -> bool {
        self.hosts[node].paused
    }

    /// Network fabric (for parameter lookups in observers).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.net
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn push(&mut self, at: SimTime, event: Event<H>) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.next_seq();
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.events[slot] = Some(event);
                slot
            }
            None => {
                self.events.push(Some(event));
                self.events.len() - 1
            }
        };
        self.queue.push(Reverse((at, seq, slot)));
    }

    /// Schedule a control action (failure injection, parameter change,
    /// measurements) at an absolute time.
    pub fn schedule_control(&mut self, at: SimTime, f: impl FnOnce(&mut World<H>) + 'static) {
        self.push(at, Event::Control(Box::new(f)));
    }

    /// Refresh the pending wake-up for `node` from its `next_wake`.
    pub fn reschedule_wake(&mut self, node: NodeId) {
        let slot = &self.hosts[node];
        let at = if slot.paused {
            None
        } else {
            slot.host.next_wake()
        };
        self.wakes[node] = match at {
            Some(at) => (at.max(self.now), self.next_seq()),
            None => NO_WAKE,
        };
    }

    /// Pause a host (the paper's leader-sleep failure). Inbound messages are
    /// buffered (bounded) and replayed on resume.
    pub fn pause(&mut self, node: NodeId) {
        self.hosts[node].paused = true;
        self.wakes[node] = NO_WAKE;
    }

    /// Resume a paused host, replaying its buffered inbound messages in
    /// arrival order at the current instant.
    pub fn resume(&mut self, node: NodeId) {
        let slot = &mut self.hosts[node];
        if !slot.paused {
            return;
        }
        slot.paused = false;
        for (from, msg) in std::mem::take(&mut slot.pause_buffer) {
            let to = node;
            self.push(self.now, Event::Deliver { from, to, msg });
        }
        self.reschedule_wake(node);
    }

    /// Drop everything buffered for a node (used when modelling a crash
    /// rather than a sleep).
    pub fn clear_pause_buffer(&mut self, node: NodeId) {
        self.hosts[node].pause_buffer.clear();
    }

    /// Inject a message from the outside world (e.g. an un-modelled client)
    /// for delivery at the current instant.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: H::Msg) {
        self.push(self.now, Event::Deliver { from, to, msg });
    }

    /// Partition the network: nodes in `group` can only talk to each other,
    /// everyone else only among themselves. Messages already in flight
    /// still arrive (they left before the cut).
    pub fn partition(&mut self, group: &[NodeId]) {
        for p in self.partition.iter_mut() {
            *p = 0;
        }
        for &n in group {
            self.partition[n] = 1;
        }
    }

    /// Heal all partitions.
    pub fn heal_partition(&mut self) {
        for p in self.partition.iter_mut() {
            *p = 0;
        }
    }

    /// Exempt a node from the current partition: it keeps exchanging
    /// messages with *every* side (a client that still reaches a
    /// minority-partitioned server, an out-of-band control plane).
    /// Cleared by the next [`World::partition`] / [`World::heal_partition`].
    pub fn exempt_from_partition(&mut self, node: NodeId) {
        self.partition[node] = PARTITION_BRIDGE;
    }

    fn dispatch_to_host(&mut self, node: NodeId, incoming: Option<(NodeId, H::Msg)>) {
        debug_assert!(self.outbox_scratch.is_empty());
        let mut outbox = std::mem::take(&mut self.outbox_scratch);
        {
            let slot = &mut self.hosts[node];
            let mut ctx = HostCtx {
                now: self.now,
                node,
                outbox: &mut outbox,
            };
            match incoming {
                Some((from, msg)) => slot.host.on_message(&mut ctx, from, msg),
                None => slot.host.on_wake(&mut ctx),
            }
        }
        // Route the outbox through the fabric.
        for (to, channel, msg) in outbox.drain(..) {
            self.route(node, to, channel, msg);
        }
        self.outbox_scratch = outbox;
        self.reschedule_wake(node);
    }

    fn route(&mut self, from: NodeId, to: NodeId, channel: Channel, msg: H::Msg) {
        self.counters.sent += 1;
        if from == to {
            // Loopback: deliver immediately.
            self.push(self.now, Event::Deliver { from, to, msg });
            return;
        }
        let (pf, pt) = (self.partition[from], self.partition[to]);
        if pf != pt && pf != PARTITION_BRIDGE && pt != PARTITION_BRIDGE {
            self.counters.dropped_partitioned += 1;
            return;
        }
        match self.net.send(self.now, from, to, channel) {
            SendOutcome::Dropped => self.counters.dropped_loss += 1,
            SendOutcome::Deliver(at) => self.push(at, Event::Deliver { from, to, msg }),
            SendOutcome::DeliverDup(a, b) => {
                self.counters.duplicated += 1;
                self.push(
                    a,
                    Event::Deliver {
                        from,
                        to,
                        msg: msg.clone(),
                    },
                );
                self.push(b, Event::Deliver { from, to, msg });
            }
        }
    }

    /// Process a single event. Returns false, leaving the clock where it is,
    /// when no message, control or live wake-up is pending. A superseded
    /// wake-up is not an event: it was overwritten, so no step is spent on it.
    pub fn step(&mut self) -> bool {
        self.step_within(SimTime::MAX)
    }

    /// Process the earliest pending event — the heap head or the earliest
    /// live wake-up, whichever has the smaller `(at, seq)` — unless it is due
    /// after `deadline`. Returns false when nothing was processed.
    fn step_within(&mut self, deadline: SimTime) -> bool {
        let (mut wake, mut wake_node) = (NO_WAKE, 0);
        for (node, &w) in self.wakes.iter().enumerate() {
            if w < wake {
                (wake, wake_node) = (w, node);
            }
        }
        let head = match self.queue.peek() {
            Some(&Reverse((at, seq, _))) => (at, seq),
            None => NO_WAKE,
        };
        let next = wake.min(head);
        let (at, _) = next;
        if next == NO_WAKE || at > deadline {
            // Nothing pending, or nothing due yet.
            return false;
        }
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        if wake < head {
            self.wakes[wake_node] = NO_WAKE;
            self.dispatch_to_host(wake_node, None);
            return true;
        }
        let event = self.queue.pop().and_then(|Reverse((_, _, slot))| {
            self.free_slots.push(slot);
            self.events[slot].take()
        });
        match event {
            Some(Event::Deliver { from, to, msg }) => {
                let slot = &mut self.hosts[to];
                if slot.paused {
                    if slot.pause_buffer.len() < PAUSE_BUFFER_CAP {
                        slot.pause_buffer.push_back((from, msg));
                    } else {
                        self.counters.dropped_paused += 1;
                    }
                } else {
                    self.counters.delivered += 1;
                    self.dispatch_to_host(to, Some((from, msg)));
                }
            }
            Some(Event::Control(f)) => f(self),
            None => debug_assert!(false, "the heap head has no event in the slab"),
        }
        true
    }

    /// `(heap length, slab length, live wake-ups)` for the bounded-queue tests.
    #[cfg(test)]
    fn queue_footprint(&self) -> (usize, usize, usize) {
        let live_wakes = self.wakes.iter().filter(|&&w| w != NO_WAKE).count();
        (self.queue.len(), self.events.len(), live_wakes)
    }

    /// Run until the queue is empty or simulated time reaches `deadline`.
    /// On return, `now() == deadline` unless the queue emptied earlier.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.step_within(deadline) {}
        if self.now < deadline {
            self.now = deadline;
        }
    }
}

#[cfg(test)]
mod equivalence;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionConfig;
    use crate::params::NetParams;
    use crate::rng::Rng;
    use crate::schedule::LinkSchedule;
    use crate::topology::Topology;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;
    use std::time::Duration;

    /// Toy host: pings its peer every interval, counts receipts, echoes.
    struct Pinger {
        peer: NodeId,
        interval: Duration,
        next: SimTime,
        sent: u64,
        received: Vec<(SimTime, String)>,
        echo: bool,
    }

    impl Host for Pinger {
        type Msg = String;

        fn on_message(&mut self, ctx: &mut HostCtx<'_, String>, from: NodeId, msg: String) {
            self.received.push((ctx.now, msg.clone()));
            if self.echo {
                ctx.send(from, Channel::Udp, format!("echo:{msg}"));
            }
        }

        fn on_wake(&mut self, ctx: &mut HostCtx<'_, String>) {
            if self.interval > Duration::ZERO {
                ctx.send(self.peer, Channel::Udp, format!("ping{}", self.sent));
                self.sent += 1;
                self.next = ctx.now + self.interval;
            }
        }

        fn next_wake(&self) -> Option<SimTime> {
            (self.interval > Duration::ZERO).then_some(self.next)
        }
    }

    fn make_world(params: NetParams) -> World<Pinger> {
        let topo = Topology::uniform_constant(2, params);
        let net = Network::new(2, &Rng::new(1), CongestionConfig::disabled(), |f, t| {
            topo.schedule(f, t)
        });
        let sender = Pinger {
            peer: 1,
            interval: Duration::from_millis(10),
            next: SimTime::ZERO,
            sent: 0,
            received: Vec::new(),
            echo: false,
        };
        let receiver = Pinger {
            peer: 0,
            interval: Duration::ZERO,
            next: SimTime::MAX,
            sent: 0,
            received: Vec::new(),
            echo: true,
        };
        World::new(vec![sender, receiver], net)
    }

    #[test]
    fn pings_flow_and_echo() {
        let mut w = make_world(NetParams::clean(Duration::from_millis(10)));
        w.run_until(SimTime::from_millis(100));
        // Sender wakes at 0,10,...,100 (9 pings land by 100ms given 5ms delay).
        let received = &w.host(1).received;
        assert!(received.len() >= 9, "receiver got {}", received.len());
        // First ping sent at t=0 arrives at one-way delay 5ms.
        assert_eq!(received[0].0, SimTime::from_millis(5));
        // Echoes arrive back at the sender.
        assert!(!w.host(0).received.is_empty());
        assert!(w.host(0).received[0].1.starts_with("echo:ping"));
        assert_eq!(w.now(), SimTime::from_millis(100));
    }

    #[test]
    fn run_until_is_resumable() {
        let mut w = make_world(NetParams::clean(Duration::from_millis(10)));
        w.run_until(SimTime::from_millis(50));
        let mid = w.host(1).received.len();
        w.run_until(SimTime::from_millis(100));
        assert!(w.host(1).received.len() > mid);
    }

    #[test]
    fn paused_host_buffers_and_replays() {
        let mut w = make_world(NetParams::clean(Duration::from_millis(10)));
        w.schedule_control(SimTime::from_millis(20), |w| w.pause(1));
        w.schedule_control(SimTime::from_millis(60), |w| w.resume(1));
        w.run_until(SimTime::from_millis(100));
        let received = &w.host(1).received;
        // Pings sent while paused should be delivered exactly at resume time.
        let during_pause: Vec<_> = received
            .iter()
            .filter(|(t, _)| *t > SimTime::from_millis(20) && *t < SimTime::from_millis(60))
            .collect();
        assert!(
            during_pause.is_empty(),
            "paused host processed {during_pause:?}"
        );
        let at_resume = received
            .iter()
            .filter(|(t, _)| *t == SimTime::from_millis(60))
            .count();
        assert!(
            at_resume >= 3,
            "expected buffered replay at resume, got {at_resume}"
        );
    }

    #[test]
    fn pause_buffer_is_bounded() {
        let mut w = make_world(NetParams::clean(Duration::from_millis(1)));
        w.schedule_control(SimTime::from_millis(1), |w| w.pause(1));
        // 10ms interval pings for 100 simulated seconds = ~10_000 messages.
        w.run_until(SimTime::from_secs(100));
        assert!(w.counters().dropped_paused > 0, "cap should have engaged");
        w.resume(1);
        w.run_until(SimTime::from_secs(101));
        // The replayed batch (delivered exactly at the resume instant) is
        // bounded by the cap; live pings arrive strictly later.
        let replayed = w
            .host(1)
            .received
            .iter()
            .filter(|(t, _)| *t == SimTime::from_secs(100))
            .count();
        assert_eq!(replayed, PAUSE_BUFFER_CAP);
    }

    #[test]
    fn control_events_fire_in_order() {
        let mut w = make_world(NetParams::clean(Duration::from_millis(10)));
        // Interleave controls scheduled out of order.
        w.schedule_control(SimTime::from_millis(30), |w| {
            let now = w.now();
            w.host_mut(0).received.push((now, "ctl-b".into()));
        });
        w.schedule_control(SimTime::from_millis(10), |w| {
            let now = w.now();
            w.host_mut(0).received.push((now, "ctl-a".into()));
        });
        w.run_until(SimTime::from_millis(50));
        let tags: Vec<&str> = w
            .host(0)
            .received
            .iter()
            .filter(|(_, m)| m.starts_with("ctl"))
            .map(|(_, m)| m.as_str())
            .collect();
        assert_eq!(tags, vec!["ctl-a", "ctl-b"]);
    }

    #[test]
    fn loopback_delivers_immediately() {
        let topo = Topology::uniform_constant(1, NetParams::clean(Duration::from_millis(10)));
        let net = Network::new(1, &Rng::new(1), CongestionConfig::disabled(), |f, t| {
            topo.schedule(f, t)
        });
        let host = Pinger {
            peer: 0,
            interval: Duration::from_millis(10),
            next: SimTime::ZERO,
            sent: 0,
            received: Vec::new(),
            echo: false,
        };
        let mut w = World::new(vec![host], net);
        w.run_until(SimTime::from_millis(25));
        // Self-pings at 0,10,20 delivered at same instants.
        assert_eq!(w.host(0).received.len(), 3);
        assert_eq!(w.host(0).received[0].0, SimTime::ZERO);
    }

    #[test]
    fn deterministic_trace_for_equal_seeds() {
        let run = |seed: u64| {
            let schedule = Arc::new(LinkSchedule::constant(
                NetParams::clean(Duration::from_millis(20))
                    .with_jitter(0.3)
                    .with_loss(0.05),
            ));
            let net = Network::new(
                2,
                &Rng::new(seed),
                CongestionConfig::wan_default(),
                |_, _| schedule.clone(),
            );
            let sender = Pinger {
                peer: 1,
                interval: Duration::from_millis(7),
                next: SimTime::ZERO,
                sent: 0,
                received: Vec::new(),
                echo: true,
            };
            let receiver = Pinger {
                peer: 0,
                interval: Duration::ZERO,
                next: SimTime::MAX,
                sent: 0,
                received: Vec::new(),
                echo: true,
            };
            let mut w = World::new(vec![sender, receiver], net);
            w.run_until(SimTime::from_secs(10));
            (
                w.host(0).received.clone(),
                w.host(1).received.clone(),
                w.counters(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).2, run(43).2);
    }

    /// Toy host for the queue and control tests: never sends, wakes once at
    /// `wake`, and logs what it saw into the `log` it shares with the test.
    struct Sink {
        wake: Option<SimTime>,
        log: Log,
    }

    type Log = Rc<RefCell<Vec<(SimTime, String)>>>;

    impl Host for Sink {
        type Msg = u32;

        fn on_message(&mut self, ctx: &mut HostCtx<'_, u32>, _from: NodeId, msg: u32) {
            self.log.borrow_mut().push((ctx.now, format!("msg{msg}")));
        }

        fn on_wake(&mut self, ctx: &mut HostCtx<'_, u32>) {
            self.wake = None;
            self.log
                .borrow_mut()
                .push((ctx.now, format!("wake{}", ctx.node)));
        }

        fn next_wake(&self) -> Option<SimTime> {
            self.wake
        }
    }

    /// A world of `Sink`s with these first wake-ups, and their shared log.
    fn sinks(wakes: &[Option<SimTime>]) -> (World<Sink>, Log) {
        let n = wakes.len();
        let topo = Topology::uniform_constant(n, NetParams::clean(Duration::from_millis(10)));
        let net = Network::new(n, &Rng::new(1), CongestionConfig::disabled(), |f, t| {
            topo.schedule(f, t)
        });
        let log = Log::default();
        let hosts = wakes
            .iter()
            .map(|&wake| Sink {
                wake,
                log: log.clone(),
            })
            .collect();
        (World::new(hosts, net), log)
    }

    fn tags(log: &Log) -> Vec<(u64, String)> {
        let log = log.borrow();
        log.iter()
            .map(|(t, tag)| (t.as_nanos() / 1_000_000, tag.clone()))
            .collect()
    }

    fn move_wake(w: &mut World<Sink>, node: NodeId, to_ms: u64) {
        w.host_mut(node).wake = Some(SimTime::from_millis(to_ms));
        w.reschedule_wake(node);
    }

    fn note(w: &mut World<Sink>, tag: &str) {
        let now = w.now();
        w.host(0).log.borrow_mut().push((now, tag.into()));
    }

    #[test]
    fn deliveries_leave_no_dead_wakes_in_the_heap() {
        // The receiver's wake-up is an hour away, so every delivery
        // reschedules it unchanged. The single-heap kernel kept one dead
        // wake per delivery queued until that hour came.
        let (mut w, log) = sinks(&[None, Some(SimTime::from_secs(3600))]);
        for i in 0..10_000u32 {
            w.inject(0, 1, i);
            if i % 4 == 3 {
                // Four in flight at most.
                assert_eq!(w.queue_footprint(), (4, 4, 1));
                w.run_until(SimTime::from_micros(u64::from(i)));
            }
        }
        assert_eq!(log.borrow().len(), 10_000);
        assert_eq!(w.counters().delivered, 10_000);
        assert_eq!(w.queue_footprint(), (0, 4, 1));
        w.run_until(SimTime::from_secs(3600));
        assert_eq!(log.borrow().last().unwrap().1, "wake1");
        assert_eq!(w.queue_footprint(), (0, 4, 0));
    }

    #[test]
    fn slab_slots_are_reused_up_to_the_peak_of_pending_events() {
        let (mut w, log) = sinks(&[None]);
        for (round, burst) in [3u32, 7, 5, 7, 1].into_iter().enumerate() {
            for i in 0..burst {
                w.inject(0, 0, i);
            }
            // One control per round too: it owns its closure in the slab
            // and leaves nothing behind once it has run.
            w.schedule_control(w.now(), |w| note(w, "ctl"));
            let (heap, slab, _) = w.queue_footprint();
            assert_eq!(heap, burst as usize + 1);
            assert_eq!(slab, if round == 0 { 4 } else { 8 }, "round {round}");
            w.run_until(SimTime::from_millis(round as u64 + 1));
            assert_eq!(w.queue_footprint(), (0, slab, 0));
        }
        assert_eq!(log.borrow().len(), 3 + 7 + 5 + 7 + 1 + 5);
    }

    #[test]
    fn step_returns_false_once_nothing_is_pending() {
        let (mut w, log) = sinks(&[None, None]);
        assert!(!w.step(), "no wake-up, empty heap");
        assert_eq!(w.now(), SimTime::ZERO);
        w.inject(0, 1, 7);
        move_wake(&mut w, 0, 2);
        assert!(w.step() && w.step());
        assert!(!w.step());
        assert_eq!(w.now(), SimTime::from_millis(2), "the clock stays put");
        assert_eq!(tags(&log), [(0, "msg7".into()), (2, "wake0".into())]);
    }

    #[test]
    fn a_paused_hosts_wake_neither_fires_nor_holds_the_clock_back() {
        let (mut w, log) = sinks(&[Some(SimTime::from_millis(10)), None]);
        w.pause(0);
        assert_eq!(w.queue_footprint(), (0, 0, 0), "pause drops the wake-up");
        w.reschedule_wake(0);
        assert_eq!(
            w.queue_footprint(),
            (0, 0, 0),
            "and a reschedule cannot revive it"
        );
        w.run_until(SimTime::from_millis(50));
        assert_eq!(w.now(), SimTime::from_millis(50));
        assert!(log.borrow().is_empty());
        // Resume reschedules it; long overdue, it fires at the resume instant.
        w.resume(0);
        w.run_until(SimTime::from_millis(60));
        assert_eq!(tags(&log), [(50, "wake0".into())]);
    }

    #[test]
    fn same_instant_controls_run_in_scheduling_order() {
        let (mut w, log) = sinks(&[None]);
        let at = SimTime::from_millis(5);
        w.schedule_control(at, |w| note(w, "first"));
        w.schedule_control(SimTime::from_millis(9), |w| note(w, "later"));
        w.schedule_control(at, |w| note(w, "second"));
        w.inject(0, 0, 1);
        w.schedule_control(at, |w| note(w, "third"));
        w.run_until(SimTime::from_millis(10));
        let order: Vec<String> = tags(&log).into_iter().map(|(_, tag)| tag).collect();
        assert_eq!(order, ["msg1", "first", "second", "third", "later"]);
    }

    #[test]
    fn a_control_can_schedule_further_controls() {
        let (mut w, log) = sinks(&[None]);
        let at = SimTime::from_millis(5);
        w.schedule_control(at, move |w| {
            note(w, "parent");
            // At its own instant: behind what was already scheduled there.
            // The parent's slab slot is free by now and is reused.
            w.schedule_control(at, |w| {
                note(w, "child");
                w.schedule_control(w.now(), |w| note(w, "grandchild"));
            });
            w.schedule_control(SimTime::from_millis(8), |w| note(w, "child-later"));
        });
        w.schedule_control(at, |w| note(w, "sibling"));
        w.run_until(SimTime::from_millis(10));
        assert_eq!(
            tags(&log),
            [
                (5, "parent".into()),
                (5, "sibling".into()),
                (5, "child".into()),
                (5, "grandchild".into()),
                (8, "child-later".into()),
            ]
        );
        assert_eq!(w.queue_footprint(), (0, 3, 0));
    }

    #[test]
    fn a_control_may_pause_resume_or_reschedule_the_host_with_the_earliest_wake() {
        let at = SimTime::from_millis;
        // Host 0 holds the minimum wake-up (10 ms) throughout.
        let (mut w, log) = sinks(&[Some(at(10)), Some(at(40)), Some(at(45))]);
        // Pause it before the wake-up is due, resume it after: it fires at
        // the resume instant, behind the control that resumed it.
        w.schedule_control(at(5), |w| w.pause(0));
        w.schedule_control(at(20), |w| {
            w.resume(0);
            note(w, "resumed");
        });
        // Pause and resume within one instant: the wake-up survives with a
        // fresh sequence number, so it sorts behind this instant's message.
        w.schedule_control(at(21), |w| move_wake(w, 0, 30));
        w.schedule_control(at(30), |w| {
            w.inject(1, 0, 30);
            w.pause(0);
            w.resume(0);
        });
        // Set it, move it later, then earlier: only the last one fires.
        // Then into the past: it fires at once, behind the control.
        w.schedule_control(at(31), |w| move_wake(w, 0, 35));
        w.schedule_control(at(32), |w| {
            move_wake(w, 0, 38);
            move_wake(w, 0, 33);
        });
        w.schedule_control(at(34), |w| {
            move_wake(w, 0, 1);
            note(w, "moved-to-the-past");
        });
        w.run_until(at(50));
        assert_eq!(
            tags(&log),
            [
                (20, "resumed".into()),
                (20, "wake0".into()),
                (30, "msg30".into()),
                (30, "wake0".into()),
                (33, "wake0".into()),
                (34, "moved-to-the-past".into()),
                (34, "wake0".into()),
                (40, "wake1".into()),
                (45, "wake2".into()),
            ]
        );
    }
}
