//! The kernel as it was before wake-ups and messages left the heap: one
//! `BinaryHeap` of whole events, a fresh `Wake` pushed at every reschedule,
//! superseded ones discarded by generation when popped. Kept verbatim (minus
//! the accessors nothing here reads, and the control events the live kernel
//! dropped too) as the reference the property test in `equivalence.rs`
//! holds the live [`super::World`] to.

use super::{Host, HostCtx, NetCounters, PARTITION_BRIDGE, PAUSE_BUFFER_CAP};
use crate::link::{Channel, Network, NodeId, SendOutcome};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

enum Event<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Wake { node: NodeId, generation: u64 },
}

struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    event: Event<M>,
}

// Ordering for the min-heap: earliest time first, then insertion order.
impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct HostSlot<H: Host> {
    host: H,
    paused: bool,
    wake_generation: u64,
    pause_buffer: VecDeque<(NodeId, H::Msg)>,
}

/// The simulation world: hosts + network + event queue.
pub struct World<H: Host> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled<H::Msg>>>,
    hosts: Vec<HostSlot<H>>,
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
            hosts: hosts
                .into_iter()
                .map(|host| HostSlot {
                    host,
                    paused: false,
                    wake_generation: 0,
                    pause_buffer: VecDeque::new(),
                })
                .collect(),
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

    /// Fabric counters so far.
    #[must_use]
    pub fn counters(&self) -> NetCounters {
        self.counters
    }

    /// Mutable access to a host. Call [`World::reschedule_wake`] afterwards
    /// if the mutation may have changed the host's wake deadline.
    pub fn host_mut(&mut self, node: NodeId) -> &mut H {
        &mut self.hosts[node].host
    }

    fn push(&mut self, at: SimTime, event: Event<H::Msg>) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Refresh the pending wake-up for `node` from its `next_wake`.
    pub fn reschedule_wake(&mut self, node: NodeId) {
        let slot = &mut self.hosts[node];
        slot.wake_generation += 1;
        if slot.paused {
            return;
        }
        if let Some(at) = slot.host.next_wake() {
            let generation = slot.wake_generation;
            let at = at.max(self.now);
            self.push(at, Event::Wake { node, generation });
        }
    }

    /// Pause a host (the paper's leader-sleep failure). Inbound messages are
    /// buffered (bounded) and replayed on resume.
    pub fn pause(&mut self, node: NodeId) {
        let slot = &mut self.hosts[node];
        slot.paused = true;
        slot.wake_generation += 1; // invalidate pending wake
    }

    /// Resume a paused host, replaying its buffered inbound messages in
    /// arrival order at the current instant.
    pub fn resume(&mut self, node: NodeId) {
        let slot = &mut self.hosts[node];
        if !slot.paused {
            return;
        }
        slot.paused = false;
        let buffered: Vec<(NodeId, H::Msg)> = slot.pause_buffer.drain(..).collect();
        for (from, msg) in buffered {
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

    /// Process a single event. Returns false when the queue is exhausted.
    fn step(&mut self) -> bool {
        let Some(Reverse(scheduled)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(scheduled.at >= self.now, "time went backwards");
        self.now = scheduled.at;
        match scheduled.event {
            Event::Deliver { from, to, msg } => {
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
            Event::Wake { node, generation } => {
                let slot = &self.hosts[node];
                if !slot.paused && slot.wake_generation == generation {
                    self.counters.wakes += 1;
                    self.dispatch_to_host(node, None);
                }
            }
        }
        true
    }

    /// Dispatch every event due at or before `deadline`, in order, then move
    /// the clock to `deadline`: it gets there even when nothing is pending
    /// (a deadline already past leaves the clock where it is).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }
}
