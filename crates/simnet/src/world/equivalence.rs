//! The live kernel dispatches in exactly the order of the single-heap
//! [`reference`] kernel it replaced.
//!
//! Both kernels host the same scripted hosts on equally seeded fabrics and
//! take the same calls between `run_until` slices; the full dispatch trace
//! and the fabric counters must agree. The scenarios sit on an
//! integer-millisecond grid (zero-jitter links, whole-millisecond delays,
//! wake-ups and slice ends), so messages land on the very nanosecond of a
//! wake-up or a resume, and only the sequence numbers decide the order —
//! the ties every `REPORT_PINS` hash depends on.
//! `the_scenarios_cross_every_tie` checks that they really occur.

use super::{reference, Host, HostCtx, NetCounters, World};
use crate::congestion::CongestionConfig;
use crate::link::{Channel, Network, NodeId};
use crate::params::NetParams;
use crate::rng::Rng;
use crate::schedule::LinkSchedule;
use crate::time::SimTime;
use proptest::collection::vec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

const MAX_HOSTS: usize = 5;

fn ms(millis: u64) -> Duration {
    Duration::from_millis(millis)
}

/// One line of the trace: everything a kernel did, in the order it did it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Seen {
    now: SimTime,
    what: What,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum What {
    /// A dispatch to `node` — a wake-up, or a message `from` a peer — and
    /// the wake-up deadline the host asked for when it returned.
    Dispatch {
        node: NodeId,
        from: Option<(NodeId, u32)>,
        next_wake: Option<SimTime>,
    },
    Control(Ctl),
}

type Trace = Rc<RefCell<Vec<Seen>>>;

/// What a dispatch (or a control) does to a host's wake-up deadline,
/// relative to the instant it runs at; delays in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WakeMove {
    /// Unchanged — after `on_wake` that is a deadline in the past.
    Keep,
    Clear,
    /// In the past: the kernel clamps it to `now`.
    Ago(u64),
    /// `In(0)` is `now` itself; otherwise earlier or later than the old one.
    In(u64),
}

impl WakeMove {
    fn apply(self, now: SimTime, wake: &mut Option<SimTime>) {
        match self {
            WakeMove::Keep => {}
            WakeMove::Clear => *wake = None,
            WakeMove::Ago(d) => *wake = Some(now.checked_sub(ms(d)).unwrap_or(SimTime::ZERO)),
            // Whole milliseconds, so a host that a duplicate or a TCP
            // retransmission took off the grid returns to it (and `In(0)`
            // is then in the past).
            WakeMove::In(d) => *wake = Some(SimTime::from_millis(now.as_nanos() / 1_000_000 + d)),
        }
    }
}

/// One dispatch of a scripted host: messages out, then a wake-up move.
#[derive(Debug, Clone)]
struct Act {
    /// `(hop, channel)`: hop 0 is a loopback send, hop `h` goes to the
    /// `h`-th other host (wrapping).
    sends: Vec<(usize, Channel)>,
    wake: WakeMove,
}

/// Plays its script one [`Act`] per dispatch and falls silent when it runs
/// out, so every scenario terminates.
struct Scripted {
    acts: Vec<Act>,
    next_act: usize,
    wake: Option<SimTime>,
    sent: u32,
    hosts: usize,
    trace: Trace,
}

impl Scripted {
    fn dispatch(&mut self, ctx: &mut HostCtx<'_, u32>, from: Option<(NodeId, u32)>) {
        match self.acts.get(self.next_act) {
            Some(act) => {
                for &(hop, channel) in &act.sends {
                    let to = match hop.checked_sub(1) {
                        Some(h) => (ctx.node + 1 + h % (self.hosts - 1)) % self.hosts,
                        None => ctx.node,
                    };
                    ctx.send(to, channel, (ctx.node as u32) << 16 | self.sent);
                    self.sent += 1;
                }
                act.wake.apply(ctx.now, &mut self.wake);
            }
            None => self.wake = None,
        }
        self.next_act += 1;
        self.trace.borrow_mut().push(Seen {
            now: ctx.now,
            what: What::Dispatch {
                node: ctx.node,
                from,
                next_wake: self.wake,
            },
        });
    }
}

impl Host for Scripted {
    type Msg = u32;

    fn on_message(&mut self, ctx: &mut HostCtx<'_, u32>, from: NodeId, payload: u32) {
        self.dispatch(ctx, Some((from, payload)));
    }

    fn on_wake(&mut self, ctx: &mut HostCtx<'_, u32>) {
        self.dispatch(ctx, None);
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.wake
    }
}

/// A control action, as data so that both kernels can be handed the same.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ctl {
    Pause(NodeId),
    Resume(NodeId),
    ClearBuffer(NodeId),
    /// `host_mut` + `reschedule_wake`; with [`WakeMove::Keep`] a bare
    /// reschedule, which still takes a fresh sequence number.
    SetWake(NodeId, WakeMove),
    Partition(Vec<NodeId>),
    Exempt(NodeId),
    Heal,
}

impl Ctl {
    /// Fold the drawn node ids into a world of `n` hosts.
    fn fold(&mut self, n: usize) {
        match self {
            Ctl::Pause(node)
            | Ctl::Resume(node)
            | Ctl::ClearBuffer(node)
            | Ctl::SetWake(node, _)
            | Ctl::Exempt(node) => *node %= n,
            Ctl::Partition(group) => group.iter_mut().for_each(|node| *node %= n),
            Ctl::Heal => {}
        }
    }
}

/// The surface of a kernel the scenarios drive; both worlds spell it the same.
trait Kernel {
    fn build(hosts: Vec<Scripted>, net: Network) -> Self;
    fn now(&self) -> SimTime;
    fn counters(&self) -> NetCounters;
    fn host_mut(&mut self, node: NodeId) -> &mut Scripted;
    fn reschedule_wake(&mut self, node: NodeId);
    fn pause(&mut self, node: NodeId);
    fn resume(&mut self, node: NodeId);
    fn clear_pause_buffer(&mut self, node: NodeId);
    fn partition(&mut self, group: &[NodeId]);
    fn exempt_from_partition(&mut self, node: NodeId);
    fn heal_partition(&mut self);
    fn run_until(&mut self, deadline: SimTime);
}

macro_rules! impl_kernel {
    ($($world:ty),*) => {$(
        impl Kernel for $world {
            fn build(hosts: Vec<Scripted>, net: Network) -> Self {
                <$world>::new(hosts, net)
            }
            fn now(&self) -> SimTime {
                <$world>::now(self)
            }
            fn counters(&self) -> NetCounters {
                <$world>::counters(self)
            }
            fn host_mut(&mut self, node: NodeId) -> &mut Scripted {
                <$world>::host_mut(self, node)
            }
            fn reschedule_wake(&mut self, node: NodeId) {
                <$world>::reschedule_wake(self, node);
            }
            fn pause(&mut self, node: NodeId) {
                <$world>::pause(self, node);
            }
            fn resume(&mut self, node: NodeId) {
                <$world>::resume(self, node);
            }
            fn clear_pause_buffer(&mut self, node: NodeId) {
                <$world>::clear_pause_buffer(self, node);
            }
            fn partition(&mut self, group: &[NodeId]) {
                <$world>::partition(self, group);
            }
            fn exempt_from_partition(&mut self, node: NodeId) {
                <$world>::exempt_from_partition(self, node);
            }
            fn heal_partition(&mut self) {
                <$world>::heal_partition(self);
            }
            fn run_until(&mut self, deadline: SimTime) {
                <$world>::run_until(self, deadline);
            }
        }
    )*};
}

impl_kernel!(World<Scripted>, reference::World<Scripted>);

fn apply<K: Kernel>(k: &mut K, trace: &Trace, ctl: Ctl) {
    let now = k.now();
    trace.borrow_mut().push(Seen {
        now,
        what: What::Control(ctl.clone()),
    });
    match ctl {
        Ctl::Pause(node) => k.pause(node),
        Ctl::Resume(node) => k.resume(node),
        Ctl::ClearBuffer(node) => k.clear_pause_buffer(node),
        Ctl::SetWake(node, mv) => {
            mv.apply(now, &mut k.host_mut(node).wake);
            k.reschedule_wake(node);
        }
        Ctl::Partition(group) => k.partition(&group),
        Ctl::Exempt(node) => k.exempt_from_partition(node),
        Ctl::Heal => k.heal_partition(),
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    /// One-way delay of each directed link in milliseconds, row-major over
    /// `MAX_HOSTS`².
    delays: Vec<u64>,
    /// Jitter and congestion bursts: the one case in four that leaves the
    /// millisecond grid.
    noisy: bool,
    /// First wake-up of each host in milliseconds; its length is the number
    /// of hosts.
    first_wakes: Vec<Option<u64>>,
    scripts: Vec<Vec<Act>>,
    /// `run_until` each of these milliseconds in turn, then apply the
    /// control from outside any event, the way `ClusterSim` drives its
    /// world. Sorted by time; several may share a millisecond.
    slices: Vec<(u64, Ctl)>,
}

fn run<K: Kernel>(s: &Scenario) -> (Vec<Seen>, NetCounters) {
    let n = s.first_wakes.len();
    let trace = Trace::default();
    let hosts = (0..n)
        .map(|node| Scripted {
            acts: s.scripts[node].clone(),
            next_act: 0,
            wake: s.first_wakes[node].map(SimTime::from_millis),
            sent: 0,
            hosts: n,
            trace: trace.clone(),
        })
        .collect();
    let congestion = if s.noisy {
        CongestionConfig::wan_default()
    } else {
        CongestionConfig::disabled()
    };
    let net = Network::new(n, &Rng::new(s.seed), congestion, |from, to| {
        let rtt = ms(2 * s.delays[from * MAX_HOSTS + to]);
        let params = NetParams::clean(rtt).with_loss(0.05).with_dup(0.03);
        Arc::new(LinkSchedule::constant(if s.noisy {
            params.with_jitter(0.3)
        } else {
            params
        }))
    });
    let mut k = K::build(hosts, net);
    for (at, ctl) in s.slices.clone() {
        k.run_until(SimTime::from_millis(at));
        apply(&mut k, &trace, ctl);
    }
    // Flush: TCP retransmissions land up to 8 × 200 ms late.
    k.run_until(SimTime::from_secs(3600));
    let seen = trace.borrow().clone();
    (seen, k.counters())
}

fn node() -> impl Strategy<Value = NodeId> {
    0..MAX_HOSTS
}

fn wake_move() -> impl Strategy<Value = WakeMove> {
    prop_oneof![
        2 => Just(WakeMove::Keep),
        1 => Just(WakeMove::Clear),
        1 => (1u64..=3).prop_map(WakeMove::Ago),
        5 => (0u64..=5).prop_map(WakeMove::In),
    ]
}

fn act() -> impl Strategy<Value = Act> {
    let channel = prop_oneof![Just(Channel::Udp), Just(Channel::Tcp)];
    let hop = prop_oneof![1 => Just(0), 6 => 1..MAX_HOSTS];
    (vec((hop, channel), 0..=3), wake_move()).prop_map(|(sends, wake)| Act { sends, wake })
}

fn ctl() -> impl Strategy<Value = Ctl> {
    prop_oneof![
        3 => node().prop_map(Ctl::Pause),
        4 => node().prop_map(Ctl::Resume),
        1 => node().prop_map(Ctl::ClearBuffer),
        5 => (node(), wake_move()).prop_map(|(node, mv)| Ctl::SetWake(node, mv)),
        1 => vec(node(), 1..3).prop_map(Ctl::Partition),
        1 => node().prop_map(Ctl::Exempt),
        1 => Just(Ctl::Heal),
    ]
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let first_wake = prop_oneof![1 => Just(None), 4 => (0u64..=6).prop_map(Some)];
    (
        (
            0u64..1_000_000,
            vec(1u64..=3, MAX_HOSTS * MAX_HOSTS),
            0u8..4,
        ),
        vec(first_wake, 2..=MAX_HOSTS),
        vec(vec(act(), 0..60), MAX_HOSTS),
        vec((0u64..40, ctl()), 1..25),
        // Outages: pause, then resume beside a further control.
        vec((node(), 0u64..30, 1u64..=8, ctl()), 0..4),
    )
        .prop_map(
            |((seed, delays, noise), first_wakes, scripts, mut slices, outages)| {
                let n = first_wakes.len();
                for (node, start, length, company) in outages {
                    slices.push((start, Ctl::Pause(node)));
                    slices.push((start + length, Ctl::Resume(node)));
                    slices.push((start + length, company));
                }
                slices.sort_by_key(|&(at, _)| at);
                for (_, ctl) in &mut slices {
                    ctl.fold(n);
                }
                Scenario {
                    seed,
                    delays,
                    noisy: noise == 0,
                    first_wakes,
                    scripts,
                    slices,
                }
            },
        )
}

proptest! {
    /// Same hosts, same fabric seed, same calls between slices: the live
    /// kernel and the single-heap reference produce the same trace and the
    /// same counters.
    #[test]
    fn prop_dispatch_order_matches_the_single_heap_reference(s in scenario()) {
        let (seen, counters) = run::<World<Scripted>>(&s);
        let (ref_seen, ref_counters) = run::<reference::World<Scripted>>(&s);
        if let Some(i) = (0..seen.len().max(ref_seen.len())).find(|&i| seen.get(i) != ref_seen.get(i)) {
            let from = i.saturating_sub(4);
            prop_assert!(
                false,
                "traces part at line {i}:\n live      {:?}\n reference {:?}\n after {:?}",
                seen.get(i),
                ref_seen.get(i),
                &ref_seen[from..i]
            );
        }
        prop_assert_eq!(counters, ref_counters);
    }
}

/// How often the scenarios produced each tie or corner the property is
/// there to cover.
#[derive(Debug, Default)]
struct Coverage {
    message_ahead_of_the_wake_due_then: u32,
    wake_ahead_of_a_message_due_then: u32,
    wake_fired_again_at_once: u32,
    wake_off_the_grid: u32,
    loopback: u32,
    replay_of_several_buffered: u32,
    resume_beside_a_control_and_a_message: u32,
    control_moved_a_wake_to_now: u32,
    counters: NetCounters,
}

impl Coverage {
    fn add(&mut self, hosts: usize, seen: &[Seen], counters: NetCounters) {
        for host in 0..hosts {
            // (instant, sender if a message, deadline asked for) per dispatch.
            let dispatches: Vec<_> = seen
                .iter()
                .filter_map(|line| match line.what {
                    What::Dispatch {
                        node,
                        from,
                        next_wake,
                    } if node == host => Some((line.now, from.map(|(from, _)| from), next_wake)),
                    _ => None,
                })
                .collect();
            for pair in dispatches.windows(2) {
                let ((before, sender_before, due), (now, sender, _)) = (pair[0], pair[1]);
                let scheduled_earlier = before < now && due == Some(now);
                match (sender_before, sender) {
                    (_, Some(_)) if scheduled_earlier => {
                        self.message_ahead_of_the_wake_due_then += 1
                    }
                    (None, Some(from)) if before == now && from != host => {
                        self.wake_ahead_of_a_message_due_then += 1;
                    }
                    (_, None) if before == now => self.wake_fired_again_at_once += 1,
                    _ => {}
                }
                self.wake_off_the_grid +=
                    u32::from(sender.is_none() && now.as_nanos() % 1_000_000 != 0);
                self.loopback += u32::from(sender == Some(host));
            }
        }
        for (i, line) in seen.iter().enumerate() {
            let What::Control(ctl) = &line.what else {
                continue;
            };
            let same_instant = seen[i + 1..].iter().take_while(|s| s.now == line.now);
            let dispatches_to = |host: NodeId, message: bool| {
                same_instant
                    .clone()
                    .filter(|s| matches!(s.what, What::Dispatch { node, from, .. } if node == host && from.is_some() == message))
                    .count()
            };
            let control = || {
                same_instant
                    .clone()
                    .any(|s| matches!(s.what, What::Control(_)))
            };
            match ctl {
                Ctl::Resume(node) => {
                    let replayed = dispatches_to(*node, true);
                    self.replay_of_several_buffered += u32::from(replayed >= 2);
                    self.resume_beside_a_control_and_a_message +=
                        u32::from(replayed >= 1 && control());
                }
                Ctl::SetWake(node, WakeMove::Ago(_) | WakeMove::In(0)) => {
                    self.control_moved_a_wake_to_now += u32::from(dispatches_to(*node, false) > 0);
                }
                _ => {}
            }
        }
        self.counters.delivered += counters.delivered;
        self.counters.dropped_loss += counters.dropped_loss;
        self.counters.duplicated += counters.duplicated;
        self.counters.dropped_partitioned += counters.dropped_partitioned;
        self.counters.wakes += counters.wakes;
    }
}

/// The property above is only as strong as its scenarios: over the same
/// strategy, every tie and corner it exists for must actually occur.
#[test]
fn the_scenarios_cross_every_tie() {
    let mut rng = TestRng::new(0x0D15_BA7C);
    let mut cover = Coverage::default();
    for _ in 0..64 {
        let s = scenario().sample(&mut rng);
        let (seen, counters) = run::<World<Scripted>>(&s);
        cover.add(s.first_wakes.len(), &seen, counters);
    }
    let count = |n: u64| u32::try_from(n).unwrap_or(u32::MAX);
    for (what, seen) in [
        (
            "message dispatched ahead of the wake-up due at its instant",
            cover.message_ahead_of_the_wake_due_then,
        ),
        (
            "wake-up dispatched ahead of a message due at its instant",
            cover.wake_ahead_of_a_message_due_then,
        ),
        (
            "wake-up due in the past, fired again at once",
            cover.wake_fired_again_at_once,
        ),
        ("wake-up off the millisecond grid", cover.wake_off_the_grid),
        ("loopback delivery", cover.loopback),
        (
            "resume that replayed several buffered messages",
            cover.replay_of_several_buffered,
        ),
        (
            "resume at an instant that also held a message and a control",
            cover.resume_beside_a_control_and_a_message,
        ),
        (
            "control that moved a wake-up to now",
            cover.control_moved_a_wake_to_now,
        ),
        ("UDP duplicate", count(cover.counters.duplicated)),
        ("UDP loss", count(cover.counters.dropped_loss)),
        ("partition drop", count(cover.counters.dropped_partitioned)),
        ("wake-up dispatched", count(cover.counters.wakes)),
    ] {
        assert!(seen >= 10, "only {seen} × {what} in 64 scenarios");
    }
    assert!(cover.counters.delivered > 5_000, "{:?}", cover.counters);
}
