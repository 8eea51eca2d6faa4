//! Per-layer drives: host time of calls into each crate's public functions,
//! on inputs sized from the run they follow (payload bytes, batch size, log
//! length, keys held). Each reports the median over rounds of
//! `elapsed / calls`; each runs inside a `drive.<layer>.<fn>` span.

use crate::measure;
use crate::observe::DriveInputs;
use crate::trace::Tracer;
use bytes::Bytes;
use dynatune_broker::{BrokerCommand, BrokerRequest, BrokerSm, Record};
use dynatune_core::{FollowerTuner, HeartbeatMeta, TuningConfig};
use dynatune_kv::{KvCommand, KvRequest, OpMix, RateStep, Store, WorkloadGen};
use dynatune_raft::{
    Entry, NodeId, Payload, Progress, RaftConfig, RaftLog, RaftNode, Role, StateMachine,
};
use dynatune_simnet::{
    Channel, CongestionConfig, Host, HostCtx, NetParams, Network, Rng, SimTime, Topology, World,
};
use dynatune_stats::{Histogram, SampleWindow};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

const ROUNDS: usize = 5;

/// How much work each drive does: 1.0 for a run, tiny for `--smoke`.
#[derive(Clone, Copy)]
pub struct Effort(pub f64);

impl Effort {
    fn calls(self, full: usize) -> usize {
        ((full as f64 * self.0) as usize).max(8)
    }
}

/// Median over rounds of ns per call; `round` returns (elapsed, calls).
fn per_call(mut round: impl FnMut() -> (Duration, u64)) -> f64 {
    let mut ns: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (elapsed, calls) = round();
            elapsed.as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    measure::median(&mut ns)
}

fn timed(calls: usize, mut call: impl FnMut(usize)) -> (Duration, u64) {
    let t = Instant::now();
    for i in 0..calls {
        call(i);
    }
    (t.elapsed(), calls as u64)
}

pub type Results = BTreeMap<&'static str, f64>;

fn drive(
    results: &mut Results,
    tracer: &mut Tracer,
    name: &'static str,
    unit_ns: f64,
    f: impl FnOnce() -> f64,
) {
    tracer.begin(&format!("drive.{name}"));
    let ns = f();
    tracer.end(&[("ns_per_call", ns)]);
    results.insert(name, ns / unit_ns);
}

fn key(i: usize, space: usize) -> Bytes {
    Bytes::from(format!("key-{:08}", i % space.max(1)))
}

fn put(i: usize, inputs: &DriveInputs, value: &Bytes) -> KvRequest {
    KvRequest::from_client(
        9,
        i as u64,
        KvCommand::Put {
            key: key(i.wrapping_mul(7919), inputs.key_space),
            value: value.clone(),
        },
    )
}

fn produce(i: usize, inputs: &DriveInputs, value: &Bytes) -> BrokerRequest {
    let records = (0..inputs.produce_batch_records.max(1))
        .map(|_| Record::new(Bytes::new(), value.clone()))
        .collect();
    BrokerRequest::from_client(
        9,
        i as u64,
        BrokerCommand::Produce {
            topic: "orders".into(),
            partition: (i % 4) as u32,
            records,
        },
    )
}

/// A state machine that stores nothing: the raft drives carry the run's
/// real command type (so entry clones cost what they cost) without the
/// application's apply time, which `kv.apply_ns` and
/// `broker.apply_produce_ns` measure on their own.
struct Inert<C>(PhantomData<C>);

impl<C: Clone> StateMachine for Inert<C> {
    type Command = C;
    type Response = ();
    type Snapshot = ();
    fn apply(&mut self, _index: u64, _command: &C) {}
    fn snapshot(&self) {}
    fn restore(&mut self, _snapshot: &()) {}
}

/// Ping host for the kernel drive: every wake sends one message.
struct Pinger {
    n: usize,
    next: SimTime,
    counter: u64,
}

impl Host for Pinger {
    type Msg = u64;
    fn on_message(&mut self, _ctx: &mut HostCtx<'_, u64>, _from: usize, msg: u64) {
        self.counter = self.counter.wrapping_add(msg);
    }
    fn on_wake(&mut self, ctx: &mut HostCtx<'_, u64>) {
        let to = (ctx.node + 1 + (self.counter as usize % (self.n - 1))) % self.n;
        ctx.send(to, Channel::Tcp, self.counter);
        self.counter += 1;
        self.next = ctx.now + Duration::from_millis(1);
    }
    fn next_wake(&self) -> Option<SimTime> {
        Some(self.next)
    }
}

fn network(n: usize, params: NetParams, seed: u64) -> Network {
    let topo = Topology::uniform_constant(n, params);
    Network::new(n, &Rng::new(seed), CongestionConfig::disabled(), |f, t| {
        topo.schedule(f, t)
    })
}

/// A zero-latency cluster of bare `RaftNode`s with node 0 leading, pumped
/// by hand: five of the raft drives time their call inside one real
/// message flow (propose → append → ack, tick → heartbeat → reply).
struct Pump<C: Clone> {
    nodes: Vec<RaftNode<Inert<C>>>,
    queue: VecDeque<(NodeId, NodeId, Payload<C, ()>)>,
    now: SimTime,
    /// (total ns, calls) per timed kind.
    spent: [(u128, u64); 5],
}

const PROPOSE: usize = 0;
const STEP_APPEND: usize = 1;
const STEP_APPEND_RESP: usize = 2;
const STEP_HEARTBEAT: usize = 3;
const TICK: usize = 4;

impl<C: Clone> Pump<C> {
    fn new(n: usize) -> Self {
        let nodes = (0..n)
            .map(|id| {
                RaftNode::new(
                    RaftConfig::new(id, n, TuningConfig::dynatune()),
                    Inert(PhantomData),
                    SimTime::ZERO,
                )
            })
            .collect();
        let mut pump = Self {
            nodes,
            queue: VecDeque::new(),
            now: SimTime::ZERO,
            spent: [(0, 0); 5],
        };
        // Node 0's election timer fires first because only it is ticked.
        for _ in 0..100 {
            if pump.nodes[0].role() == Role::Leader {
                break;
            }
            pump.now = pump.nodes[0].election_deadline().max(pump.now);
            pump.tick_leader();
            pump.deliver();
        }
        assert_eq!(pump.nodes[0].role(), Role::Leader, "node 0 never won");
        // Warm every follower's tuner past minListSize.
        for _ in 0..20 {
            pump.heartbeat_round();
        }
        pump.spent = [(0, 0); 5];
        pump
    }

    fn charge(&mut self, kind: usize, t: Instant) {
        self.spent[kind].0 += t.elapsed().as_nanos();
        self.spent[kind].1 += 1;
    }

    fn tick_leader(&mut self) {
        let t = Instant::now();
        let fx = self.nodes[0].tick(self.now);
        self.charge(TICK, t);
        self.queue
            .extend(fx.messages.into_iter().map(|m| (0, m.to, m.payload)));
    }

    fn deliver(&mut self) {
        while let Some((from, to, payload)) = self.queue.pop_front() {
            let kind = match &payload {
                Payload::AppendEntries(a) if !a.entries.is_empty() => Some(STEP_APPEND),
                Payload::AppendResp(_) => Some(STEP_APPEND_RESP),
                Payload::Heartbeat(_) => Some(STEP_HEARTBEAT),
                _ => None,
            };
            let t = Instant::now();
            let fx = self.nodes[to].step(self.now, from, payload);
            if let Some(kind) = kind {
                self.charge(kind, t);
            }
            self.queue
                .extend(fx.messages.into_iter().map(|m| (to, m.to, m.payload)));
        }
    }

    fn heartbeat_round(&mut self) {
        self.now += Duration::from_millis(100);
        self.tick_leader();
        self.deliver();
    }

    /// Propose `batch` commands at one instant, then let group commit
    /// flush: the first rides an idle pipe alone, the rest coalesce.
    fn propose_round(&mut self, batch: usize, mut command: impl FnMut() -> C, timing: bool) {
        for _ in 0..batch {
            let cmd = command();
            let t = Instant::now();
            let (_, fx) = self.nodes[0].propose(self.now, cmd);
            if timing {
                self.charge(PROPOSE, t);
            }
            self.queue
                .extend(fx.messages.into_iter().map(|m| (0, m.to, m.payload)));
        }
        self.deliver();
        self.now += Duration::from_millis(1);
        self.tick_leader();
        self.deliver();
    }

    fn ns_per_call(&self, kind: usize) -> f64 {
        let (ns, calls) = self.spent[kind];
        ns as f64 / calls.max(1) as f64
    }
}

fn pump_drives<C: Clone>(
    results: &mut Results,
    tracer: &mut Tracer,
    inputs: &DriveInputs,
    group_size: usize,
    effort: Effort,
    mut command: impl FnMut(usize) -> C,
) {
    tracer.begin("drive.raft.pump");
    let mut per_kind: [Vec<f64>; 5] = Default::default();
    let batch = inputs.batch_entries.max(1);
    let rounds = effort.calls(2_000 / batch.min(50));
    let mut i = 0;
    for _ in 0..ROUNDS {
        let mut pump = Pump::new(group_size);
        // Grow the log to the length the run held (untimed, big batches).
        let prefill = (inputs.log_len as f64 * effort.0.min(1.0)) as usize;
        for _ in 0..prefill / 256 {
            pump.propose_round(256, || command(0), false);
        }
        pump.spent = [(0, 0); 5];
        for _ in 0..rounds {
            pump.propose_round(
                batch,
                || {
                    i += 1;
                    command(i)
                },
                true,
            );
            pump.heartbeat_round();
        }
        for (kind, samples) in per_kind.iter_mut().enumerate() {
            samples.push(pump.ns_per_call(kind));
        }
    }
    tracer.end(&[]);
    for (kind, name) in [
        (PROPOSE, "raft.propose_ns"),
        (STEP_APPEND, "raft.step_append_ns"),
        (STEP_APPEND_RESP, "raft.step_append_resp_ns"),
        (STEP_HEARTBEAT, "raft.step_heartbeat_ns"),
        (TICK, "raft.tick_ns"),
    ] {
        results.insert(name, measure::median(&mut per_kind[kind]));
    }
}

fn log_drives<C: Clone>(
    results: &mut Results,
    tracer: &mut Tracer,
    inputs: &DriveInputs,
    effort: Effort,
    command: impl Fn(usize) -> C,
) {
    let log_len = ((inputs.log_len as f64 * effort.0.min(1.0)) as u64).max(64);
    let batch = inputs.batch_entries.max(1);
    let mut base: RaftLog<C> = RaftLog::new();
    for i in 1..=log_len {
        base.append(Entry::normal(1, i, Some(command(i as usize))));
    }
    let calls = effort.calls(20_000);
    drive(results, tracer, "raft.log_append_ns", 1.0, || {
        per_call(|| {
            let commands: Vec<C> = (0..calls).map(&command).collect();
            let mut commands = commands.into_iter();
            let out = timed(calls, |_| {
                black_box(base.append_new(1, commands.next()));
            });
            base.truncate_from(log_len + 1);
            out
        })
    });
    drive(results, tracer, "raft.log_entries_from_ns", 1.0, || {
        let from = log_len.saturating_sub(batch as u64 * 4).max(1);
        per_call(|| {
            timed(calls / batch.min(50) + 8, |_| {
                black_box(base.entries_from(from, batch));
            })
        })
    });
    drive(results, tracer, "raft.log_try_append_ns", 1.0, || {
        let offered: Vec<Entry<C>> = (1..=batch as u64)
            .map(|k| Entry::normal(1, log_len + k, Some(command(k as usize))))
            .collect();
        per_call(|| {
            let mut spent = Duration::ZERO;
            let n = calls / batch.min(50) + 8;
            for _ in 0..n {
                let t = Instant::now();
                black_box(base.try_append(log_len, 1, &offered));
                spent += t.elapsed();
                base.truncate_from(log_len + 1);
            }
            (spent, n as u64)
        })
    });
    drive(results, tracer, "raft.log_compact_us", 1e3, || {
        per_call(|| {
            let mut log = base.clone();
            let t = Instant::now();
            log.compact(log_len / 2);
            black_box(log.first_index());
            (t.elapsed(), 1)
        })
    });
}

/// Run every drive. `broker` selects the command type the raft drives
/// carry and which application drives run; the other application's
/// metrics are left out (they read 0 in the result object).
pub fn run_all(
    inputs: &DriveInputs,
    group_size: usize,
    broker: bool,
    effort: Effort,
    tracer: &mut Tracer,
) -> Results {
    let mut r = Results::new();
    let value = Bytes::from(vec![0xA5u8; inputs.payload_bytes.max(8)]);

    // ---- stats ----
    let calls = effort.calls(1_000_000);
    drive(&mut r, tracer, "stats.hist_record_ns", 1.0, || {
        let mut h = Histogram::new();
        per_call(|| {
            timed(calls, |i| {
                h.record(black_box(100_000 + (i as u64 % 997) * 10))
            })
        })
    });
    drive(&mut r, tracer, "stats.window_push_ns", 1.0, || {
        let mut w = SampleWindow::new(1000);
        per_call(|| timed(calls, |i| w.push(black_box(100.0 + (i % 997) as f64))))
    });

    // ---- simnet ----
    drive(&mut r, tracer, "simnet.kernel_ns_per_event", 1.0, || {
        // One event = one message through the kernel: the sender's wake,
        // the send, the scheduling and the delivery.
        let n = group_size.max(2) + 1;
        let horizon = SimTime::from_millis(effort.calls(2_000) as u64);
        per_call(|| {
            let hosts = (0..n)
                .map(|i| Pinger {
                    n,
                    next: SimTime::from_micros(i as u64 * 10),
                    counter: i as u64,
                })
                .collect();
            let params = NetParams::clean(Duration::from_millis(10)).with_jitter(0.02);
            let mut world = World::new(hosts, network(n, params, 1));
            let t = Instant::now();
            world.run_until(horizon);
            (t.elapsed(), world.counters().delivered)
        })
    });
    for (name, channel) in [
        ("simnet.send_udp_ns", Channel::Udp),
        ("simnet.send_tcp_ns", Channel::Tcp),
    ] {
        drive(&mut r, tracer, name, 1.0, || {
            let params = NetParams::clean(Duration::from_millis(50))
                .with_jitter(0.1)
                .with_loss(0.05);
            let mut net = network(2, params, 3);
            let mut tick = 0u64;
            per_call(|| {
                timed(calls / 4, |_| {
                    tick += 1;
                    black_box(net.send(SimTime::from_micros(tick * 100), 0, 1, channel));
                })
            })
        });
    }

    // ---- core ----
    drive(&mut r, tracer, "core.on_heartbeat_ns", 1.0, || {
        let mut tuner = FollowerTuner::new(TuningConfig::dynatune());
        let mut id = 0u64;
        let mut beat = |tuner: &mut FollowerTuner| {
            id += 1;
            let meta = HeartbeatMeta {
                id,
                sent_at_nanos: id * 100_000_000,
                rtt_sample: Some(Duration::from_millis(100 + id % 7)),
            };
            black_box(tuner.on_heartbeat(&meta));
        };
        for _ in 0..1_000 {
            beat(&mut tuner); // fill the window: the steady state evicts
        }
        per_call(|| timed(calls / 4, |_| beat(&mut tuner)))
    });

    // ---- raft ----
    drive(&mut r, tracer, "raft.progress_ack_ns", 1.0, || {
        let mut p = Progress::new(0, SimTime::ZERO);
        let (mut now, mut last) = (SimTime::ZERO, 0u64);
        per_call(|| {
            timed(calls / 4, |_| {
                now += Duration::from_micros(10);
                if p.window_free(4) {
                    p.record_send(now, last, last + 2);
                    last += 2;
                } else {
                    p.on_success(last);
                }
                black_box(p.oldest_sent_at());
            })
        })
    });
    if broker {
        log_drives(&mut r, tracer, inputs, effort, |i| {
            produce(i, inputs, &value)
        });
        pump_drives(&mut r, tracer, inputs, group_size, effort, |i| {
            produce(i, inputs, &value)
        });
    } else {
        log_drives(&mut r, tracer, inputs, effort, |i| put(i, inputs, &value));
        pump_drives(&mut r, tracer, inputs, group_size, effort, |i| {
            put(i, inputs, &value)
        });
    }

    // ---- kv / broker: the application the workload runs ----
    if broker {
        let calls = effort.calls(4_000);
        let mut sm = BrokerSm::new();
        let mut index = 0u64;
        drive(&mut r, tracer, "broker.apply_produce_ns", 1.0, || {
            per_call(|| {
                let requests: Vec<BrokerRequest> = (0..calls)
                    .map(|i| produce(index as usize + i, inputs, &value))
                    .collect();
                timed(calls, |i| {
                    index += 1;
                    black_box(sm.apply(index, &requests[i]));
                })
            })
        });
        drive(&mut r, tracer, "broker.fetch_ns", 1.0, || {
            let per_partition = index / 4 * inputs.produce_batch_records.max(1) as u64;
            per_call(|| {
                timed(calls, |i| {
                    let fetch = BrokerCommand::Fetch {
                        topic: "orders".into(),
                        partition: (i % 4) as u32,
                        offset: (i as u64 * 256) % per_partition.max(1),
                        max_records: 256,
                    };
                    black_box(sm.read(&fetch));
                })
            })
        });
    } else {
        let calls = effort.calls(100_000);
        let keys = ((inputs.store_keys as f64 * effort.0.min(1.0)) as usize).max(64);
        let mut store = Store::new();
        for i in 0..keys {
            store.apply(i as u64 + 1, &put(i, inputs, &value));
        }
        let mut index = keys as u64;
        drive(&mut r, tracer, "kv.apply_ns", 1.0, || {
            per_call(|| {
                let requests: Vec<KvRequest> = (0..calls)
                    .map(|i| put(index as usize + i, inputs, &value))
                    .collect();
                timed(calls, |i| {
                    index += 1;
                    black_box(store.apply(index, &requests[i]));
                })
            })
        });
        drive(&mut r, tracer, "kv.read_ns", 1.0, || {
            let gets: Vec<KvCommand> = (0..calls)
                .map(|i| KvCommand::Get {
                    key: key(i.wrapping_mul(7919), inputs.key_space),
                })
                .collect();
            per_call(|| {
                timed(calls, |i| {
                    black_box(store.read(&gets[i]));
                })
            })
        });
        let mut snap = store.snapshot();
        drive(&mut r, tracer, "kv.snapshot_us", 1e3, || {
            per_call(|| {
                let t = Instant::now();
                snap = store.snapshot();
                (t.elapsed(), 1)
            })
        });
        drive(&mut r, tracer, "kv.restore_us", 1e3, || {
            let mut target = Store::new();
            per_call(|| {
                let t = Instant::now();
                target.restore(&snap);
                (t.elapsed(), 1)
            })
        });
        drive(&mut r, tracer, "kv.gen_next_ns", 1.0, || {
            let step = RateStep {
                rps: 1e6,
                hold: Duration::from_secs(3_600),
            };
            let mut gen = WorkloadGen::new(
                vec![step],
                OpMix {
                    put: inputs.put_share,
                    delete: 0.0,
                    cas: 0.0,
                },
                inputs.key_space.max(1),
                0.99,
                inputs.payload_bytes,
                Rng::new(5),
                SimTime::ZERO,
            );
            per_call(|| {
                timed(calls, |_| {
                    black_box(gen.next_request());
                })
            })
        });
    }
    r
}
