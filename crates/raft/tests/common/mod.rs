//! The one adversarial harness every proptest suite in this directory
//! drives: a cluster of bare `RaftNode`s (no simulator), a pool of
//! in-flight messages delivered in arbitrary order, a hand-cranked clock,
//! and the named safety checkers.
//!
//! This is *more* hostile than the simulator (its TCP-like channel is
//! FIFO; here even append traffic reorders, duplicates and vanishes),
//! which is exactly what the invariants must survive. Suites keep their
//! own `Action` enum, strategy and extra assertions; whatever they need to
//! observe on every `Effects` bundle goes through [`Hooks`]. The
//! one-leader-per-term ledger is checked on every bundle in every suite.

#![allow(dead_code)] // each suite drives a different subset

use dynatune_raft::{
    quorum, LogIndex, NodeEffects, NodeId, NullStateMachine, Payload, RaftConfig, RaftEvent,
    RaftNode, Role, Term,
};
use dynatune_simnet::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

pub type Node = RaftNode<NullStateMachine>;
pub type Fx = NodeEffects<NullStateMachine>;
pub type Check = Result<(), TestCaseError>;

/// An in-flight message.
#[derive(Debug, Clone)]
pub struct Flight {
    pub from: NodeId,
    pub to: NodeId,
    pub payload: Payload<u64, Vec<(u64, u64)>>,
}

/// A suite's reaction to every `Effects` bundle a node emits, called with
/// the cluster as it stands right after the input that produced it.
pub trait Hooks: Default {
    fn on_effects(&mut self, _nodes: &[Node], _from: NodeId, _fx: &Fx) -> Check {
        Ok(())
    }
}

impl Hooks for () {}

pub struct Harness<H: Hooks = ()> {
    pub nodes: Vec<Node>,
    pub pool: Vec<Flight>,
    pub now: SimTime,
    pub hooks: H,
    leaders_by_term: BTreeMap<Term, NodeId>,
    max_term_seen: Vec<Term>,
    /// `(term, data)` of every entry any node was ever seen to commit.
    committed: BTreeMap<LogIndex, (Term, Option<u64>)>,
}

impl<H: Hooks> Harness<H> {
    /// `n` nodes configured by `config_of(id)`, each with its own seed
    /// derived from `seed`.
    pub fn new(n: usize, seed: u64, config_of: impl Fn(NodeId) -> RaftConfig) -> Self {
        let nodes = (0..n)
            .map(|id| {
                let mut cfg = config_of(id);
                cfg.seed = seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                RaftNode::new(cfg, NullStateMachine::default(), SimTime::ZERO)
            })
            .collect();
        Self {
            nodes,
            pool: Vec::new(),
            now: SimTime::ZERO,
            hooks: H::default(),
            leaders_by_term: BTreeMap::new(),
            max_term_seen: vec![0; n],
            committed: BTreeMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Cluster mechanics
    // ------------------------------------------------------------------

    /// Take in what node `from` just emitted: its messages join the pool,
    /// its `BecameLeader` events go through the one-leader-per-term ledger
    /// (across **both** quorums of a joint configuration — a stale `C_old`
    /// majority must never elect a second leader for a decided term).
    pub fn absorb(&mut self, from: NodeId, fx: Fx) -> Check {
        self.hooks.on_effects(&self.nodes, from, &fx)?;
        for ev in &fx.events {
            if let RaftEvent::BecameLeader { term } = *ev {
                if let Some(&prev) = self.leaders_by_term.get(&term) {
                    prop_assert_eq!(prev, from, "two leaders in term {}", term);
                }
                self.leaders_by_term.insert(term, from);
            }
        }
        self.pool.extend(fx.messages.into_iter().map(|m| Flight {
            from,
            to: m.to,
            payload: m.payload,
        }));
        Ok(())
    }

    fn step(&mut self, f: Flight) -> Check {
        let fx = self.nodes[f.to].step(self.now, f.from, f.payload);
        self.absorb(f.to, fx)
    }

    fn tick(&mut self, id: NodeId) -> Check {
        let fx = self.nodes[id].tick(self.now);
        self.absorb(id, fx)
    }

    /// Deliver the k-th in-flight message (modulo pool size).
    pub fn deliver(&mut self, k: usize) -> Check {
        if self.pool.is_empty() {
            return Ok(());
        }
        let f = self.pool.swap_remove(k % self.pool.len());
        self.step(f)
    }

    /// Drop the k-th in-flight message.
    pub fn drop_flight(&mut self, k: usize) {
        if !self.pool.is_empty() {
            self.pool.swap_remove(k % self.pool.len());
        }
    }

    /// Deliver the k-th message but keep a copy in flight (duplication).
    pub fn duplicate(&mut self, k: usize) -> Check {
        if self.pool.is_empty() {
            return Ok(());
        }
        let f = self.pool[k % self.pool.len()].clone();
        self.step(f)
    }

    /// Advance time to the chosen node's next deadline and tick it — fires
    /// elections, group-commit flushes and pipeline resends alike.
    pub fn fire_timer(&mut self, n: usize) -> Check {
        let id = n % self.nodes.len();
        let Some(deadline) = self.nodes[id].next_wake() else {
            return Ok(());
        };
        self.now = self.now.max(deadline);
        self.tick(id)
    }

    /// Advance time by `ms`, ticking every node that came due: leaders
    /// emit due heartbeats, followers check their deadlines.
    pub fn sleep(&mut self, ms: u64) -> Check {
        self.now += Duration::from_millis(ms);
        self.tick_due(&[])
    }

    /// Propose a command on the chosen node (no-op unless leader).
    pub fn propose(&mut self, n: usize, v: u64) -> Check {
        let id = n % self.nodes.len();
        let (_, fx) = self.nodes[id].propose(self.now, v);
        self.absorb(id, fx)
    }

    /// Compact the chosen node's applied prefix into a snapshot.
    pub fn compact(&mut self, n: usize) {
        let id = n % self.nodes.len();
        let upto = self.nodes[id].safe_compact_index();
        self.nodes[id].compact_log(upto);
    }

    /// Crash the chosen node and restart it at once: persistent state
    /// survives, volatile state resets.
    pub fn crash_restart(&mut self, n: usize) {
        let id = n % self.nodes.len();
        self.nodes[id].restart(self.now);
    }

    /// The leader at the cluster's highest term, if there is one. A node
    /// that still *thinks* it leads a superseded term does not count.
    pub fn leader(&self) -> Option<NodeId> {
        let max_term = self.nodes.iter().map(Node::term).max().unwrap_or(0);
        self.nodes
            .iter()
            .position(|n| n.role() == Role::Leader && n.term() == max_term)
    }

    fn tick_due(&mut self, isolated: &[NodeId]) -> Check {
        for id in 0..self.nodes.len() {
            let due = self.nodes[id].next_wake().is_some_and(|w| w <= self.now);
            if due && !isolated.contains(&id) {
                self.tick(id)?;
            }
        }
        Ok(())
    }

    /// Jump to the earliest deadline outside `isolated` and tick every
    /// non-isolated node that is due.
    pub fn fire_due_timers(&mut self, isolated: &[NodeId]) -> Check {
        let wakes = self.nodes.iter().enumerate();
        let connected = wakes.filter(|(id, _)| !isolated.contains(id));
        if let Some(deadline) = connected.filter_map(|(_, n)| n.next_wake()).min() {
            self.now = self.now.max(deadline);
        }
        self.tick_due(isolated)
    }

    /// Deliver everything in flight — replies included — between nodes
    /// outside `isolated`; messages touching an isolated node are dropped
    /// (a hard partition).
    pub fn drain(&mut self, isolated: &[NodeId]) -> Check {
        let cut = |f: &Flight| isolated.contains(&f.from) || isolated.contains(&f.to);
        let mut budget = 10_000usize;
        while let Some(pos) = self.pool.iter().position(|f| !cut(f)) {
            let f = self.pool.swap_remove(pos);
            self.step(f)?;
            budget -= 1;
            prop_assert!(budget > 0, "delivery storm: messages never drain");
        }
        self.pool.clear();
        Ok(())
    }

    /// One round of calm: fire due timers, drain the pool, then leave a
    /// little idle time so heartbeat pacing and batch deadlines make
    /// progress instead of firing back-to-back.
    pub fn healed_round(&mut self, isolated: &[NodeId]) -> Check {
        self.fire_due_timers(isolated)?;
        self.drain(isolated)?;
        self.now += Duration::from_millis(5);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Invariant checkers
    // ------------------------------------------------------------------

    /// No node's term ever goes backwards.
    pub fn check_terms_monotonic(&mut self) -> Check {
        for (id, node) in self.nodes.iter().enumerate() {
            prop_assert!(
                node.term() >= self.max_term_seen[id],
                "term went backwards on node {}",
                id
            );
            self.max_term_seen[id] = node.term();
        }
        Ok(())
    }

    /// Log matching: committed prefixes agree pairwise, term and data.
    /// Compacted prefixes are exempt per entry (the snapshot holds them).
    pub fn check_log_matching(&self) -> Check {
        for (a, na) in self.nodes.iter().enumerate() {
            for (b, nb) in self.nodes.iter().enumerate().skip(a + 1) {
                for i in 1..=na.commit_index().min(nb.commit_index()) {
                    let (la, lb) = (na.log(), nb.log());
                    if let (Some(ta), Some(tb)) = (la.term_at(i), lb.term_at(i)) {
                        prop_assert_eq!(
                            ta,
                            tb,
                            "committed entry {} diverges between {} and {}",
                            i,
                            a,
                            b
                        );
                    }
                    if let (Some(ea), Some(eb)) = (la.entry_at(i), lb.entry_at(i)) {
                        prop_assert_eq!(ea.data, eb.data, "data diverges at {}", i);
                    }
                }
            }
        }
        Ok(())
    }

    /// At most one leader among the nodes sharing the highest term.
    pub fn check_single_leader_at_max_term(&self) -> Check {
        let max_term = self.nodes.iter().map(Node::term).max().unwrap_or(0);
        let leaders_at_max = self
            .nodes
            .iter()
            .filter(|n| n.term() == max_term && n.role() == Role::Leader)
            .count();
        prop_assert!(
            leaders_at_max <= 1,
            "{} leaders at term {}",
            leaders_at_max,
            max_term
        );
        Ok(())
    }

    /// Commit floor: nothing anywhere is committed past what a quorum of
    /// members physically holds. A pipelining bug that advances
    /// `match_index` beyond a follower's real log breaks exactly this.
    pub fn check_commit_floor(&self) -> Check {
        let commit_max = self.nodes.iter().map(Node::commit_index).max().unwrap_or(0);
        let mut lasts: Vec<u64> = self.nodes.iter().map(|n| n.log().last_index()).collect();
        lasts.sort_unstable_by(|x, y| y.cmp(x));
        let floor = lasts[quorum(self.nodes.len()) - 1];
        prop_assert!(
            commit_max <= floor,
            "commit_index {} outruns the quorum match floor {} (last_index per node: {:?})",
            commit_max,
            floor,
            lasts
        );
        Ok(())
    }

    /// Commit ledger: once `(index, term, data)` commits anywhere it is
    /// never lost or rewritten, across any number of reconfigurations.
    pub fn check_commit_ledger(&mut self) -> Check {
        for node in &self.nodes {
            let first = node.log().first_index().max(1);
            for i in first..=node.commit_index() {
                let Some(term) = node.log().term_at(i) else {
                    continue;
                };
                let entry = (term, node.log().entry_at(i).and_then(|e| e.data));
                let seen = *self.committed.entry(i).or_insert(entry);
                prop_assert_eq!(seen, entry, "committed entry {} changed after commit", i);
            }
        }
        Ok(())
    }
}
