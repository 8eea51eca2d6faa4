//! Cluster topologies: uniform LAN/WAN meshes and geo-replicated presets.
//!
//! The paper evaluates on (a) a single-host Docker mesh with identical
//! parameters on every pair (Figures 4–7) and (b) five AWS regions —
//! Tokyo, London, California, Sydney and São Paulo (Figure 8). The geo
//! preset encodes published inter-region RTT ballparks.

use crate::params::NetParams;
use crate::schedule::LinkSchedule;
use std::sync::Arc;
use std::time::Duration;

/// A topology maps every directed node pair to a link schedule.
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    /// Row-major `(from, to)`; diagonal entries unused but present.
    schedules: Vec<Arc<LinkSchedule>>,
}

impl Topology {
    /// All pairs share a single schedule.
    #[must_use]
    pub fn uniform(n: usize, schedule: LinkSchedule) -> Self {
        assert!(n > 0, "topology needs at least one node");
        let shared = Arc::new(schedule);
        Self {
            n,
            schedules: vec![shared; n * n],
        }
    }

    /// All pairs share constant parameters.
    #[must_use]
    pub fn uniform_constant(n: usize, params: NetParams) -> Self {
        Self::uniform(n, LinkSchedule::constant(params))
    }

    /// Build from an explicit per-pair function.
    #[must_use]
    fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> LinkSchedule) -> Self {
        assert!(n > 0, "topology needs at least one node");
        let mut schedules = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                schedules.push(Arc::new(f(from, to)));
            }
        }
        Self { n, schedules }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty (never: construction requires n > 0).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Schedule of the directed pair.
    #[must_use]
    pub fn schedule(&self, from: usize, to: usize) -> Arc<LinkSchedule> {
        assert!(from < self.n && to < self.n, "pair out of range");
        self.schedules[from * self.n + to].clone()
    }

    /// Replace both directions of a pair.
    pub fn set_pair(&mut self, a: usize, b: usize, schedule: LinkSchedule) {
        let shared = Arc::new(schedule);
        self.schedules[a * self.n + b] = shared.clone();
        self.schedules[b * self.n + a] = shared;
    }

    /// Grow the topology by `extra` nodes whose links (in both directions,
    /// to every existing and new node) use `schedule`. Used to attach client
    /// nodes to a server mesh.
    #[must_use]
    pub fn extend_with(&self, extra: usize, schedule: LinkSchedule) -> Topology {
        let m = self.n + extra;
        let shared = Arc::new(schedule);
        let mut schedules = Vec::with_capacity(m * m);
        for from in 0..m {
            for to in 0..m {
                if from < self.n && to < self.n {
                    schedules.push(self.schedules[from * self.n + to].clone());
                } else {
                    schedules.push(shared.clone());
                }
            }
        }
        Topology { n: m, schedules }
    }
}

/// The five AWS regions of the paper's Figure 8 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// ap-northeast-1
    Tokyo,
    /// eu-west-2
    London,
    /// us-west-1
    California,
    /// ap-southeast-2
    Sydney,
    /// sa-east-1
    SaoPaulo,
}

impl Region {
    /// The paper's five regions, in presentation order.
    pub const ALL: [Region; 5] = [
        Region::Tokyo,
        Region::London,
        Region::California,
        Region::Sydney,
        Region::SaoPaulo,
    ];

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Region::Tokyo => "tokyo",
            Region::London => "london",
            Region::California => "california",
            Region::Sydney => "sydney",
            Region::SaoPaulo => "sao-paulo",
        }
    }

    fn index(self) -> usize {
        match self {
            Region::Tokyo => 0,
            Region::London => 1,
            Region::California => 2,
            Region::Sydney => 3,
            Region::SaoPaulo => 4,
        }
    }
}

/// Ballpark inter-region RTTs in milliseconds (public measurement data;
/// symmetric). Indexed by [`Region::index`].
const GEO_RTT_MS: [[u64; 5]; 5] = [
    //            TYO  LON  CAL  SYD  GRU
    /* TYO */ [0, 210, 110, 105, 255],
    /* LON */ [210, 0, 135, 270, 190],
    /* CAL */ [110, 135, 0, 140, 195],
    /* SYD */ [105, 270, 140, 0, 310],
    /* GRU */ [255, 190, 195, 310, 0],
];

/// Round-trip time between two regions.
#[must_use]
pub fn geo_rtt(a: Region, b: Region) -> Duration {
    Duration::from_millis(GEO_RTT_MS[a.index()][b.index()])
}

/// Build the Figure 8 geo topology: one node per entry of `regions`, WAN
/// links (jitter + residual loss) with the preset inter-region RTTs.
#[must_use]
pub fn geo_topology(regions: &[Region]) -> Topology {
    Topology::from_fn(regions.len(), |from, to| {
        if from == to {
            LinkSchedule::constant(NetParams::lan())
        } else {
            LinkSchedule::constant(NetParams::wan(geo_rtt(regions[from], regions[to])))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn uniform_shares_schedule() {
        let t = Topology::uniform_constant(4, NetParams::clean(Duration::from_millis(10)));
        assert_eq!(t.len(), 4);
        let s01 = t.schedule(0, 1);
        let s32 = t.schedule(3, 2);
        assert!(Arc::ptr_eq(&s01, &s32));
    }

    #[test]
    fn set_pair_overrides_both_directions() {
        let mut t = Topology::uniform_constant(3, NetParams::clean(Duration::from_millis(10)));
        t.set_pair(
            0,
            2,
            LinkSchedule::constant(NetParams::clean(Duration::from_millis(99))),
        );
        assert_eq!(
            t.schedule(0, 2).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(99)
        );
        assert_eq!(
            t.schedule(2, 0).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(99)
        );
        assert_eq!(
            t.schedule(0, 1).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(10)
        );
    }

    #[test]
    fn geo_matrix_is_symmetric_with_zero_diagonal() {
        for a in Region::ALL {
            assert_eq!(geo_rtt(a, a), Duration::ZERO);
            for b in Region::ALL {
                assert_eq!(geo_rtt(a, b), geo_rtt(b, a));
            }
        }
    }

    #[test]
    fn geo_topology_uses_matrix() {
        let t = geo_topology(&Region::ALL);
        assert_eq!(t.len(), 5);
        let tokyo_london = t.schedule(0, 1).params_at(SimTime::ZERO);
        assert_eq!(tokyo_london.rtt, Duration::from_millis(210));
        assert!(tokyo_london.jitter_cv > 0.0, "WAN links should have jitter");
    }

    #[test]
    fn extend_with_adds_client_nodes() {
        let t = Topology::uniform_constant(3, NetParams::clean(Duration::from_millis(10)));
        let t2 = t.extend_with(
            2,
            LinkSchedule::constant(NetParams::clean(Duration::from_millis(1))),
        );
        assert_eq!(t2.len(), 5);
        // original links intact
        assert_eq!(
            t2.schedule(0, 1).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(10)
        );
        // new links use the client schedule
        assert_eq!(
            t2.schedule(0, 4).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(1)
        );
        assert_eq!(
            t2.schedule(4, 2).params_at(SimTime::ZERO).rtt,
            Duration::from_millis(1)
        );
    }
}
