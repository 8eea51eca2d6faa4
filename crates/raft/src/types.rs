//! Fundamental Raft identifiers and roles.

/// Node identifier (dense indices, matching the simulator's node ids).
pub type NodeId = usize;

/// Raft term number.
pub type Term = u64;

/// Log index (1-based; 0 is the sentinel "before the log").
pub type LogIndex = u64;

/// The role a server currently plays (§II-A of the paper; pre-candidate is
/// the pre-vote phase of recent Raft implementations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Passive replica; responds to the leader and votes.
    Follower,
    /// Running the pre-vote phase (term not yet incremented).
    PreCandidate,
    /// Running a real election (term incremented, votes requested).
    Candidate,
    /// The single active leader of its term.
    Leader,
}

/// Majority size for a cluster of `n` voters.
#[must_use]
pub fn quorum(n: usize) -> usize {
    n / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sizes() {
        assert_eq!(quorum(1), 1);
        assert_eq!(quorum(2), 2);
        assert_eq!(quorum(3), 2);
        assert_eq!(quorum(5), 3);
        assert_eq!(quorum(17), 9);
        assert_eq!(quorum(65), 33);
    }
}
