//! Communicators: the subsets of ranks that point-to-point messages and
//! collectives address.
//!
//! A message is tagged with the sending rank and a communicator id, and a
//! transport's reorder buffer lets a rank receive selectively (by source and
//! communicator) while preserving the per-(sender, communicator) FIFO order
//! that MPI guarantees (see [`crate::transport`]).

/// A communicator: an ordered subset of world ranks, identified by a
/// deterministic id that every member computes identically.
///
/// `members[local] = world_rank`; local indices order all collectives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comm {
    id: u64,
    members: Vec<usize>,
}

impl Comm {
    /// The world communicator over `p` ranks.
    pub(crate) fn world(p: usize) -> Comm {
        Comm {
            id: fnv(&[u64::MAX, p as u64]),
            members: (0..p).collect(),
        }
    }

    /// A communicator over an explicit, strictly increasing list of world
    /// ranks. Every participating rank must construct it with the *same*
    /// list (and the same `salt`, which disambiguates distinct communicators
    /// over identical member sets).
    pub fn subset(members: Vec<usize>, salt: u64) -> Comm {
        assert!(!members.is_empty(), "communicator cannot be empty");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "communicator members must be strictly increasing"
        );
        let mut words: Vec<u64> = Vec::with_capacity(members.len() + 1);
        words.push(salt);
        words.extend(members.iter().map(|&m| m as u64));
        Comm {
            id: fnv(&words),
            members,
        }
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// World ranks of the members, in local-index order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Local index of a world rank, if it is a member.
    pub fn local_index(&self, world_rank: usize) -> Option<usize> {
        self.members.binary_search(&world_rank).ok()
    }

    /// World rank of a local index.
    pub fn world_rank(&self, local: usize) -> usize {
        self.members[local]
    }

    /// The deterministic communicator id (every member computes the same
    /// value), which every transport tags its messages with — in-process
    /// channels and the wire frames of `mttkrp-dist`'s TCP transport alike.
    pub fn id(&self) -> u64 {
        self.id
    }
}

fn fnv(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Phase;
    use crate::transport::{wire, PeerExchange};

    #[test]
    fn comm_ids_deterministic_and_distinct() {
        let a = Comm::subset(vec![0, 1, 2], 7);
        let b = Comm::subset(vec![0, 1, 2], 7);
        let c = Comm::subset(vec![0, 1, 2], 8);
        let d = Comm::subset(vec![0, 1, 3], 7);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_ne!(a.id(), d.id());
    }

    #[test]
    fn local_index_lookup() {
        let c = Comm::subset(vec![2, 5, 9], 0);
        assert_eq!(c.local_index(5), Some(1));
        assert_eq!(c.local_index(3), None);
        assert_eq!(c.world_rank(2), 9);
        assert_eq!(c.size(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_members_rejected() {
        let _ = Comm::subset(vec![3, 1], 0);
    }

    #[test]
    fn self_send_is_received() {
        let mut r0 = wire(1).pop().unwrap();
        let world = Comm::world(1);
        r0.begin_phase(Phase::Unscheduled);
        r0.send(&world, 0, &[7.0]);
        assert_eq!(r0.recv(&world, 0), vec![7.0]);
        let stats = r0.finish().totals();
        assert_eq!(stats.words_sent, 1);
        assert_eq!(stats.words_received, 1);
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn nonmember_send_panics() {
        let sub = Comm::subset(vec![0, 1], 0);
        let mut r2 = wire(3).remove(2);
        r2.begin_phase(Phase::Unscheduled);
        r2.send(&sub, 0, &[1.0]);
    }
}
