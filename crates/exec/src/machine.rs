//! Machine descriptions the planner optimizes for.

/// Default planner cache capacity when nothing better is known: 2^21 words
/// (16 MiB of `f64`), a typical shared last-level cache slice.
pub const DEFAULT_CACHE_WORDS: usize = 1 << 21;

/// How the ranks of a distributed machine exchange words.
///
/// The paper's cost models count words, not wire time, so the planner's
/// decisions are transport-independent — but the machine description names
/// the transport so a `Plan::explain` says where its words will physically
/// travel, and so a distributed executor (the `mttkrp-dist` runtime) knows
/// which fabric to wire up. The schedule contract is the same either way:
/// measured traffic must equal the netsim prediction collective by
/// collective on both transports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TransportSpec {
    /// Ranks are threads in one process exchanging owned buffers over
    /// in-process channels (the default).
    #[default]
    InProcess,
    /// Ranks exchange length-prefixed binary frames over TCP sockets
    /// (loopback or a real network).
    Tcp,
}

impl std::fmt::Display for TransportSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportSpec::InProcess => write!(f, "in-process channels"),
            TransportSpec::Tcp => write!(f, "tcp sockets"),
        }
    }
}

/// A description of the execution target, in the vocabulary of the paper's
/// two machine models:
///
/// - `fast_memory_words` is the capacity `M` of the sequential model's fast
///   memory (for the native backend: the cache level the tiling targets);
/// - `ranks` is the processor count `P` of the distributed model. With
///   `ranks == 1` the planner compares the *sequential* algorithms
///   (Algorithms 1/2, matmul baseline); with `ranks > 1` it compares the
///   *parallel* ones (Algorithms 3/4, CARMA baseline);
/// - `threads` is the shared-memory parallelism the native backend may use;
/// - `transport` names the fabric the ranks exchange words over (it never
///   changes the planner's choice — word counts are transport-independent).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MachineSpec {
    /// Shared-memory threads available to the native backend.
    pub threads: usize,
    /// Fast-memory capacity `M` in words (`f64`s).
    pub fast_memory_words: usize,
    /// Distributed ranks `P` to plan for (1 = sequential planning).
    pub ranks: usize,
    /// The fabric the ranks exchange words over.
    pub transport: TransportSpec,
}

impl MachineSpec {
    /// The host's available core count (1 if detection fails) — the single
    /// source of truth for "how many threads does this machine have".
    pub fn detect_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Detects the host: all available cores, default cache size, one rank.
    pub fn detect() -> MachineSpec {
        MachineSpec {
            threads: MachineSpec::detect_threads(),
            fast_memory_words: DEFAULT_CACHE_WORDS,
            ranks: 1,
            transport: TransportSpec::InProcess,
        }
    }

    /// A shared-memory machine: `threads` cores over a cache of
    /// `cache_words` words.
    pub fn shared(threads: usize, cache_words: usize) -> MachineSpec {
        assert!(threads >= 1, "need at least one thread");
        MachineSpec {
            threads,
            fast_memory_words: cache_words,
            ranks: 1,
            transport: TransportSpec::InProcess,
        }
    }

    /// A multi-node machine: `ranks` distributed processors, each node
    /// with `threads` shared-memory cores over a fast memory of
    /// `cache_words` words. This is the machine a `mttkrp-dist` run
    /// executes on — the planner costs the inter-rank communication
    /// (Algorithms 3/4 and the matmul baseline), and the per-node
    /// parameters size the local kernel.
    pub fn cluster(ranks: usize, threads: usize, cache_words: usize) -> MachineSpec {
        assert!(ranks >= 1, "need at least one rank");
        assert!(threads >= 1, "need at least one thread per node");
        MachineSpec {
            threads,
            fast_memory_words: cache_words.max(1),
            ranks,
            transport: TransportSpec::InProcess,
        }
    }

    /// The same machine with its ranks wired over `transport`.
    ///
    /// ```
    /// use mttkrp_exec::{MachineSpec, TransportSpec};
    ///
    /// let m = MachineSpec::cluster(4, 1, 1 << 16).with_transport(TransportSpec::Tcp);
    /// assert_eq!(m.transport, TransportSpec::Tcp);
    /// assert_eq!(m.ranks, 4); // everything else is unchanged
    /// ```
    pub fn with_transport(mut self, transport: TransportSpec) -> MachineSpec {
        self.transport = transport;
        self
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec::detect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_sane() {
        let m = MachineSpec::detect();
        assert!(m.threads >= 1);
        assert!(m.fast_memory_words > 0);
        assert_eq!(m.ranks, 1);
    }

    #[test]
    fn constructors() {
        assert_eq!(MachineSpec::shared(1, 64).threads, 1);
        assert_eq!(MachineSpec::shared(8, 1 << 10).threads, 8);
        assert_eq!(MachineSpec::cluster(16, 1, DEFAULT_CACHE_WORDS).ranks, 16);
        let cluster = MachineSpec::cluster(4, 2, 1 << 12);
        assert_eq!((cluster.ranks, cluster.threads), (4, 2));
    }

    #[test]
    fn transport_defaults_in_process_and_is_hash_relevant() {
        use std::collections::HashSet;
        let base = MachineSpec::cluster(4, 1, 1 << 12);
        assert_eq!(base.transport, TransportSpec::InProcess);
        let tcp = base.clone().with_transport(TransportSpec::Tcp);
        assert_ne!(base, tcp);
        let set: HashSet<MachineSpec> = [base, tcp].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
