//! Explainable execution plans: what the planner chose and what it was
//! offered.

use crate::machine::MachineSpec;
use mttkrp_core::Problem;
use std::fmt;

/// One of the paper's MTTKRP algorithms, fully parameterized so a backend
/// can execute it without re-deriving anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1: sequential unblocked, fast memory of `memory` words.
    SeqUnblocked {
        /// Fast-memory capacity `M` in words.
        memory: usize,
    },
    /// Algorithm 2: sequential blocked with block edge `block`.
    SeqBlocked {
        /// Fast-memory capacity `M` in words.
        memory: usize,
        /// Block edge `b` (Eq. (11) residency constraint).
        block: usize,
    },
    /// Sequential matmul baseline (Section VI-A).
    SeqMatmul {
        /// Fast-memory capacity `M` in words.
        memory: usize,
    },
    /// Algorithm 3: parallel stationary over the processor grid
    /// `P_1 x ... x P_N`.
    ParStationary {
        /// Processor grid `P_1 x ... x P_N` (one factor per mode).
        grid: Vec<usize>,
    },
    /// Algorithm 4: parallel general with rank-dimension cut `p0` and grid
    /// `P_1 x ... x P_N` (total procs `p0 * prod grid`).
    ParGeneral {
        /// Rank-dimension cut `P_0`.
        p0: usize,
        /// Processor grid `P_1 x ... x P_N` (one factor per mode).
        grid: Vec<usize>,
    },
    /// Parallel matmul baseline (CARMA model, 1D execution).
    ParMatmul {
        /// Total processor count `P`.
        procs: usize,
    },
}

impl Algorithm {
    /// Whether this is one of the sequential (single-rank) algorithms.
    pub fn is_sequential(&self) -> bool {
        matches!(
            self,
            Algorithm::SeqUnblocked { .. }
                | Algorithm::SeqBlocked { .. }
                | Algorithm::SeqMatmul { .. }
        )
    }

    /// Short human label, e.g. `alg2(b=16)`.
    pub fn label(&self) -> String {
        match self {
            Algorithm::SeqUnblocked { .. } => "alg1".to_string(),
            Algorithm::SeqBlocked { block, .. } => format!("alg2(b={block})"),
            Algorithm::SeqMatmul { .. } => "seq-matmul".to_string(),
            Algorithm::ParStationary { grid } => format!("alg3(grid={})", fmt_grid(grid)),
            Algorithm::ParGeneral { p0, grid } => {
                format!("alg4(p0={p0}, grid={})", fmt_grid(grid))
            }
            Algorithm::ParMatmul { procs } => format!("par-matmul(P={procs})"),
        }
    }
}

fn fmt_grid(grid: &[usize]) -> String {
    grid.iter()
        .map(|g| g.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A candidate the planner evaluated: the fully parameterized algorithm and
/// its modeled communication cost (words; per-processor for the parallel
/// models).
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The fully parameterized algorithm that was considered.
    pub algorithm: Algorithm,
    /// Its modeled communication cost in words (per-processor for the
    /// parallel models).
    pub modeled_cost: f64,
}

/// An explainable execution plan: the chosen algorithm, its predicted cost,
/// and every alternative the planner weighed — so "why this plan?" is always
/// answerable from the plan itself.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The problem the plan was made for.
    pub problem: Problem,
    /// Output mode `n`.
    pub mode: usize,
    /// The machine the planner optimized for.
    pub machine: MachineSpec,
    /// The winning algorithm, fully parameterized.
    pub algorithm: Algorithm,
    /// Modeled cost of the winner (words moved; per-processor for parallel).
    pub predicted_cost: f64,
    /// Every candidate that was considered, in evaluation order.
    pub candidates: Vec<Candidate>,
    /// [`Plan::native_tile`], worked out when the plan is made.
    pub(crate) tile: usize,
}

impl Plan {
    /// A plan with its native tile worked out.
    pub(crate) fn new(
        problem: Problem,
        mode: usize,
        machine: MachineSpec,
        algorithm: Algorithm,
        predicted_cost: f64,
        candidates: Vec<Candidate>,
    ) -> Plan {
        let rank_aware = crate::native::native_tile(
            machine.fast_memory_words,
            problem.order(),
            problem.rank as usize,
        );
        let tile = match &algorithm {
            Algorithm::SeqBlocked { block, .. } => (*block).max(1).min(rank_aware),
            _ => rank_aware,
        };
        Plan {
            problem,
            mode,
            machine,
            algorithm,
            predicted_cost,
            candidates,
            tile,
        }
    }

    /// The native backend's cache-tile edge, worked out once, when the plan
    /// is made: editing the plan's fields afterwards does not change it.
    /// Algorithm 2's block size is chosen for the simulator's per-column
    /// residency (`b^N + N*b`); the native kernel keeps whole `b x R`
    /// factor sub-blocks resident, so the plan's block is additionally
    /// capped by the rank-aware Eq. (11) analogue
    /// ([`crate::native::native_tile`]) to stay inside the machine's cache
    /// budget.
    pub fn native_tile(&self) -> usize {
        self.tile
    }

    /// One-line description of the parallel data distribution this plan
    /// prescribes — e.g. `"4 ranks, 2x2x1 grid, Algorithm 4"` — or `None`
    /// for a sequential plan. This is the layout a distributed executor
    /// (the `mttkrp-dist` runtime, or the netsim replay) realizes.
    fn distribution(&self) -> Option<String> {
        match &self.algorithm {
            Algorithm::ParStationary { grid } => Some(format!(
                "{} ranks, {} grid, Algorithm 3 (stationary tensor)",
                grid.iter().product::<usize>(),
                fmt_grid(grid)
            )),
            Algorithm::ParGeneral { p0, grid } => Some(format!(
                "{} ranks, {p0}x{} grid (rank cut P0={p0}), Algorithm 4",
                p0 * grid.iter().product::<usize>(),
                fmt_grid(grid)
            )),
            Algorithm::ParMatmul { procs } => Some(format!(
                "{procs} ranks, 1D contraction slabs, parallel matmul baseline"
            )),
            _ => None,
        }
    }

    /// Multi-line explanation: problem, machine, candidate table, winner.
    ///
    /// "Why this plan?" is always answerable from the plan itself — every
    /// candidate the planner weighed appears in the table, and the winner is
    /// marked with `->`.
    ///
    /// ```
    /// use mttkrp_core::Problem;
    /// use mttkrp_exec::{MachineSpec, Planner};
    ///
    /// let plan = Planner::new(MachineSpec::shared(1, 128))
    ///     .plan(&Problem::cubical(3, 16, 4), 2);
    /// let text = plan.explain();
    /// assert!(text.contains("alg1"));       // every candidate is listed...
    /// assert!(text.contains("alg2"));
    /// assert!(text.contains("seq-matmul"));
    /// assert!(text.contains("chosen:"));    // ...and the winner is named
    /// ```
    pub fn explain(&self) -> String {
        let mut s = format!(
            "plan for dims {:?}, R = {}, mode {} on {} thread(s) / {} rank(s), M = {} words\n",
            self.problem.dims,
            self.problem.rank,
            self.mode,
            self.machine.threads,
            self.machine.ranks,
            self.machine.fast_memory_words,
        );
        for c in &self.candidates {
            let marker = if c.algorithm == self.algorithm {
                "->"
            } else {
                "  "
            };
            s.push_str(&format!(
                "{marker} {:<32} modeled cost {:.4e} words\n",
                c.algorithm.label(),
                c.modeled_cost
            ));
        }
        s.push_str(&format!(
            "chosen: {} (predicted {:.4e} words)",
            self.algorithm.label(),
            self.predicted_cost
        ));
        if let Some(dist) = self.distribution() {
            s.push_str(&format!("\ndistribution: {dist}"));
            s.push_str(&format!("\ntransport: {}", self.machine.transport));
        }
        s
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DEFAULT_CACHE_WORDS;

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(Algorithm::SeqUnblocked { memory: 64 }.label(), "alg1");
        assert_eq!(
            Algorithm::SeqBlocked {
                memory: 64,
                block: 4
            }
            .label(),
            "alg2(b=4)"
        );
        assert_eq!(
            Algorithm::ParStationary {
                grid: vec![2, 2, 4]
            }
            .label(),
            "alg3(grid=2x2x4)"
        );
        assert_eq!(
            Algorithm::ParGeneral {
                p0: 2,
                grid: vec![2, 1, 1]
            }
            .label(),
            "alg4(p0=2, grid=2x1x1)"
        );
    }

    #[test]
    fn sequential_classification() {
        assert!(Algorithm::SeqMatmul { memory: 9 }.is_sequential());
        assert!(!Algorithm::ParMatmul { procs: 4 }.is_sequential());
    }

    #[test]
    fn distribution_line_names_ranks_grid_and_algorithm() {
        let mut plan = Plan::new(
            mttkrp_core::Problem::cubical(3, 8, 4),
            0,
            MachineSpec::cluster(4, 1, DEFAULT_CACHE_WORDS),
            Algorithm::ParGeneral {
                p0: 2,
                grid: vec![2, 1, 1],
            },
            0.0,
            vec![],
        );
        let d = plan.distribution().unwrap();
        assert!(d.contains("4 ranks"), "{d}");
        assert!(d.contains("2x1x1"), "{d}");
        assert!(d.contains("Algorithm 4"), "{d}");
        assert!(plan.explain().contains("distribution: 4 ranks"));
        assert!(plan.explain().contains("transport: in-process channels"));

        plan.machine = plan
            .machine
            .clone()
            .with_transport(crate::TransportSpec::Tcp);
        assert!(plan.explain().contains("transport: tcp sockets"));

        plan.algorithm = Algorithm::SeqUnblocked { memory: 64 };
        assert!(plan.distribution().is_none());
        assert!(!plan.explain().contains("transport:"));
    }
}
