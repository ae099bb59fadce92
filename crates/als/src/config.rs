//! Configuration for a CP-ALS run: rank, stopping policy, machine, and
//! which backend executes the per-mode MTTKRPs.

use mttkrp_exec::MachineSpec;

/// Which [`Backend`](mttkrp_exec::Backend) executes the per-mode MTTKRPs.
///
/// The *plan* is always produced by the same cost-model planner for the
/// configured [`MachineSpec`]; this flag only chooses where the planned
/// kernel runs. Combined with the machine's `ranks` and `transport`, one
/// flag switches native ↔ simulator ↔ dist over channels ↔ dist over TCP.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// The plan's natural target: native hardware for sequential plans,
    /// the word-exact simulator for distributed ones (what
    /// [`mttkrp_exec::plan_and_execute`] does).
    #[default]
    Auto,
    /// The cache-tiled multi-threaded kernel
    /// ([`NativeBackend`](mttkrp_exec::NativeBackend)), sized to the
    /// machine's threads and fast memory.
    Native,
    /// The strict machine-model simulators
    /// ([`SimBackend`](mttkrp_exec::SimBackend)): exact word counts, the
    /// quantity the paper's bounds govern.
    Sim,
    /// The sharded multi-rank runtime (`mttkrp-dist`'s `DistBackend`):
    /// distributed plans run one thread per rank over the machine's
    /// transport (in-process channels, or TCP sockets when the
    /// [`MachineSpec`] says [`TransportSpec::Tcp`](mttkrp_exec::TransportSpec)).
    Dist,
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendChoice::Auto => write!(f, "auto"),
            BackendChoice::Native => write!(f, "native"),
            BackendChoice::Sim => write!(f, "sim"),
            BackendChoice::Dist => write!(f, "dist"),
        }
    }
}

/// Options for a CP-ALS factorization.
///
/// ```
/// use mttkrp_als::{AlsConfig, BackendChoice};
/// use mttkrp_exec::MachineSpec;
///
/// let config = AlsConfig::new(4)
///     .with_machine(MachineSpec::cluster(8, 1, 1 << 16))
///     .with_backend(BackendChoice::Dist)
///     .with_sweeps(30)
///     .with_tol(1e-9);
/// assert_eq!(config.rank, 4);
/// assert_eq!(config.machine.ranks, 8);
/// ```
#[derive(Clone, Debug)]
pub struct AlsConfig {
    /// CP rank `R` of the model to fit.
    pub rank: usize,
    /// Maximum number of sweeps over all modes.
    pub max_sweeps: usize,
    /// Stop when the fit changes by less than this between sweeps.
    pub tol: f64,
    /// Seed for the deterministic random initial factors.
    pub seed: u64,
    /// Ridge `eps` for [`mttkrp_tensor::solve_spd_ridge`]: when a sweep's
    /// Gram-Hadamard matrix is rank-deficient, the normal equations are
    /// retried with `V + eps*I` instead of erroring. Factor columns are
    /// unit-normalized every update (so `diag(V) <= 1`), which keeps a
    /// small absolute `eps` well-scaled.
    pub ridge: f64,
    /// The machine the per-mode MTTKRPs are planned for. `ranks == 1`
    /// yields sequential plans; `ranks > 1` distributed ones; `transport`
    /// picks channel vs TCP fabrics for [`BackendChoice::Dist`].
    pub machine: MachineSpec,
    /// Which backend executes the planned MTTKRPs.
    pub backend: BackendChoice,
}

impl AlsConfig {
    /// A rank-`rank` configuration with the default stopping policy
    /// (50 sweeps, fit tolerance `1e-8`, seed 0), a small ridge safeguard,
    /// the detected host machine, and the [`BackendChoice::Auto`] backend.
    ///
    /// # Panics
    /// Panics if `rank` is zero.
    pub fn new(rank: usize) -> AlsConfig {
        assert!(rank >= 1, "CP rank must be at least 1");
        AlsConfig {
            rank,
            max_sweeps: 50,
            tol: 1e-8,
            seed: 0,
            ridge: 1e-9,
            machine: MachineSpec::detect(),
            backend: BackendChoice::Auto,
        }
    }

    /// The same configuration planned for `machine`.
    pub fn with_machine(mut self, machine: MachineSpec) -> AlsConfig {
        self.machine = machine;
        self
    }

    /// The same configuration executing on `backend`.
    pub fn with_backend(mut self, backend: BackendChoice) -> AlsConfig {
        self.backend = backend;
        self
    }

    /// The same configuration with a sweep budget of `max_sweeps`.
    ///
    /// # Panics
    /// Panics if `max_sweeps` is zero.
    pub fn with_sweeps(mut self, max_sweeps: usize) -> AlsConfig {
        assert!(max_sweeps >= 1, "need at least one sweep");
        self.max_sweeps = max_sweeps;
        self
    }

    /// The same configuration with fit tolerance `tol`.
    pub fn with_tol(mut self, tol: f64) -> AlsConfig {
        self.tol = tol;
        self
    }

    /// The same configuration with initialization seed `seed`.
    pub fn with_seed(mut self, seed: u64) -> AlsConfig {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_sets_every_field() {
        let c = AlsConfig::new(3)
            .with_machine(MachineSpec::shared(1, 256))
            .with_backend(BackendChoice::Sim)
            .with_sweeps(7)
            .with_tol(1e-4)
            .with_seed(9);
        assert_eq!(c.rank, 3);
        assert_eq!(c.machine, MachineSpec::shared(1, 256));
        assert_eq!(c.backend, BackendChoice::Sim);
        assert_eq!(c.max_sweeps, 7);
        assert_eq!(c.tol, 1e-4);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn backend_choice_displays() {
        assert_eq!(BackendChoice::Auto.to_string(), "auto");
        assert_eq!(BackendChoice::Dist.to_string(), "dist");
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn zero_rank_rejected() {
        let _ = AlsConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "sweep")]
    fn zero_sweeps_rejected() {
        let _ = AlsConfig::new(1).with_sweeps(0);
    }
}
