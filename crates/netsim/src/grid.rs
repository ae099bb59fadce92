//! Logical processor grids and their hyperslice subcommunicators.
//!
//! The paper's Algorithm 3 organizes `P = P_1 * ... * P_N` processors into an
//! `N`-way grid; Algorithm 4 uses an `(N+1)`-way grid `P = P_0 * P_1 * ... * P_N`.
//! Collectives run over *hyperslices*: the set of processors agreeing with
//! `p` in some subset of grid coordinates.
//!
//! Grid coordinates are linearized colexicographically (dimension 0
//! fastest), mirroring the tensor convention.

use crate::comm::Comm;

/// A logical multi-dimensional processor grid over world ranks `0..P`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessorGrid {
    dims: Vec<usize>,
}

impl ProcessorGrid {
    /// Creates a grid with the given extents; `P = dims.iter().product()`.
    ///
    /// # Panics
    /// Panics if `dims` is empty or contains zero.
    pub fn new(dims: &[usize]) -> ProcessorGrid {
        assert!(!dims.is_empty(), "grid must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "grid extents must be positive, got {dims:?}"
        );
        ProcessorGrid {
            dims: dims.to_vec(),
        }
    }

    /// Number of grid dimensions.
    fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of processors `P`.
    pub fn num_ranks(&self) -> usize {
        self.dims.iter().product()
    }

    /// Grid coordinates of a world rank (dimension 0 fastest).
    pub fn coords(&self, mut rank: usize) -> Vec<usize> {
        assert!(rank < self.num_ranks(), "rank out of range");
        let mut c = Vec::with_capacity(self.dims.len());
        for &d in &self.dims {
            c.push(rank % d);
            rank /= d;
        }
        c
    }

    /// World rank of grid coordinates.
    pub fn rank(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.dims.len(), "coordinate arity mismatch");
        let mut r = 0usize;
        let mut stride = 1usize;
        for (k, (&c, &d)) in coords.iter().zip(&self.dims).enumerate() {
            assert!(c < d, "coordinate {c} out of range in grid dim {k}");
            r += c * stride;
            stride *= d;
        }
        r
    }

    /// The *slice* through `rank` in which the coordinates listed in
    /// `varying` range over their full extents and all other coordinates are
    /// pinned to `rank`'s. Returns the member communicator.
    ///
    /// Examples (Algorithm 3, `N`-way grid): the All-Gather for mode `k`
    /// runs over `slice_comm(rank, all dims except k)`... more precisely the
    /// paper's hyperslice `{p' : p'_k = p_k}` is
    /// `slice_comm(rank, [0..N] \ {k})`, of size `P / P_k`.
    pub fn slice_comm(&self, rank: usize, varying: &[usize]) -> Comm {
        let base = self.coords(rank);
        for &v in varying {
            assert!(v < self.ndims(), "varying dimension {v} out of range");
        }
        assert!(
            varying.windows(2).all(|w| w[0] < w[1]),
            "varying dimensions must be strictly increasing"
        );
        // Enumerate members by iterating the varying coordinates
        // colexicographically; resulting world ranks are strictly increasing
        // because lower grid dims have smaller strides... that holds only
        // when iterating in colex order of the varying dims, which we do,
        // but interleaving with pinned higher dims can still reorder ranks.
        // Collect then sort to guarantee the Comm invariant.
        let count: usize = varying.iter().map(|&v| self.dims[v]).product();
        let mut members = Vec::with_capacity(count);
        let mut coords = base.clone();
        for mut lin in 0..count {
            for &v in varying {
                coords[v] = lin % self.dims[v];
                lin /= self.dims[v];
            }
            members.push(self.rank(&coords));
        }
        members.sort_unstable();
        // Salt the communicator id with the pinned coordinates so that
        // distinct slices over identical member sets (impossible here, but
        // cheap to guard) and distinct grids do not collide.
        let mut salt: u64 = 0x5eed;
        for (k, &c) in base.iter().enumerate() {
            if !varying.contains(&k) {
                salt = salt
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((k as u64) << 32 | c as u64);
            }
        }
        Comm::subset(members, salt)
    }

    /// The 1-D *fiber* through `rank` along dimension `dim`:
    /// `{p' : p'_j = p_j for all j != dim}`, of size `P_dim`.
    pub fn fiber_comm(&self, rank: usize, dim: usize) -> Comm {
        self.slice_comm(rank, &[dim])
    }

    /// The hyperslice through `rank` *normal* to dimension `dim`:
    /// `{p' : p'_dim = p_dim}`, of size `P / P_dim`. This is the
    /// communicator for Algorithm 3's mode-`dim` All-Gather/Reduce-Scatter.
    pub fn hyperslice_comm(&self, rank: usize, dim: usize) -> Comm {
        let varying: Vec<usize> = (0..self.ndims()).filter(|&j| j != dim).collect();
        self.slice_comm(rank, &varying)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let g = ProcessorGrid::new(&[2, 3, 2]);
        for r in 0..12 {
            assert_eq!(g.rank(&g.coords(r)), r);
        }
    }

    #[test]
    fn colex_rank_order() {
        let g = ProcessorGrid::new(&[2, 3]);
        assert_eq!(g.coords(0), vec![0, 0]);
        assert_eq!(g.coords(1), vec![1, 0]);
        assert_eq!(g.coords(2), vec![0, 1]);
        assert_eq!(g.coords(5), vec![1, 2]);
    }

    #[test]
    fn fiber_members() {
        let g = ProcessorGrid::new(&[2, 3]);
        // Fiber along dim 1 through rank 1 = coords (1, *) = ranks 1, 3, 5.
        let c = g.fiber_comm(1, 1);
        assert_eq!(c.members(), &[1, 3, 5]);
        // Fiber along dim 0 through rank 4 = coords (*, 2) = ranks 4, 5.
        let c = g.fiber_comm(4, 0);
        assert_eq!(c.members(), &[4, 5]);
    }

    #[test]
    fn hyperslice_members() {
        let g = ProcessorGrid::new(&[2, 2, 2]);
        // Hyperslice normal to dim 2 through rank 0: all ranks with p_2 = 0,
        // i.e. ranks 0..4.
        let c = g.hyperslice_comm(0, 2);
        assert_eq!(c.members(), &[0, 1, 2, 3]);
        // Normal to dim 0 through rank 1: p_0 = 1 -> ranks 1, 3, 5, 7.
        let c = g.hyperslice_comm(1, 0);
        assert_eq!(c.members(), &[1, 3, 5, 7]);
    }

    #[test]
    fn slice_comm_consistent_across_members() {
        // Every member of a slice must construct an identical Comm.
        let g = ProcessorGrid::new(&[2, 3, 2]);
        let c0 = g.hyperslice_comm(0, 1); // p_1 = 0
        for &m in c0.members() {
            assert_eq!(g.hyperslice_comm(m, 1), c0);
        }
    }

    #[test]
    fn disjoint_slices_have_distinct_ids() {
        let g = ProcessorGrid::new(&[2, 2]);
        let a = g.fiber_comm(0, 0); // row p_1 = 0: ranks {0, 1}
        let b = g.fiber_comm(2, 0); // row p_1 = 1: ranks {2, 3}
        assert_ne!(a, b);
        assert_ne!(a.members(), b.members());
    }

    #[test]
    fn whole_grid_slice_is_world() {
        let g = ProcessorGrid::new(&[2, 3]);
        let all: Vec<usize> = (0..g.ndims()).collect();
        let c = g.slice_comm(4, &all);
        assert_eq!(c.members(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn singleton_slice() {
        let g = ProcessorGrid::new(&[2, 3]);
        let c = g.slice_comm(3, &[]);
        assert_eq!(c.members(), &[3]);
        assert_eq!(c.size(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rank_panics() {
        let g = ProcessorGrid::new(&[2, 2]);
        let _ = g.coords(4);
    }
}
