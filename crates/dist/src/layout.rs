//! Rank data layouts — what each rank *owns* before a run starts — at the
//! path a process running one rank takes its shard from: the sharders of
//! [`mttkrp_core::par::layout`], which `mttkrp-core`'s runners and
//! [`crate::backend::run_plan_rank`] share. The tests here pin what the
//! launcher relies on: a rank's own shard is its entry in the whole-machine
//! sharder, and holds exactly its box.

pub use mttkrp_core::par::layout::*;

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_core::kernels::TensorBlock;
    use mttkrp_tensor::{DenseTensor, Matrix, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        let shape = Shape::new(dims);
        let x = DenseTensor::random(shape.clone(), seed);
        let factors = dims
            .iter()
            .enumerate()
            .map(|(k, &d)| Matrix::random(d, r, seed + 40 + k as u64))
            .collect();
        (x, factors)
    }

    #[test]
    fn alg3_shards_tile_tensor_and_factors() {
        let (x, factors) = setup(&[4, 6, 8], 3, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let shards = shard_alg3(&x, &refs, 0, &[2, 2, 2]);
        assert_eq!(shards.len(), 8);
        // Subtensor blocks partition the entry count.
        let total: usize = shards.iter().map(|s| s.block.shape().num_entries()).sum();
        assert_eq!(total, x.num_entries());
        // Factor row chunks tile each factor exactly once: every mode-k
        // hyperslice partitions its block row, and the P_k hyperslices
        // cover the P_k disjoint block rows.
        for (k, factor) in factors.iter().enumerate() {
            let owned: usize = shards
                .iter()
                .map(|s| s.factor_rows[k].1 - s.factor_rows[k].0)
                .sum();
            assert_eq!(owned, factor.rows());
        }
        // Chunk values are the matching global rows.
        for s in &shards {
            for (k, factor) in factors.iter().enumerate() {
                let (g0, g1) = s.factor_rows[k];
                for (local, row) in (g0..g1).enumerate() {
                    assert_eq!(
                        &s.factor_chunks[k][local * 3..(local + 1) * 3],
                        factor.row(row)
                    );
                }
            }
        }
    }

    #[test]
    fn alg4_shards_tile_the_fibered_tensor() {
        let (x, factors) = setup(&[4, 4, 6], 6, 2);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let p0 = 3;
        let shards = shard_alg4(&x, &refs, 1, p0, &[2, 2, 1]);
        assert_eq!(shards.len(), 12);
        // Tensor parts over one fiber reassemble the subtensor exactly once:
        // total owned entries = |X| (each block cut into p0 disjoint parts).
        let total: usize = shards.iter().map(|s| s.tensor_part.len()).sum();
        assert_eq!(total, x.num_entries());
        // Column ranges tile [0, R) per fiber.
        for s in &shards {
            let cols = s.col_range.1 - s.col_range.0;
            assert_eq!(cols, 6 / p0);
            for (k, m) in s.factor_chunks.iter().enumerate() {
                let rows = s.factor_rows[k].1 - s.factor_rows[k].0;
                assert_eq!(m.len(), rows * cols);
            }
        }
    }

    #[test]
    fn matmul_shards_slab_the_right_mode() {
        let (x, factors) = setup(&[4, 6, 8], 2, 3);
        let refs: Vec<&Matrix> = factors.iter().collect();
        // n = 2 (the last mode): the slab must use mode 1.
        let shards = shard_matmul(&x, &refs, 2, 3);
        assert_eq!(shards.len(), 3);
        for s in &shards {
            assert_eq!(s.slab_mode, 1);
            assert_eq!(s.block.shape().dims(), &[4, 2, 8]);
            assert_eq!(s.local_factors[1].rows(), 2);
            assert_eq!(s.local_factors[0].rows(), 4);
        }
        let out_total: usize = shards.iter().map(|s| s.out_rows.1 - s.out_rows.0).sum();
        assert_eq!(out_total, 8);
    }

    /// The entries of the box `ranges` of `x` in the box's own colex order,
    /// read one by one.
    fn box_entries(x: &DenseTensor, ranges: &[(usize, usize)]) -> Vec<f64> {
        let extents: Vec<usize> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
        Shape::new(&extents)
            .indices()
            .map(|idx| {
                let at: Vec<usize> = idx.iter().zip(ranges).map(|(i, r)| i + r.0).collect();
                x.get(&at)
            })
            .collect()
    }

    #[test]
    fn a_ranks_own_shard_is_its_entry_in_the_sharder_and_holds_its_box() {
        let (x, factors) = setup(&[4, 6, 8], 6, 5);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let entries = |block: &TensorBlock| block.copy_entries(0, block.shape().num_entries());
        for (me, s) in shard_alg3(&x, &refs, 1, &[2, 3, 2]).iter().enumerate() {
            let own = alg3_shard(&x, &refs, 1, &[2, 3, 2], me);
            assert_eq!(own.rank, me);
            assert_eq!((&own.ranges, &own.factor_rows), (&s.ranges, &s.factor_rows));
            assert_eq!(own.factor_chunks, s.factor_chunks);
            assert_eq!(entries(&own.block), box_entries(&x, &own.ranges));
        }
        for (me, s) in shard_alg4(&x, &refs, 0, 3, &[2, 1, 2]).iter().enumerate() {
            let own = alg4_shard(&x, &refs, 0, 3, &[2, 1, 2], me);
            assert_eq!((own.part_range, own.col_range), (s.part_range, s.col_range));
            assert_eq!(own.factor_chunks, s.factor_chunks);
            let (t_lo, t_hi) = own.part_range;
            assert_eq!(own.tensor_part, box_entries(&x, &own.ranges)[t_lo..t_hi]);
        }
        for (me, s) in shard_matmul(&x, &refs, 2, 3).iter().enumerate() {
            let own = matmul_shard(&x, &refs, 2, 3, me);
            assert_eq!((own.slab_range, own.out_rows), (s.slab_range, s.out_rows));
            assert_eq!(own.local_factors, s.local_factors);
            let ranges = [(0, 4), own.slab_range, (0, 8)];
            assert_eq!(entries(&own.block), box_entries(&x, &ranges));
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn non_dividing_grid_rejected() {
        let (x, factors) = setup(&[5, 4, 4], 2, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let _ = shard_alg3(&x, &refs, 0, &[2, 2, 2]);
    }
}
