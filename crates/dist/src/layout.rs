//! Rank data layouts — what each rank *owns* before a run starts — at the
//! path a process running one rank takes its shard from: the sharders of
//! [`mttkrp_core::par::layout`], which `mttkrp-core`'s runners and
//! [`crate::backend::run_plan_rank`] share. The tests here pin what the
//! launcher relies on: a rank's own shard is its entry in the whole-machine
//! sharder, and holds exactly its box.

pub use mttkrp_core::par::layout::{
    alg3_shard, alg4_shard, matmul_shard, shard_alg3, shard_alg4, shard_matmul,
};

#[cfg(test)]
mod tests {
    use super::*;
    use mttkrp_core::kernels::TensorBlock;
    use mttkrp_tensor::{DenseTensor, Matrix, Shape};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
        crate::operands(dims, r, seed, 40)
    }

    #[test]
    fn alg3_shards_tile_tensor_and_factors() {
        let (x, factors) = setup(&[4, 6, 8], 3, 1);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let shards = shard_alg3(&x, &refs, 0, &[2, 2, 2]);
        assert_eq!(shards.len(), 8);
        // Subtensor blocks partition the entry count.
        let total: usize = shards.iter().map(|s| entries(&s.block).len()).sum();
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
            assert_eq!(s.block.as_ref().unwrap().shape().dims(), &[4, 2, 8]);
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
        let shape = Shape::new(&extents);
        let mut idx = vec![0; shape.order()];
        (0..shape.num_entries())
            .map(|lin| {
                shape.delinearize_into(lin, &mut idx);
                let at: Vec<usize> = idx.iter().zip(ranges).map(|(i, r)| i + r.0).collect();
                x.get(&at)
            })
            .collect()
    }

    /// A shard's block entries, read through its view.
    fn entries(block: &Option<TensorBlock>) -> Vec<f64> {
        block
            .as_ref()
            .map_or_else(Vec::new, |b| b.copy_entries(0, b.shape().num_entries()))
    }

    #[test]
    fn a_ranks_own_shard_is_its_entry_in_the_sharder_and_holds_its_box() {
        let (x, factors) = setup(&[4, 6, 8], 6, 5);
        let refs: Vec<&Matrix> = factors.iter().collect();
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
    fn uneven_shards_tile_tensor_and_factors() {
        // I_0 = 5 on P_0 = 2 cuts blocks of 3 and 2; P_2 = 6 > I_2 = 4
        // leaves four blocks empty; R = 5 on P_0 = 2 cuts 3 + 2 columns.
        let (x, factors) = setup(&[5, 4, 4], 5, 4);
        let refs: Vec<&Matrix> = factors.iter().collect();
        let shards = shard_alg3(&x, &refs, 0, &[2, 1, 6]);
        assert_eq!(shards.iter().filter(|s| s.block.is_none()).count(), 4);
        let mut seen: Vec<f64> = shards.iter().flat_map(|s| entries(&s.block)).collect();
        let mut all = x.data().to_vec();
        seen.sort_by(f64::total_cmp);
        all.sort_by(f64::total_cmp);
        assert_eq!(seen, all, "the blocks tile the tensor");
        for (k, factor) in factors.iter().enumerate() {
            let owned = shards
                .iter()
                .map(|s| s.factor_rows[k].1 - s.factor_rows[k].0);
            assert_eq!(owned.sum::<usize>(), factor.rows(), "mode {k}");
        }

        let shards = shard_alg4(&x, &refs, 1, 2, &[2, 1, 3]);
        let parts = shards.iter().map(|s| s.tensor_part.len());
        assert_eq!(parts.sum::<usize>(), x.num_entries());
        for s in &shards {
            let (c0, c1) = s.col_range;
            assert_eq!((c0, c1), if s.rank % 2 == 0 { (0, 3) } else { (3, 5) });
            for (k, chunk) in s.factor_chunks.iter().enumerate() {
                let (g0, g1) = s.factor_rows[k];
                let rows = (g0..g1).flat_map(|row| factors[k].row(row)[c0..c1].to_vec());
                assert_eq!(chunk, &rows.collect::<Vec<f64>>());
            }
        }
    }
}
