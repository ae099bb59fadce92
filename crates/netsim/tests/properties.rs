#![allow(clippy::needless_range_loop)]

//! Property-based tests for the distributed-machine simulator: collective
//! semantics and exact bucket cost accounting for arbitrary sizes.

use mttkrp_netsim::{collectives, Comm, PeerExchange, ProcessorGrid, SimMachine};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_gather_concatenates_and_costs_exactly(p in 1usize..7, w in 0usize..5) {
        let res = SimMachine::new(p).run(move |rank| {
            let world = rank.world();
            let me = rank.world_rank();
            let local: Vec<f64> = (0..w).map(|i| (me * 100 + i) as f64).collect();
            collectives::all_gather(rank, &world, &local)
        });
        let mut expect = Vec::new();
        for r in 0..p {
            expect.extend((0..w).map(|i| (r * 100 + i) as f64));
        }
        for out in &res.outputs {
            prop_assert_eq!(out, &expect);
        }
        // Bucket cost: (p-1)*w each way per rank.
        for st in &res.stats {
            prop_assert_eq!(st.words_sent as usize, (p - 1) * w);
            prop_assert_eq!(st.words_received as usize, (p - 1) * w);
        }
    }

    #[test]
    fn reduce_scatter_sums_and_costs_exactly(
        p in 1usize..6,
        counts_frac in prop::collection::vec(0usize..4, 1..6),
    ) {
        // counts vector padded/cut to length p.
        let counts: Vec<usize> = (0..p).map(|i| counts_frac.get(i).copied().unwrap_or(1)).collect();
        let total: usize = counts.iter().sum();
        let counts2 = counts.clone();
        let res = SimMachine::new(p).run(move |rank| {
            let world = rank.world();
            let me = rank.world_rank();
            let data: Vec<f64> = (0..total).map(|i| (me * total + i) as f64).collect();
            collectives::reduce_scatter(rank, &world, &data, &counts2)
        });
        // Expected: elementwise sum over ranks, segmented.
        let mut offset = 0;
        for (i, &c) in counts.iter().enumerate() {
            let expect: Vec<f64> = (0..c)
                .map(|j| (0..p).map(|r| (r * total + offset + j) as f64).sum())
                .collect();
            prop_assert_eq!(&res.outputs[i], &expect);
            offset += c;
        }
        // Sends: sum of all segments except own (ring forwards each
        // other segment exactly once).
        for (i, st) in res.stats.iter().enumerate() {
            if p > 1 {
                let others: usize = total - counts[i];
                // sent = total - counts[me]; received = total - counts[me-1].
                prop_assert_eq!(st.words_sent as usize, others);
                let prev = (i + p - 1) % p;
                prop_assert_eq!(st.words_received as usize, total - counts[prev]);
            } else {
                prop_assert_eq!(st.total_words(), 0);
            }
        }
    }

    #[test]
    fn all_reduce_equals_serial_sum(p in 1usize..6, n in 0usize..7) {
        let res = SimMachine::new(p).run(move |rank| {
            let world = rank.world();
            let me = rank.world_rank() as f64;
            let data: Vec<f64> = (0..n).map(|i| me * 10.0 + i as f64).collect();
            collectives::all_reduce(rank, &world, &data)
        });
        let expect: Vec<f64> = (0..n)
            .map(|i| (0..p).map(|r| r as f64 * 10.0 + i as f64).sum())
            .collect();
        for out in &res.outputs {
            prop_assert_eq!(out, &expect);
        }
    }

    #[test]
    fn word_conservation_on_random_point_to_point(
        p in 2usize..6,
        edges in prop::collection::vec((0usize..6, 0usize..6, 1usize..5), 1..10),
    ) {
        // Arbitrary send/recv pattern: total sent == total received.
        let edges: Vec<(usize, usize, usize)> = edges
            .into_iter()
            .map(|(a, b, w)| (a % p, b % p, w))
            .collect();
        let edges2 = edges.clone();
        let res = SimMachine::new(p).run(move |rank| {
            let world = rank.world();
            let me = rank.world_rank();
            // Deterministic order: all sends first (channels are buffered),
            // then receives in edge order.
            for &(src, dst, w) in &edges2 {
                if src == me {
                    rank.send(&world, dst, &vec![1.0; w]);
                }
            }
            for &(src, dst, w) in &edges2 {
                if dst == me {
                    let got = rank.recv(&world, src);
                    assert_eq!(got.len(), w);
                }
            }
        });
        let sent: u64 = res.stats.iter().map(|s| s.words_sent).sum();
        let recv: u64 = res.stats.iter().map(|s| s.words_received).sum();
        prop_assert_eq!(sent, recv);
        let expect: usize = edges.iter().map(|&(_, _, w)| w).sum();
        prop_assert_eq!(sent as usize, expect);
    }

    #[test]
    fn grid_coords_bijective(dims in prop::collection::vec(1usize..5, 1..5)) {
        let g = ProcessorGrid::new(&dims);
        let p = g.num_ranks();
        let mut seen = vec![false; p];
        for r in 0..p {
            let c = g.coords(r);
            let back = g.rank(&c);
            prop_assert_eq!(back, r);
            prop_assert!(!seen[r]);
            seen[r] = true;
        }
    }

    #[test]
    fn hyperslices_partition_the_grid(dims in prop::collection::vec(1usize..4, 2..4), dim_frac in 0.0f64..1.0) {
        let g = ProcessorGrid::new(&dims);
        let d = ((dims.len() - 1) as f64 * dim_frac) as usize;
        let p = g.num_ranks();
        // Each rank belongs to exactly one hyperslice normal to d, and the
        // slices partition [P].
        let mut counts = vec![0usize; p];
        for r in 0..p {
            let comm = g.hyperslice_comm(r, d);
            prop_assert!(comm.local_index(r).is_some());
            prop_assert_eq!(comm.size(), p / dims[d]);
            for &m in comm.members() {
                if m == r {
                    counts[r] += 1;
                }
            }
        }
        prop_assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn subcommunicator_collectives_stay_inside(p in 2usize..7, split in 1usize..6) {
        // Two disjoint groups all-reduce independently; sums never leak.
        let cut = split.min(p - 1);
        let res = SimMachine::new(p).run(move |rank| {
            let me = rank.world_rank();
            let members: Vec<usize> = if me < cut {
                (0..cut).collect()
            } else {
                (cut..p).collect()
            };
            let comm = Comm::subset(members, 77);
            collectives::all_reduce(rank, &comm, &[1.0])[0]
        });
        for (r, &v) in res.outputs.iter().enumerate() {
            let expect = if r < cut { cut } else { p - cut } as f64;
            prop_assert_eq!(v, expect);
        }
    }
}
