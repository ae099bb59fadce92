//! Failure injection: protocol misuse must fail loudly (panic propagated
//! to the caller), never silently corrupt results or hang.

use mttkrp_netsim::{collectives, Comm, PeerExchange, SimMachine};

fn must_panic(f: impl FnOnce() + std::panic::UnwindSafe) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence expected panic output
    let r = std::panic::catch_unwind(f);
    std::panic::set_hook(prev);
    assert!(r.is_err(), "expected the misuse to panic");
}

#[test]
fn mismatched_reduce_scatter_counts_detected() {
    // One rank disagrees on the segment sizes: the ring exchange sees a
    // wrong-size segment and asserts.
    must_panic(|| {
        SimMachine::new(2).run(|rank| {
            let world = rank.world();
            let counts = if rank.world_rank() == 0 {
                vec![2usize, 2]
            } else {
                vec![1usize, 3]
            };
            let data = vec![1.0; 4];
            collectives::reduce_scatter(rank, &world, &data, &counts)
        });
    });
}

#[test]
fn wrong_data_length_in_reduce_scatter_detected() {
    must_panic(|| {
        SimMachine::new(2).run(|rank| {
            let world = rank.world();
            collectives::reduce_scatter(rank, &world, &[1.0, 2.0, 3.0], &[1, 1])
        });
    });
}

#[test]
fn nonmember_collective_participation_detected() {
    must_panic(|| {
        SimMachine::new(3).run(|rank| {
            // Rank 2 tries to join a communicator it is not in.
            let comm = Comm::subset(vec![0, 1], 5);
            collectives::all_gather(rank, &comm, &[rank.world_rank() as f64])
        });
    });
}

#[test]
fn unconsumed_message_detected_at_exit() {
    must_panic(|| {
        SimMachine::new(2).run(|rank| {
            let world = rank.world();
            if rank.world_rank() == 0 {
                rank.send(&world, 1, &[1.0]);
            }
            // Rank 1 never receives: quiescence check fires.
        });
    });
}

#[test]
fn empty_communicator_rejected() {
    must_panic(|| {
        let _ = Comm::subset(vec![], 0);
    });
}

#[test]
fn wrong_grid_size_rejected() {
    must_panic(|| {
        let g = mttkrp_netsim::ProcessorGrid::new(&[2, 2]);
        let _ = g.rank(&[1, 2]); // coordinate out of range
    });
}

#[test]
fn collectives_still_work_after_failed_run() {
    // A panicked run must not poison subsequent machines (no global state).
    must_panic(|| {
        SimMachine::new(2).run(|rank| {
            if rank.world_rank() == 1 {
                panic!("injected");
            }
        });
    });
    let res = SimMachine::new(2).run(|rank| {
        let world = rank.world();
        collectives::all_reduce(rank, &world, &[1.0])[0]
    });
    assert_eq!(res.outputs, vec![2.0, 2.0]);
}
