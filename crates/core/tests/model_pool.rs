//! Bounded model: node-pool recycling vs concurrent epoch retirement
//! (DESIGN.md §14).
//!
//! The pool hands a retired node's storage back to a thread-local
//! freelist *from the epoch collector* — the unsafe window is a block
//! reaching a freelist (and being reallocated as a fresh node) while a
//! concurrent operation still holds a pre-retirement snapshot of it. Both
//! racing threads here pop (the pair-retirement path: node + descriptor
//! through one `defer_destroy_pair_with` call), and under `--cfg model`
//! the collector threshold drops to 4 so recycling actually fires inside
//! these tiny runs. A premature recycle surfaces as a duplicated,
//! invented, or lost value in the conservation check; loomlite's SeqCst
//! interleaving exploration drives the epoch protocol through the
//! overlap schedules a stress test may never hit.
//!
//! Run with `RUSTFLAGS="--cfg model" cargo test -p stack2d --test 'model_*'`.
#![cfg(model)]

use loomlite::{check, Config};
use stack2d::sync::{thread, Arc};
use stack2d::{ConcurrentStack, Params, Stack2D, StackHandle};

#[test]
fn pooled_retirement_never_recycles_reachable_nodes() {
    let report = check(Config { max_schedules: 4_000, ..Config::default() }, || {
        // Width 1: both poppers contend on one sub-stack's descriptor,
        // maximising overlap between a winning pop's retirement and the
        // loser's retry against the same (now retired) snapshot.
        let stack: Arc<Stack2D<u64>> = Arc::new(
            Stack2D::builder().params(Params::new(1, 2, 1).unwrap()).seed(7).build().unwrap(),
        );
        {
            let mut h = stack.handle_seeded(1);
            h.push(10);
            h.push(20);
            h.push(30);
        }
        let poppers: Vec<_> = (0..2)
            .map(|t| {
                let s = Arc::clone(&stack);
                thread::spawn(move || {
                    let mut h = s.handle_seeded(t + 2);
                    // Pop then push: the push reallocates from the
                    // freelist the pop's retirement may just have fed,
                    // which is exactly the reuse-too-early hazard.
                    let got = h.pop();
                    if let Some(v) = got {
                        h.push(v + 100);
                    }
                    got
                })
            })
            .collect();
        let popped: Vec<u64> = poppers.into_iter().filter_map(|p| p.join().unwrap()).collect();
        // Every popped value was re-pushed relabeled (+100, possibly
        // twice if one popper draws the other's re-push), so identity
        // mod 100 is conserved: the final drain must recover exactly the
        // original multiset, and every observed value must descend from
        // the population. A stale recycle shows up as an invented, lost,
        // or duplicated value.
        let mut drained = Vec::new();
        let mut h = stack.handle_seeded(9);
        while let Some(v) = h.pop() {
            drained.push(v % 100);
        }
        drop(h);
        drained.sort_unstable();
        assert_eq!(drained, vec![10, 20, 30], "conservation broken; popped = {popped:?}");
        for v in &popped {
            assert!([10, 20, 30].contains(&(v % 100)), "popper got invented value {v}");
        }
    })
    .expect("no schedule may lose, invent, or duplicate a pooled node");
    assert!(
        report.schedules >= 200,
        "expected a substantive exploration, got {} schedules",
        report.schedules
    );
    eprintln!(
        "model_pool: {} schedules (max depth {}, truncated: {})",
        report.schedules, report.max_depth, report.truncated
    );
}
