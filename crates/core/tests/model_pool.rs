//! Bounded models: node-pool recycling vs concurrent epoch retirement
//! (DESIGN.md §3, §14).
//!
//! The pool hands a retired node's storage back to a thread-local
//! freelist *from the epoch collector* — the unsafe window is a block
//! reaching a freelist (and being reallocated as a fresh node) while a
//! concurrent operation still holds a pre-retirement snapshot of it. A
//! sub-stack is one `top` pointer whose nodes carry their own height, so
//! a pop retires exactly one node, and a snapshot's `(top, count)` pair
//! stays consistent only if the node it read cannot be retired, recycled
//! and reinstalled as `top` before the snapshot's CAS (no ABA). Under
//! `--cfg model` the collector threshold drops to 4 so recycling actually
//! fires inside these tiny runs. A premature recycle surfaces as a
//! duplicated, invented or lost value in the conservation checks, or as a
//! count that disagrees with the nodes reachable from `top`; loomlite's
//! SeqCst interleaving exploration drives the epoch protocol through the
//! overlap schedules a stress test may never hit.
//!
//! Run with `RUSTFLAGS="--cfg model" cargo test -p stack2d --test 'model_*'`.
#![cfg(model)]

use std::sync::atomic::{AtomicUsize, Ordering};

use loomlite::{check, Config};
use stack2d::substack::{Contended, PreparedNode, SubStack};
use stack2d::sync::{thread, Arc};
use stack2d::{pool_stats, Params, Stack2D};

#[test]
fn pooled_retirement_never_recycles_reachable_nodes() {
    let report = check(Config { max_schedules: 4_000, ..Config::default() }, || {
        // Width 1: both poppers contend on one sub-stack's `top`,
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

#[test]
fn snapshot_holder_never_links_onto_a_recycled_top() {
    // Churner rounds: pop one item, re-push it, push a fresh one. Its
    // retirements cross the model collection threshold (4) twice, which
    // advances the epoch twice and lets its later re-pushes draw recycled
    // blocks — unless the holder's pin still covers them. The growing
    // stack matters: a recycled block reinstalled as `top` comes back at
    // a different height, so a snapshot applied to it would link a node
    // with a stale count.
    const ROUNDS: u64 = 9;
    // Schedules whose churner drew a recycled block. Plain std atomics:
    // bookkeeping outside the model, never a scheduling point.
    static REUSED: AtomicUsize = AtomicUsize::new(0);
    let report = check(Config { max_schedules: 4_000, ..Config::default() }, || {
        let stack: Arc<SubStack<u64>> = Arc::new(SubStack::new());
        for v in [10, 20, 30] {
            stack.push(v);
        }
        // The holder pops and re-pushes under one pin, each time holding
        // its snapshot across a scheduling point, so the churner may pop
        // the snapshot's top and re-push meanwhile.
        let holder = {
            let s = Arc::clone(&stack);
            thread::spawn(move || {
                let guard = crossbeam_epoch::pin();
                let mut view = s.view(&guard);
                let got = loop {
                    thread::yield_now();
                    match s.try_pop_at(&view, &guard) {
                        Ok(got) => break got,
                        Err(Contended(())) => view = s.view(&guard),
                    }
                };
                let mut node = PreparedNode::new(got.expect("three items were prefilled") + 100);
                let mut view = s.view(&guard);
                loop {
                    thread::yield_now();
                    match s.try_push_at(&view, node, &guard) {
                        Ok(()) => return,
                        Err(Contended(n)) => (node, view) = (n, s.view(&guard)),
                    }
                }
            })
        };
        let churner = {
            let s = Arc::clone(&stack);
            thread::spawn(move || {
                let before = pool_stats().reused;
                for r in 0..ROUNDS {
                    // Never dry: the holder takes at most one of three.
                    let v = s.pop().expect("the churner always finds an item");
                    s.push(v + 100);
                    s.push(40 + r);
                }
                pool_stats().reused > before
            })
        };
        holder.join().unwrap();
        if churner.join().unwrap() {
            REUSED.fetch_add(1, Ordering::Relaxed);
        }
        // The count is the top node's height; it must match the nodes
        // actually reachable from `top`.
        let len = stack.len();
        let mut left = Vec::new();
        while let Some(v) = stack.pop() {
            left.push(v % 100);
        }
        assert_eq!(len, left.len(), "count disagrees with the reachable nodes");
        left.sort_unstable();
        let expected: Vec<u64> = [10, 20, 30].into_iter().chain(40..40 + ROUNDS).collect();
        assert_eq!(left, expected, "conservation broken");
    })
    .expect("no schedule may apply a stale snapshot to a recycled top");
    assert!(
        report.schedules >= 200,
        "expected a substantive exploration, got {} schedules",
        report.schedules
    );
    // Pool statistics are counted in debug builds only.
    if cfg!(debug_assertions) {
        assert!(REUSED.load(Ordering::Relaxed) > 0, "no schedule drew a recycled block");
    }
    eprintln!(
        "model_pool (snapshot holder): {} schedules, {} with a recycled re-push (max depth {}, truncated: {})",
        report.schedules,
        REUSED.load(Ordering::Relaxed),
        report.max_depth,
        report.truncated
    );
}
