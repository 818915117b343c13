//! Bounded model: the window-search engine's restart-on-Global-change
//! protocol (DESIGN.md §9, §10).
//!
//! Two workers push and then pop while a retuner grows the window from
//! width 2 to width 4 mid-flight. One worker uses the singular ops (push
//! one item, pop one); the other uses the batched ones (`push_n` of two
//! items, then `pop_n(2)`), so the engine's drain loop — which keeps taking
//! from a won cell instead of starting a new round — runs across the
//! swing too. A pop sweep that misses the descriptor swing could declare a
//! non-empty stack empty; the engine restarts its covering sweep whenever
//! the generation moves, so every pop here must succeed and the multiset
//! of values must be conserved.
//!
//! Run with `RUSTFLAGS="--cfg model" cargo test -p stack2d --test 'model_*'`.
#![cfg(model)]

use loomlite::{check, Config};
use stack2d::sync::{thread, Arc};
use stack2d::{Params, Stack2D};

#[test]
fn pops_survive_a_concurrent_window_swing() {
    let report = check(Config { max_schedules: 4_000, ..Config::default() }, || {
        let stack: Arc<Stack2D<usize>> = Arc::new(
            Stack2D::builder()
                .width(2)
                .depth(2)
                .shift(1)
                .elastic_capacity(4)
                .seed(9)
                .build()
                .unwrap(),
        );
        // Each worker's own pushes precede its pops, and each pops no more
        // than it pushed, so the stack provably holds an item for every
        // pop: a None (or a short batch) would be a broken emptiness sweep.
        let single = {
            let s = Arc::clone(&stack);
            thread::spawn(move || {
                let mut h = s.handle_seeded(0);
                h.push(0);
                vec![h.pop().expect("pop observed empty on a non-empty stack")]
            })
        };
        let batched = {
            let s = Arc::clone(&stack);
            thread::spawn(move || {
                let mut h = s.handle_seeded(1);
                h.push_n(vec![1, 2]);
                let got = h.pop_n(2);
                assert_eq!(got.len(), 2, "pop_n observed empty on a non-empty stack");
                got
            })
        };
        let retuner = {
            let s = Arc::clone(&stack);
            thread::spawn(move || {
                s.retune(Params::new(4, 2, 1).unwrap()).unwrap();
            })
        };
        let mut got = single.join().unwrap();
        got.extend(batched.join().unwrap());
        retuner.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2], "pop multiset diverged from the push multiset");
        assert!(stack.is_empty(), "three pushes and three pops must leave the stack empty");
    })
    .expect("no schedule may lose a pop across the window swing");
    assert!(
        report.schedules >= 200,
        "expected a substantive exploration, got {} schedules",
        report.schedules
    );
    eprintln!(
        "model_engine_restart: {} schedules (max depth {}, truncated: {})",
        report.schedules, report.max_depth, report.truncated
    );
}
