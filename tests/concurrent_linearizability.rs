//! The full Theorem 1 claim, checked under real concurrency: *"2D-stack is
//! linearizable with respect to k-out-of-order stack semantics"*.
//!
//! Small concurrent histories (2–3 threads, a handful of ops each) are
//! recorded with a shared logical clock and exhaustively checked for a
//! k-relaxed linearization. Strict algorithms must linearize at k = 0;
//! the 2D-Stack must linearize at its Theorem 1 bound. Many small random
//! histories beat one large one — the checker is exponential and the bugs
//! this catches live in short races.

use std::sync::Barrier;

use stack2d::{Params, RelaxedOps, Stack2D};
use stack2d_harness::{Algorithm, AnyRelaxed, BuildSpec, StructureKind};
use stack2d_quality::linearize::{merge_histories, SharedClock};
use stack2d_quality::HistoryRecorder;

/// Runs `threads` workers, each performing the given op plan (true = push)
/// with distinct labels, and returns the merged history.
fn record_concurrent<S: RelaxedOps<u64>>(
    stack: &S,
    threads: usize,
    plan: &[bool],
    round: u64,
) -> stack2d_quality::History {
    let clock = SharedClock::new();
    let barrier = Barrier::new(threads);
    let parts: Vec<Vec<stack2d_quality::linearize::Recorded>> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..threads {
            let clock = &clock;
            let barrier = &barrier;
            joins.push(scope.spawn(move || {
                let mut rec = HistoryRecorder::new(stack.ops_handle(), clock);
                barrier.wait();
                let mut next = (round << 32) | ((t as u64) << 16);
                for &is_push in plan {
                    if is_push {
                        rec.push(next);
                        next += 1;
                    } else {
                        rec.pop();
                    }
                }
                rec.into_ops()
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    merge_histories(parts)
}

#[test]
fn treiber_is_strictly_linearizable_under_concurrency() {
    let plans: [&[bool]; 3] =
        [&[true, false, true, false], &[true, true, false, false, false], &[false, true, false]];
    for round in 0..30u64 {
        let plan = plans[(round % 3) as usize];
        let stack = AnyRelaxed::build(
            StructureKind::Stack(Algorithm::Treiber),
            BuildSpec::high_throughput(3),
        );
        let h = record_concurrent(&stack, 3, plan, round);
        assert!(
            h.is_k_linearizable(0),
            "treiber produced a non-linearizable history (round {round})"
        );
    }
}

#[test]
fn elimination_is_strictly_linearizable_under_concurrency() {
    for round in 0..30u64 {
        let stack = AnyRelaxed::build(
            StructureKind::Stack(Algorithm::Elimination),
            BuildSpec::high_throughput(3),
        );
        let h = record_concurrent(&stack, 3, &[true, false, true, false], round);
        assert!(
            h.is_k_linearizable(0),
            "elimination produced a non-linearizable history (round {round})"
        );
    }
}

#[test]
fn locked_stack_is_strictly_linearizable_under_concurrency() {
    use stack2d_baselines::LockedStack;
    for round in 0..20u64 {
        let stack: LockedStack<u64> = LockedStack::new();
        let h = record_concurrent(&stack, 3, &[true, true, false, false], round);
        assert!(h.is_k_linearizable(0), "round {round}");
    }
}

#[test]
fn two_d_is_k_linearizable_under_concurrency() {
    // Several window shapes; each checked against its own Theorem 1 bound.
    let shapes = [(2usize, 1usize, 1usize), (3, 2, 1), (4, 2, 2), (2, 4, 4)];
    for (round, &(w, d, s)) in (0..40u64).zip(shapes.iter().cycle()) {
        let params = Params::new(w, d, s).unwrap();
        let k = params.k_bound();
        let stack: Stack2D<u64> = Stack2D::new(params);
        let h = record_concurrent(&stack, 3, &[true, false, true, false], round);
        assert!(
            h.is_k_linearizable(k),
            "2D-stack (w={w} d={d} s={s}) violated its k={k} bound in round {round}"
        );
    }
}

#[test]
fn two_d_strict_config_is_linearizable_at_k0() {
    for round in 0..25u64 {
        let stack: Stack2D<u64> = Stack2D::new(Params::new(1, 1, 1).unwrap());
        let h = record_concurrent(&stack, 3, &[true, false, true, false], round);
        assert!(h.is_k_linearizable(0), "width-1 2D-stack must be strict (round {round})");
    }
}

#[test]
fn k_segment_is_k_linearizable_under_concurrency() {
    use stack2d_baselines::KSegmentStack;
    for (round, k_slots) in (0..30u64).zip([1usize, 2, 4].iter().cycle()) {
        let stack: KSegmentStack<u64> = KSegmentStack::new(*k_slots);
        let h = record_concurrent(&stack, 3, &[true, false, true, false], round);
        // Concurrent pops racing segment boundaries make the effective
        // window one segment wider than the sequential bound.
        let k = 2 * k_slots;
        assert!(h.is_k_linearizable(k), "k-segment(k={k_slots}) violated k={k} in round {round}");
    }
}

#[test]
fn recorded_histories_have_sane_shape() {
    let stack =
        AnyRelaxed::build(StructureKind::Stack(Algorithm::TwoD), BuildSpec::high_throughput(2));
    let h = record_concurrent(&stack, 2, &[true, false], 0);
    assert_eq!(h.len(), 4);
    assert!(!h.is_empty());
}
