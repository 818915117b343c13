//! Property-based verification of elastic retuning: arbitrary retune
//! schedules interleaved with arbitrary workloads must preserve item
//! conservation and per-generation-segment quality.

use std::collections::HashSet;

use proptest::prelude::*;

use stack2d::{Params, Stack2D};
use stack2d_quality::segmented::{bounds_map, check_segments};
use stack2d_quality::MeasuredStack;

const CAPACITY: usize = 12;

/// One step of a schedule: a batch of stack operations or a retune.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `.0` pushes followed by `.1` pops.
    Ops(u8, u8),
    /// Retune to (width, depth, shift-as-fraction-of-depth).
    Retune(usize, usize, usize),
    /// Attempt to commit a pending shrink.
    Commit,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..10, 0u8..40, 0u8..40, 1usize..=CAPACITY, 1usize..6, 1usize..6).prop_map(
        |(kind, pushes, pops, width, depth, shift)| match kind {
            0..=5 => Step::Ops(pushes, pops),
            6..=8 => Step::Retune(width, depth, shift.min(depth)),
            _ => Step::Commit,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_retune_schedules_preserve_segment_quality(
        schedule in proptest::collection::vec(step_strategy(), 1..60),
    ) {
        let stack = Stack2D::builder().params(Params::new(1, 1, 1).unwrap()).elastic_capacity(CAPACITY).build().unwrap();
        let initial = stack.window();
        let measured = MeasuredStack::elastic(&stack);
        let mut events = Vec::new();
        let mut h = measured.handle();
        for step in &schedule {
            match *step {
                Step::Ops(pushes, pops) => {
                    for _ in 0..pushes {
                        h.push();
                    }
                    for _ in 0..pops {
                        h.pop();
                    }
                }
                Step::Retune(w, d, s) => {
                    let info = stack
                        .retune(Params::new(w, d, s.max(1)).expect("strategy emits valid params"))
                        .expect("width within capacity");
                    events.push((info.generation(), info.k_bound()));
                }
                Step::Commit => {
                    if let Some(info) = stack.try_commit_shrink() {
                        events.push((info.generation(), info.k_bound()));
                    }
                }
            }
        }
        // Drain through the measurement, then verify every segment.
        while h.pop() {}
        let bounds = bounds_map(initial, events);
        let records = measured.take_records();
        let report = check_segments(&records, &bounds)
            .map_err(|v| TestCaseError::fail(format!("segment violation: {v}")))?;
        prop_assert_eq!(report.pops, records.len());
        prop_assert_eq!(measured.oracle_len(), 0);
        prop_assert!(stack.is_empty(), "schedule must drain to empty");
    }

    #[test]
    fn arbitrary_retune_schedules_conserve_items(
        schedule in proptest::collection::vec(step_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        let stack: Stack2D<u64> = Stack2D::builder().params(Params::new(2, 1, 1).unwrap()).elastic_capacity(CAPACITY).build().unwrap();
        let mut h = stack.handle_seeded(seed);
        let mut next = 0u64;
        let mut popped = HashSet::new();
        for step in &schedule {
            match *step {
                Step::Ops(pushes, pops) => {
                    for _ in 0..pushes {
                        h.push(next);
                        next += 1;
                    }
                    for _ in 0..pops {
                        if let Some(v) = h.pop() {
                            prop_assert!(popped.insert(v), "duplicate {}", v);
                        }
                    }
                }
                Step::Retune(w, d, s) => {
                    stack.retune(Params::new(w, d, s.max(1)).unwrap()).unwrap();
                }
                Step::Commit => {
                    stack.try_commit_shrink();
                }
            }
        }
        while let Some(v) = h.pop() {
            prop_assert!(popped.insert(v), "duplicate {}", v);
        }
        prop_assert_eq!(popped.len() as u64, next, "every pushed label pops exactly once");
        prop_assert!(stack.is_empty());
    }
}
