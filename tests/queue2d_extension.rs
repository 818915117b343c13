//! Integration tests for the 2D-Queue extension (the paper's §5 future
//! work): conservation under concurrency — including concurrency with
//! mid-flight retunes — strictness at width 1, the carried-over window
//! bound on single-threaded runs, and the per-generation out-of-order
//! bound under elastic schedules.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use stack2d::{Params, Queue2D};
use stack2d_quality::segmented::{bounds_map, check_segments};
use stack2d_quality::MeasuredQueue;

#[test]
fn concurrent_storm_conserves_items() {
    const THREADS: usize = 4;
    const PER: usize = 4_000;
    let q = Queue2D::new(Params::new(4, 2, 1).unwrap());
    let results: Vec<Vec<u64>> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let q = &q;
            joins.push(s.spawn(move || {
                let mut h = q.handle_seeded(t as u64 + 1);
                let mut got = Vec::new();
                for i in 0..PER {
                    h.enqueue((t * PER + i) as u64);
                    if i % 2 == 0 {
                        if let Some(v) = h.dequeue() {
                            got.push(v);
                        }
                    }
                }
                got
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let mut all: Vec<u64> = results.into_iter().flatten().collect();
    let mut h = q.handle_seeded(0);
    while let Some(v) = h.dequeue() {
        all.push(v);
    }
    all.sort_unstable();
    assert_eq!(all, (0..(THREADS * PER) as u64).collect::<Vec<_>>());
}

/// Eight threads churn distinct labels while the main thread sweeps both
/// queue windows through a width/depth/shift grid (with shrink commits
/// interleaved); afterwards every label must be recovered exactly once.
#[test]
fn eight_thread_churn_with_midflight_retunes_conserves_items() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 6_000;
    let q = Arc::new(
        Queue2D::builder()
            .params(Params::new(1, 1, 1).unwrap())
            .elastic_capacity(32)
            .build()
            .unwrap(),
    );
    let schedule: Vec<Params> =
        [(32, 1, 1), (8, 4, 2), (2, 2, 1), (16, 2, 2), (1, 1, 1), (4, 1, 1)]
            .into_iter()
            .map(|(w, d, s)| Params::new(w, d, s).unwrap())
            .collect();
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let q = Arc::clone(&q);
        joins.push(std::thread::spawn(move || {
            let mut h = q.handle_seeded(t as u64 + 1);
            let mut got = Vec::new();
            for i in 0..PER_THREAD {
                h.enqueue((t * PER_THREAD + i) as u64);
                if i % 3 != 0 {
                    if let Some(v) = h.dequeue() {
                        got.push(v);
                    }
                }
            }
            got
        }));
    }
    for round in 0..60 {
        q.retune(schedule[round % schedule.len()]).unwrap();
        q.try_commit_shrink();
        std::thread::yield_now();
    }
    let mut all: Vec<u64> = Vec::new();
    for j in joins {
        all.extend(j.join().unwrap());
    }
    // Settle any pending shrink, then drain.
    for _ in 0..64 {
        q.try_commit_shrink();
    }
    let mut h = q.handle_seeded(0xD1E);
    while let Some(v) = h.dequeue() {
        all.push(v);
    }
    assert!(q.is_empty(), "drain must reach empty even across retunes");
    let mut seen = HashSet::with_capacity(all.len());
    for v in &all {
        assert!(seen.insert(*v), "label {v} dequeued twice");
    }
    assert_eq!(seen.len(), THREADS * PER_THREAD, "labels lost across retunes");
    assert!(q.metrics().retunes >= 60, "every retune must be counted: {}", q.metrics());
}

/// Retunes racing each other (not just racing operations) must leave the
/// put and get windows agreeing on the active width — a divergent pair
/// would strand enqueues outside the dequeue span once a shrink commits.
#[test]
fn concurrent_retunes_leave_windows_consistent() {
    const RETUNERS: usize = 4;
    const ROUNDS: usize = 400;
    let q = Arc::new(
        Queue2D::<u64>::builder()
            .params(Params::new(1, 1, 1).unwrap())
            .elastic_capacity(16)
            .build()
            .unwrap(),
    );
    let mut joins = Vec::new();
    for t in 0..RETUNERS {
        let q = Arc::clone(&q);
        joins.push(std::thread::spawn(move || {
            let widths = [1usize, 2, 4, 8, 16];
            for i in 0..ROUNDS {
                let w = widths[(i + t) % widths.len()];
                q.retune(Params::new(w, 1 + (t % 2), 1).unwrap()).unwrap();
                q.try_commit_shrink();
            }
        }));
    }
    // Churn items through the queue while the retuners race.
    let mut h = q.handle_seeded(7);
    for i in 0..4_000u64 {
        h.enqueue(i);
        if i % 2 == 1 {
            h.dequeue();
        }
    }
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(
        q.put_window().width(),
        q.window().width(),
        "put and get windows must agree once retuners quiesce: put={} get={}",
        q.put_window(),
        q.window()
    );
    // Settle shrinks, then every resident item must still be reachable.
    for _ in 0..64 {
        q.try_commit_shrink();
    }
    let mut drained = 0u64;
    while h.dequeue().is_some() {
        drained += 1;
    }
    assert!(q.is_empty(), "no item may be stranded outside the dequeue span");
    assert_eq!(drained, 2_000, "conservation across racing retunes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn multiset_correct_single_thread(
        width in 1usize..6,
        depth in 1usize..5,
        plan in proptest::collection::vec(any::<bool>(), 1..400),
        seed in any::<u64>(),
    ) {
        let q = Queue2D::new(Params::new(width, depth, depth).unwrap());
        let mut h = q.handle_seeded(seed);
        let mut resident: HashSet<u64> = HashSet::new();
        let mut next = 0u64;
        for &is_enq in &plan {
            if is_enq {
                h.enqueue(next);
                resident.insert(next);
                next += 1;
            } else {
                match h.dequeue() {
                    Some(v) => prop_assert!(resident.remove(&v), "unknown {v}"),
                    None => prop_assert!(resident.is_empty(), "false empty"),
                }
            }
        }
        while let Some(v) = h.dequeue() {
            prop_assert!(resident.remove(&v));
        }
        prop_assert!(resident.is_empty());
    }

    #[test]
    fn width_one_is_strict_fifo(
        plan in proptest::collection::vec(any::<bool>(), 1..300),
        seed in any::<u64>(),
    ) {
        let q = Queue2D::new(Params::new(1, 3, 2).unwrap());
        let mut h = q.handle_seeded(seed);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut next = 0u64;
        for &is_enq in &plan {
            if is_enq {
                h.enqueue(next);
                model.push_back(next);
                next += 1;
            } else {
                prop_assert_eq!(h.dequeue(), model.pop_front());
            }
        }
    }

    #[test]
    fn dequeue_lateness_is_window_bounded_single_thread(
        width in 1usize..5,
        depth in 1usize..4,
        n in 50usize..500,
        seed in any::<u64>(),
    ) {
        let params = Params::new(width, depth, depth).unwrap();
        let k = params.k_bound();
        let q = Queue2D::new(params);
        let mut h = q.handle_seeded(seed);
        for i in 0..n {
            h.enqueue(i as u64);
        }
        for pos in 0..n {
            let v = h.dequeue().unwrap() as usize;
            prop_assert!(
                pos.abs_diff(v) <= k,
                "dequeue #{pos} returned {v}: distance {} > k={k}",
                pos.abs_diff(v)
            );
        }
    }

    /// Across an arbitrary retune schedule, every measured dequeue's
    /// out-of-order distance stays within the bound in force for its
    /// generation segment (configured bound, or the live residency bound
    /// through width-grow transients).
    #[test]
    fn out_of_order_distance_per_generation_stays_bounded(
        schedule in proptest::collection::vec((1usize..=8, 1usize..=3), 1..5),
        plan in proptest::collection::vec(any::<bool>(), 40..240),
    ) {
        let q = Queue2D::builder().params(Params::new(1, 1, 1).unwrap()).elastic_capacity(8).build().unwrap();
        let initial = q.window();
        let measured = MeasuredQueue::elastic(&q);
        let mut events = Vec::new();
        let mut h = measured.handle();
        let chunk = plan.len().div_ceil(schedule.len());
        for (ops, &(width, depth)) in plan.chunks(chunk).zip(schedule.iter()) {
            for &is_enq in ops {
                if is_enq {
                    h.push();
                } else {
                    h.pop();
                }
            }
            let info = q.retune(Params::new(width, depth, depth).unwrap()).unwrap();
            events.push((info.generation(), info.k_bound()));
            if let Some(info) = q.try_commit_shrink() {
                events.push((info.generation(), info.k_bound()));
            }
        }
        while h.pop() {}
        let bounds = bounds_map(initial, events);
        let report = check_segments(&measured.take_records(), &bounds)
            .map_err(|v| TestCaseError::fail(format!("segment violation: {v}")))?;
        prop_assert_eq!(measured.oracle_len(), 0, "drained run must empty the oracle");
        prop_assert_eq!(report.pops as usize, plan.iter().filter(|&&e| e).count());
    }
}
