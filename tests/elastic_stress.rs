//! Concurrent stress for the elastic runtime: threads churn while the
//! window is retuned mid-flight — on the stack, the queue and the counter
//! alike — asserting item/value conservation and per-generation-segment
//! quality.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use stack2d::{Counter2D, ElasticTarget, Params, Queue2D, RelaxedOps, Stack2D};
use stack2d_adaptive::{AimdController, ElasticRunner, RetuneEvent, RetuneKind};
use stack2d_quality::segmented::{bounds_map, check_segments};
use stack2d_quality::{Fifo, Label, Lifo, Measured, Order};

fn p(w: usize, d: usize, s: usize) -> Params {
    Params::new(w, d, s).unwrap()
}

/// Eight threads churn distinct labels while the main thread sweeps the
/// window through a width/depth/shift grid; afterwards every label must be
/// recovered exactly once.
#[test]
fn eight_thread_churn_with_midflight_retunes_conserves_items() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 8_000;
    let stack =
        Arc::new(Stack2D::builder().params(p(1, 1, 1)).elastic_capacity(32).build().unwrap());
    let schedule =
        [p(32, 1, 1), p(8, 4, 2), p(2, 2, 1), p(16, 2, 2), p(1, 1, 1), p(32, 8, 8), p(4, 1, 1)];
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let stack = Arc::clone(&stack);
        joins.push(std::thread::spawn(move || {
            let mut h = stack.handle_seeded(t as u64 + 1);
            let mut popped = Vec::new();
            for i in 0..PER_THREAD {
                h.push((t * PER_THREAD + i) as u64);
                if i % 3 != 0 {
                    if let Some(v) = h.pop() {
                        popped.push(v);
                    }
                }
            }
            popped
        }));
    }
    // Retune continuously while the workers churn; commits interleave.
    let mut commits = 0;
    for round in 0..60 {
        let params = schedule[round % schedule.len()];
        stack.retune(params).unwrap();
        if stack.try_commit_shrink().is_some() {
            commits += 1;
        }
        std::thread::yield_now();
    }
    let mut all: Vec<u64> = Vec::new();
    for j in joins {
        all.extend(j.join().unwrap());
    }
    // Settle any pending shrink, then drain.
    for _ in 0..64 {
        if stack.try_commit_shrink().is_some() {
            commits += 1;
        }
    }
    let mut h = stack.handle_seeded(0xD1E);
    while let Some(v) = h.pop() {
        all.push(v);
    }
    assert!(stack.is_empty(), "drain must reach empty even across retunes");
    let mut seen = HashSet::with_capacity(all.len());
    for v in &all {
        assert!(seen.insert(*v), "label {v} popped twice");
    }
    assert_eq!(seen.len(), THREADS * PER_THREAD, "labels lost across retunes");
    let metrics = stack.metrics();
    assert!(metrics.retunes >= 60, "every retune must be counted: {metrics}");
    // Not asserted (timing-dependent), but log for the curious.
    eprintln!("stress: {commits} shrink commits, final window {}", stack.window());
}

/// `threads` measured threads churn `target` (narrowest window, elastic)
/// under a live AIMD controller with relaxation budget `budget`; every
/// measured removal must stay within the instantaneous bound of its
/// generation segment. Returns the controller's retune log.
fn measured_churn_under_live_controller<S, O>(
    target: Arc<S>,
    threads: usize,
    budget: usize,
) -> Vec<RetuneEvent>
where
    S: RelaxedOps<Label> + ElasticTarget + 'static,
    O: Order,
{
    const PER_THREAD: usize = 3_000;
    let initial = target.window();
    let measured = Measured::<S, O>::elastic(&target);
    let runner = ElasticRunner::spawn_with_budget(
        Arc::clone(&target),
        AimdController::new(budget),
        Duration::from_micros(300),
        budget,
    );
    std::thread::scope(|scope| {
        for t in 0..threads {
            let measured = &measured;
            scope.spawn(move || {
                let mut h = measured.handle();
                // Bursty: runs of pushes then runs of pops, so the
                // controller sees real pressure swings.
                for i in 0..PER_THREAD {
                    if (i / 64) % 2 == (t % 2) {
                        h.push();
                    } else {
                        h.pop();
                    }
                }
            });
        }
    });
    let mut h = measured.handle();
    while h.pop() {}
    let events = runner.stop();
    let bounds = bounds_map(initial, events.iter().map(|e| (e.generation, e.k_bound)));
    let report = check_segments(&measured.take_records(), &bounds).unwrap_or_else(|v| {
        panic!("{} segment bound violated under live controller: {v}", target.name())
    });
    assert!(report.pops > 1_000, "too few measured removals: {}", report.pops);
    assert_eq!(measured.oracle_len(), 0);
    for e in &events {
        assert!(e.k_bound <= budget, "configured bound must respect the budget: {e:?}");
    }
    events
}

/// Eight measured threads churn under a live AIMD controller; every pop's
/// error distance must stay within the instantaneous bound of its
/// generation segment.
#[test]
fn measured_churn_under_live_controller_respects_segment_bounds() {
    let stack =
        Arc::new(Stack2D::builder().params(p(1, 1, 1)).elastic_capacity(16).build().unwrap());
    let events = measured_churn_under_live_controller::<_, Lifo>(stack, 8, 45);
    for e in events.iter().filter(|e| e.kind == RetuneKind::Commit) {
        assert!(e.pop_width <= e.width, "commit closes the pop span: {e:?}");
    }
}

/// Eight threads churn a `Queue2D` under a live AIMD controller (with
/// vertical-walk headroom in the budget); no item may be lost or
/// duplicated, and every retune event must respect the budget.
#[test]
fn eight_thread_queue_churn_under_live_controller_conserves_items() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 6_000;
    const BUDGET: usize = 84; // width saturates at 8, depth can reach 4
    let q = Arc::new(Queue2D::builder().params(p(1, 1, 1)).elastic_capacity(8).build().unwrap());
    let runner = ElasticRunner::spawn_with_budget(
        Arc::clone(&q),
        AimdController::new(BUDGET),
        Duration::from_micros(300),
        BUDGET,
    );
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
    let mut all: Vec<u64> = Vec::new();
    for j in joins {
        all.extend(j.join().unwrap());
    }
    let events = runner.stop();
    for _ in 0..64 {
        q.try_commit_shrink();
    }
    let mut h = q.handle_seeded(0xFEED);
    while let Some(v) = h.dequeue() {
        all.push(v);
    }
    all.sort_unstable();
    assert_eq!(
        all,
        (0..(THREADS * PER_THREAD) as u64).collect::<Vec<_>>(),
        "live retuning must not lose or duplicate queue items"
    );
    for e in &events {
        assert!(e.k_bound <= BUDGET, "budget violated: {e:?}");
    }
}

/// Eight threads increment a `Counter2D` while the main thread sweeps the
/// window (including shrinks that drain retired sub-counters); the final
/// value must be exact.
#[test]
fn eight_thread_counter_churn_with_midflight_retunes_conserves_value() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 20_000;
    let c = Arc::new(Counter2D::builder().params(p(1, 1, 1)).elastic_capacity(32).build().unwrap());
    let schedule =
        [p(32, 1, 1), p(8, 4, 2), p(2, 2, 1), p(16, 2, 2), p(1, 1, 1), p(32, 8, 8), p(4, 1, 1)];
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let c = Arc::clone(&c);
        joins.push(std::thread::spawn(move || {
            let mut h = c.handle_seeded(t as u64 + 1);
            for _ in 0..PER_THREAD {
                h.increment();
            }
        }));
    }
    let mut commits = 0;
    for round in 0..60 {
        c.retune(schedule[round % schedule.len()]).unwrap();
        if c.try_commit_shrink().is_some() {
            commits += 1;
        }
        std::thread::yield_now();
    }
    for j in joins {
        j.join().unwrap();
    }
    for _ in 0..64 {
        if c.try_commit_shrink().is_some() {
            commits += 1;
        }
    }
    assert_eq!(c.value(), THREADS * PER_THREAD, "value lost or duplicated across retunes");
    let metrics = c.metrics();
    assert_eq!(metrics.ops, (THREADS * PER_THREAD) as u64);
    assert!(metrics.retunes >= 60, "every retune must be counted: {metrics}");
    eprintln!("counter stress: {commits} shrink commits, final window {}", c.window());
}

/// Four measured threads churn a queue under a live AIMD controller (with
/// vertical-walk headroom in the budget); every dequeue's out-of-order
/// distance must stay within the instantaneous bound of its generation
/// segment.
#[test]
fn measured_queue_churn_under_live_controller_respects_segment_bounds() {
    let q = Arc::new(Queue2D::builder().params(p(1, 1, 1)).elastic_capacity(8).build().unwrap());
    measured_churn_under_live_controller::<_, Fifo>(q, 4, 84);
}

/// A stopped runner leaves the stack fully usable and its final window
/// within budget.
#[test]
fn runner_shutdown_leaves_stack_consistent() {
    let stack =
        Arc::new(Stack2D::builder().params(p(2, 1, 1)).elastic_capacity(8).build().unwrap());
    let runner = ElasticRunner::spawn(
        Arc::clone(&stack),
        AimdController::new(21),
        Duration::from_micros(200),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let stack = Arc::clone(&stack);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut h = stack.handle_seeded(3);
            let mut balance = 0i64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..32 {
                    h.push(7);
                    balance += 1;
                }
                for _ in 0..32 {
                    if h.pop().is_some() {
                        balance -= 1;
                    }
                }
            }
            balance
        })
    };
    std::thread::sleep(Duration::from_millis(60));
    stop.store(true, Ordering::Relaxed);
    let balance = worker.join().unwrap();
    let events = runner.stop();
    let mut h = stack.handle_seeded(9);
    let mut remaining = 0i64;
    while h.pop().is_some() {
        remaining += 1;
    }
    assert_eq!(remaining, balance, "residency must match the worker's balance");
    assert!(stack.k_bound() <= 21, "budget holds after shutdown: {}", stack.window());
    for pair in events.windows(2) {
        assert!(pair[0].generation < pair[1].generation, "events are ordered");
    }
}
