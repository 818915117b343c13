//! Golden runs of the oracle coupler: single-threaded, seeded runs whose
//! every measured removal must match `tests/golden/coupler.txt` field for
//! field. The elastic runs (stack and queue) retune mid-run — a grow, a
//! vertical retune, a shrink and its commit — and render every
//! `SegRecord`; the plain runs render the `ErrorStats` of a seeded
//! push/pop mix over `Stack2D` and `TreiberStack`.
//!
//! The file holds one test on purpose: a shrink commit waits for epoch
//! reclamation, which a thread pinned by a parallel test could delay.

use std::fmt::Write as _;

use stack2d::rng::HopRng;
use stack2d::{ElasticTarget, Params, Queue2D, RelaxedOps, Stack2D};
use stack2d_baselines::TreiberStack;
use stack2d_quality::{
    ErrorStats, Label, Measured, MeasuredQueue, MeasuredStack, Order, SegRecord,
};

const GOLDEN: &str = include_str!("golden/coupler.txt");

fn p(w: usize, d: usize, s: usize) -> Params {
    Params::new(w, d, s).unwrap()
}

/// One scripted step of an elastic run.
enum Step {
    Push(usize),
    Pop(usize),
    Drain,
    Retune(Params),
    /// Retries the pending shrink's commit until it lands.
    Commit,
}

/// Grow from width 2 to 8, walk depth/shift, shrink to width 3 and
/// commit, with pushes and pops between every swing.
fn script() -> [Step; 15] {
    [
        Step::Push(300),
        Step::Pop(100),
        Step::Retune(p(8, 1, 1)),
        Step::Push(200),
        Step::Pop(150),
        Step::Retune(p(8, 3, 2)),
        Step::Push(100),
        Step::Pop(120),
        Step::Retune(p(3, 3, 2)),
        Step::Pop(60),
        Step::Push(40),
        Step::Drain,
        Step::Commit,
        Step::Push(120),
        Step::Drain,
    ]
}

fn commit<E: ElasticTarget>(target: &E) {
    for _ in 0..100_000 {
        if target.try_commit_shrink().is_some() {
            return;
        }
        std::thread::yield_now();
    }
    panic!("the shrink never committed");
}

fn render_records(name: &str, records: &[SegRecord], out: &mut String) {
    let _ = writeln!(out, "# {name}: distance gen_lo gen_hi live_bound age");
    for r in records {
        let _ =
            writeln!(out, "{} {} {} {} {}", r.distance, r.gen_lo, r.gen_hi, r.live_bound, r.age);
    }
}

/// Runs [`script`] through an elastic coupler with one seeded handle.
fn elastic<S: RelaxedOps<Label> + ElasticTarget, O: Order>(
    measured: &Measured<'_, S, O>,
) -> Vec<SegRecord> {
    let mut h = measured.handle_seeded(0x5EED);
    for step in script() {
        match step {
            Step::Push(n) => (0..n).for_each(|_| h.push()),
            Step::Pop(n) => (0..n).for_each(|_| assert!(h.pop())),
            Step::Drain => while h.pop() {},
            Step::Retune(params) => {
                measured.target().retune(params).unwrap();
            }
            Step::Commit => commit(measured.target()),
        }
    }
    measured.take_records()
}

/// A seeded 50/50 push/pop mix over a prefilled stack, then a drain.
fn plain<S: RelaxedOps<Label>>(stack: &S) -> ErrorStats {
    let measured = MeasuredStack::new(stack);
    measured.prefill(500);
    let _ = measured.take_stats();
    let mut h = measured.handle_seeded(0x5EED);
    let mut rng = HopRng::seeded(0xC0FFEE);
    for _ in 0..1_500 {
        if rng.bounded(2) == 0 {
            h.push();
        } else {
            h.pop();
        }
    }
    while h.pop() {}
    measured.take_stats()
}

#[test]
fn coupler_matches_the_golden_runs() {
    let mut out = String::new();
    let elastic_params = p(2, 1, 1);
    let stack = Stack2D::builder().params(elastic_params).elastic_capacity(16).build().unwrap();
    render_records("elastic Stack2D", &elastic(&MeasuredStack::elastic(&stack)), &mut out);
    let queue = Queue2D::builder().params(elastic_params).elastic_capacity(16).build().unwrap();
    render_records("elastic Queue2D", &elastic(&MeasuredQueue::elastic(&queue)), &mut out);
    let stack = Stack2D::builder().params(p(4, 2, 1)).seed(7).build().unwrap();
    let _ = writeln!(out, "# Stack2D: {:?}", plain(&stack));
    let _ = writeln!(out, "# TreiberStack: {:?}", plain(&TreiberStack::new()));
    for (i, (got, want)) in out.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} differs", i + 1);
    }
    assert_eq!(out.lines().count(), GOLDEN.lines().count(), "golden length differs");
}
