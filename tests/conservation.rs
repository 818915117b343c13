//! Cross-crate integration: item conservation for every algorithm of the
//! paper's evaluation, verified with the quality crate's accounting
//! checker under real concurrency.
//!
//! Every label pushed by any thread must be popped exactly once or remain
//! resident at the end — no loss, no duplication, no invention. This is the
//! safety property all seven stacks share regardless of how relaxed their
//! ordering is.

use stack2d::{OpsHandle, RelaxedOps};
use stack2d_harness::{Algorithm, AnyRelaxed, BuildSpec, StructureKind};
use stack2d_quality::Conservation;

const THREADS: usize = 4;
const PER_THREAD: usize = 3_000;

fn storm(algo: Algorithm) {
    let stack = AnyRelaxed::build(StructureKind::Stack(algo), BuildSpec::high_throughput(THREADS));
    let results: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let stack = &stack;
            joins.push(s.spawn(move || {
                let mut h = stack.ops_handle();
                let mut pushed = Vec::new();
                let mut popped = Vec::new();
                for i in 0..PER_THREAD {
                    let label = (t * PER_THREAD + i) as u64;
                    h.produce(label);
                    pushed.push(label);
                    // Pop two thirds of the time so the stack both grows and
                    // hits near-empty phases.
                    if i % 3 != 0 {
                        if let Some(v) = h.consume() {
                            popped.push(v);
                        }
                    }
                }
                (pushed, popped)
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    let mut accounting = Conservation::new();
    for (pushed, popped) in &results {
        for &l in pushed {
            accounting.pushed(l);
        }
        for &l in popped {
            accounting.popped(l);
        }
    }
    let mut remaining = Vec::new();
    let mut h = stack.ops_handle();
    while let Some(v) = h.consume() {
        remaining.push(v);
    }
    if let Err(errors) = accounting.verify(&remaining) {
        panic!("{algo}: conservation violated:\n{}", errors.join("\n"));
    }
}

#[test]
fn two_d_conserves_items() {
    storm(Algorithm::TwoD);
}

#[test]
fn k_robin_conserves_items() {
    storm(Algorithm::KRobin);
}

#[test]
fn k_segment_conserves_items() {
    storm(Algorithm::KSegment);
}

#[test]
fn random_conserves_items() {
    storm(Algorithm::Random);
}

#[test]
fn random_c2_conserves_items() {
    storm(Algorithm::RandomC2);
}

#[test]
fn elimination_conserves_items() {
    storm(Algorithm::Elimination);
}

#[test]
fn treiber_conserves_items() {
    storm(Algorithm::Treiber);
}

#[test]
fn two_d_conserves_under_tiny_windows() {
    // depth = shift = 1 with few sub-stacks maximizes window churn.
    let stack =
        AnyRelaxed::build(StructureKind::Stack(Algorithm::TwoD), BuildSpec::with_k(THREADS, 3));
    let mut accounting = Conservation::new();
    let all: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let stack = &stack;
            joins.push(s.spawn(move || {
                let mut h = stack.ops_handle();
                let mut pushed = Vec::new();
                let mut popped = Vec::new();
                for i in 0..PER_THREAD {
                    let label = (t * PER_THREAD + i) as u64;
                    h.produce(label);
                    pushed.push(label);
                    if let Some(v) = h.consume() {
                        popped.push(v);
                    }
                }
                (pushed, popped)
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    for (pushed, popped) in &all {
        for &l in pushed {
            accounting.pushed(l);
        }
        for &l in popped {
            accounting.popped(l);
        }
    }
    let mut remaining = Vec::new();
    let mut h = stack.ops_handle();
    while let Some(v) = h.consume() {
        remaining.push(v);
    }
    accounting.verify(&remaining).expect("tiny-window 2D-stack lost items");
}
