//! Integration of the quality substrate with real algorithms: the oracle's
//! two implementations agree on random workloads, strict stacks measure
//! zero error, relaxed stacks measure bounded error, and the measured
//! pipeline survives concurrency.

use proptest::prelude::*;

use stack2d::{OpsHandle, RelaxedOps};
use stack2d_harness::{
    run_quality, Algorithm, AnyRelaxed, BuildSpec, QualityConfig, StructureKind,
};
use stack2d_quality::{MeasuredStack, NaiveOracle, Oracle};
use stack2d_workload::OpMix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Fenwick oracle and the literal list agree on arbitrary
    /// insert/delete interleavings.
    #[test]
    fn oracles_agree(ops in proptest::collection::vec(any::<u8>(), 1..400)) {
        let mut fast = Oracle::new();
        let mut naive = NaiveOracle::new();
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for op in ops {
            if live.is_empty() || op % 2 == 0 {
                fast.insert(next);
                naive.insert(next);
                live.push(next);
                next += 1;
            } else {
                let idx = (op as usize / 2) % live.len();
                let label = live.swap_remove(idx);
                prop_assert_eq!(fast.delete(label), naive.delete(label));
            }
            prop_assert_eq!(fast.len(), naive.len());
        }
    }
}

#[test]
fn strict_algorithms_measure_zero_error_single_thread() {
    for algo in [Algorithm::Treiber, Algorithm::Elimination] {
        let stack = AnyRelaxed::build(StructureKind::Stack(algo), BuildSpec::high_throughput(1));
        let stats = run_quality(
            &stack,
            &QualityConfig {
                threads: 1,
                ops_per_thread: 5_000,
                mix: OpMix::symmetric(),
                prefill: 512,
                seed: 3,
            },
        );
        assert!(!stats.is_empty());
        assert_eq!(stats.max(), 0, "{algo:?} must measure perfectly strict");
    }
}

#[test]
fn two_d_error_stays_under_bound_single_thread() {
    for k in [3usize, 30, 300] {
        let stack =
            AnyRelaxed::build(StructureKind::Stack(Algorithm::TwoD), BuildSpec::with_k(1, k));
        let bound = stack.relaxation_bound().unwrap();
        let stats = run_quality(
            &stack,
            &QualityConfig {
                threads: 1,
                ops_per_thread: 10_000,
                mix: OpMix::symmetric(),
                prefill: 1_024,
                seed: 5,
            },
        );
        assert!((stats.max() as usize) <= bound, "k={k}: measured {} > bound {bound}", stats.max());
    }
}

#[test]
fn relaxation_quality_ordering_across_algorithms() {
    // The algorithms with *deterministic* bounds (2D-stack via Theorem 1,
    // k-segment via its segment width) must measure within them on a
    // single thread. k-robin's reported bound is a balanced-workload
    // calibration, not a guarantee (random mixes can bury items), so it
    // only gets a sanity ceiling of the resident count.
    for algo in Algorithm::K_BOUNDED {
        let stack = AnyRelaxed::build(StructureKind::Stack(algo), BuildSpec::with_k(1, 50));
        let bound = stack.relaxation_bound();
        let prefill = 1_024usize;
        let stats = run_quality(
            &stack,
            &QualityConfig {
                threads: 1,
                ops_per_thread: 8_000,
                mix: OpMix::symmetric(),
                prefill,
                seed: 9,
            },
        );
        match algo {
            Algorithm::TwoD | Algorithm::KSegment => {
                let bound = bound.unwrap();
                assert!(
                    (stats.max() as usize) <= bound,
                    "{algo}: measured {} > deterministic bound {bound}",
                    stats.max()
                );
            }
            _ => {
                // Error distance can never exceed the number of resident
                // items.
                assert!(
                    (stats.max() as usize) <= prefill + 8_000,
                    "{algo}: impossible error distance {}",
                    stats.max()
                );
            }
        }
    }
}

#[test]
fn measured_stack_oracle_and_stack_stay_in_sync_concurrently() {
    let stack =
        AnyRelaxed::build(StructureKind::Stack(Algorithm::TwoD), BuildSpec::high_throughput(4));
    let measured = MeasuredStack::new(&stack);
    measured.prefill(256);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let measured = &measured;
            s.spawn(move || {
                let mut h = measured.handle();
                for i in 0..2_000 {
                    if (i + t) % 2 == 0 {
                        h.push();
                    } else {
                        h.pop();
                    }
                }
            });
        }
    });
    // Whatever remains in the stack must exactly match the oracle's view.
    let mut h = stack.ops_handle();
    let mut resident = 0usize;
    while h.consume().is_some() {
        resident += 1;
    }
    assert_eq!(resident, measured.oracle_len(), "oracle diverged from stack");
}

#[test]
fn quality_runs_complete_for_every_algorithm_concurrently() {
    for algo in Algorithm::ALL {
        let stack = AnyRelaxed::build(StructureKind::Stack(algo), BuildSpec::high_throughput(3));
        let stats = run_quality(
            &stack,
            &QualityConfig {
                threads: 3,
                ops_per_thread: 1_500,
                mix: OpMix::symmetric(),
                prefill: 256,
                seed: 1,
            },
        );
        assert!(!stats.is_empty(), "{algo}: no pops measured");
    }
}
