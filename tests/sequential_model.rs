//! Model-based property tests: under a single thread, every algorithm is a
//! *multiset-correct* stack (pops return previously pushed, still-resident
//! values; emptiness is exact), and the strict algorithms additionally
//! match a `Vec` model move for move.

use std::collections::HashSet;

use proptest::prelude::*;

use stack2d::{OpsHandle, RelaxedOps};
use stack2d_harness::{Algorithm, AnyRelaxed, BuildSpec, StructureKind};

/// Replays `plan` (true = push) against both the algorithm and a multiset
/// model.
fn check_multiset(algo: Algorithm, plan: &[bool]) -> Result<(), TestCaseError> {
    let stack = AnyRelaxed::build(StructureKind::Stack(algo), BuildSpec::high_throughput(1));
    let mut h = stack.ops_handle();
    let mut resident: HashSet<u64> = HashSet::new();
    let mut next = 0u64;
    for &is_push in plan {
        if is_push {
            h.produce(next);
            resident.insert(next);
            next += 1;
        } else {
            match h.consume() {
                Some(v) => {
                    prop_assert!(resident.remove(&v), "{algo}: popped {v} which is not resident");
                }
                None => {
                    prop_assert!(
                        resident.is_empty(),
                        "{algo}: reported empty with {} resident",
                        resident.len()
                    );
                }
            }
        }
    }
    // Drain: everything resident must come back exactly once.
    while let Some(v) = h.consume() {
        prop_assert!(resident.remove(&v), "{algo}: drained unknown {v}");
    }
    prop_assert!(resident.is_empty(), "{algo}: lost {} items", resident.len());
    Ok(())
}

/// Strict algorithms must match a Vec model exactly.
fn check_strict(algo: Algorithm, plan: &[bool]) -> Result<(), TestCaseError> {
    let stack = AnyRelaxed::build(StructureKind::Stack(algo), BuildSpec::high_throughput(1));
    let mut h = stack.ops_handle();
    let mut model: Vec<u64> = Vec::new();
    let mut next = 0u64;
    for &is_push in plan {
        if is_push {
            h.produce(next);
            model.push(next);
            next += 1;
        } else {
            prop_assert_eq!(h.consume(), model.pop(), "{} diverged from the Vec model", algo);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn two_d_is_multiset_correct(plan in proptest::collection::vec(any::<bool>(), 1..500)) {
        check_multiset(Algorithm::TwoD, &plan)?;
    }

    #[test]
    fn k_robin_is_multiset_correct(plan in proptest::collection::vec(any::<bool>(), 1..500)) {
        check_multiset(Algorithm::KRobin, &plan)?;
    }

    #[test]
    fn k_segment_is_multiset_correct(plan in proptest::collection::vec(any::<bool>(), 1..500)) {
        check_multiset(Algorithm::KSegment, &plan)?;
    }

    #[test]
    fn random_is_multiset_correct(plan in proptest::collection::vec(any::<bool>(), 1..500)) {
        check_multiset(Algorithm::Random, &plan)?;
    }

    #[test]
    fn random_c2_is_multiset_correct(plan in proptest::collection::vec(any::<bool>(), 1..500)) {
        check_multiset(Algorithm::RandomC2, &plan)?;
    }

    #[test]
    fn elimination_matches_vec_model(plan in proptest::collection::vec(any::<bool>(), 1..500)) {
        check_strict(Algorithm::Elimination, &plan)?;
    }

    #[test]
    fn treiber_matches_vec_model(plan in proptest::collection::vec(any::<bool>(), 1..500)) {
        check_strict(Algorithm::Treiber, &plan)?;
    }

    #[test]
    fn strict_two_d_matches_vec_model(plan in proptest::collection::vec(any::<bool>(), 1..500)) {
        // k = 0 forces width 1: the 2D-stack degenerates to a strict stack.
        let stack = AnyRelaxed::build(StructureKind::Stack(Algorithm::TwoD), BuildSpec::with_k(1, 0));
        let mut h = stack.ops_handle();
        let mut model: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for &is_push in &plan {
            if is_push {
                h.produce(next);
                model.push(next);
                next += 1;
            } else {
                prop_assert_eq!(h.consume(), model.pop());
            }
        }
    }
}
