//! Node-pool churn under thread and retune pressure, plus batched-op
//! equivalence properties (PR 10).
//!
//! The pool (`stack2d::pool`) recycles list nodes (one per push, retired
//! once by the pop) through thread-local freelists behind epoch
//! reclamation. The failure modes worth money here are a block handed
//! back to a freelist while another thread can still reach it
//! (use-after-free — shows up as a lost or duplicated payload) and
//! accounting drift between a payload's push and its drop. Both are
//! exercised with drop-counting canaries; in debug builds [`pool_stats`]
//! additionally proves recycling actually happened rather than silently
//! degrading to malloc-per-op.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use stack2d_repro::stack2d::{Params, Stack2D};

/// Heap payload whose drops are counted: double-free or leak = mismatch.
struct Canary {
    drops: Arc<AtomicUsize>,
    #[allow(dead_code)]
    data: Box<[u8; 48]>,
}

impl Canary {
    fn new(drops: &Arc<AtomicUsize>) -> Self {
        Canary { drops: Arc::clone(drops), data: Box::new([0xC4; 48]) }
    }
}

impl Drop for Canary {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn pool_churn_under_retune_stress() {
    const WORKERS: usize = 6;
    const RETUNERS: usize = 2; // 8 threads total, oversubscribed
    const PER: usize = 8_000;
    const ROUNDS: usize = 300;
    let drops = Arc::new(AtomicUsize::new(0));
    let before = stack2d_repro::stack2d::pool_stats();
    {
        let stack = Arc::new(
            Stack2D::<Canary>::builder()
                .params(Params::new(2, 2, 1).unwrap())
                .elastic_capacity(16)
                .build()
                .unwrap(),
        );
        let mut joins = Vec::new();
        for t in 0..WORKERS {
            let stack = Arc::clone(&stack);
            let drops = Arc::clone(&drops);
            joins.push(std::thread::spawn(move || {
                let mut h = stack.handle_seeded(t as u64 + 1);
                for i in 0..PER {
                    if i % 8 < 5 {
                        h.push(Canary::new(&drops));
                    } else {
                        drop(h.pop());
                    }
                }
            }));
        }
        for t in 0..RETUNERS {
            let stack = Arc::clone(&stack);
            joins.push(std::thread::spawn(move || {
                let widths = [1usize, 4, 16, 8, 2];
                for i in 0..ROUNDS {
                    let w = widths[(i + t) % widths.len()];
                    stack.retune(Params::new(w, 2, 1).unwrap()).unwrap();
                    stack.try_commit_shrink();
                    std::thread::yield_now();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // Residents drop with the structure here.
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        WORKERS * PER * 5 / 8,
        "every canary must drop exactly once across pool recycling"
    );
    // Debug builds meter the pool; prove blocks actually cycled through
    // freelists instead of silently falling back to malloc-per-op.
    if cfg!(debug_assertions) {
        let after = stack2d_repro::stack2d::pool_stats();
        assert!(
            after.reused > before.reused,
            "churn must be served from freelists: {before:?} -> {after:?}"
        );
        assert!(
            after.cached > before.cached,
            "retired blocks must reach the freelists: {before:?} -> {after:?}"
        );
    }
}

#[test]
fn single_handle_churn_drops_every_canary_once() {
    // The sequential control arm: with no concurrency at all, every popped
    // canary drops at its pop and every resident one with the structure.
    const PER: usize = 4_000;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let stack =
            Stack2D::<Canary>::builder().params(Params::new(2, 2, 1).unwrap()).build().unwrap();
        let mut h = stack.handle_seeded(3);
        for i in 0..PER {
            if i % 2 == 0 {
                h.push(Canary::new(&drops));
            } else {
                drop(h.pop());
            }
        }
        drop(h);
    }
    assert_eq!(drops.load(Ordering::SeqCst), PER / 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `pop_n(n)` must return exactly the multiset that `n` sequential
    /// pops would have: same cardinality rule (min(n, len)) and drawn
    /// from the pushed population with no loss or invention.
    #[test]
    fn pop_n_matches_n_sequential_pops_as_a_multiset(
        width in 1usize..5,
        depth in 1usize..4,
        pushes in proptest::collection::vec(0u64..1_000, 0..200),
        ask in 0usize..256,
        seed in any::<u64>(),
    ) {
        let params = Params::new(width, depth, 1).unwrap();
        let batched = Stack2D::<u64>::new(params);
        let sequential = Stack2D::<u64>::new(params);
        let mut hb = batched.handle_seeded(seed);
        let mut hs = sequential.handle_seeded(seed);
        hb.push_n(pushes.clone());
        for &v in &pushes {
            hs.push(v);
        }

        let got = hb.pop_n(ask);
        let mut one_by_one = Vec::new();
        for _ in 0..ask {
            match hs.pop() {
                Some(v) => one_by_one.push(v),
                None => break,
            }
        }
        prop_assert_eq!(got.len(), one_by_one.len());
        prop_assert_eq!(got.len(), ask.min(pushes.len()));

        // Batched and sequential draws may pick different sub-stacks, so
        // compare multisets, and both must come from the pushed values.
        let mut remaining_b: Vec<u64> = std::iter::from_fn(|| hb.pop()).collect();
        let mut population = pushes.clone();
        population.sort_unstable();
        remaining_b.extend(got);
        remaining_b.sort_unstable();
        prop_assert_eq!(remaining_b, population, "pop_n + drain must equal the pushed multiset");
    }

    /// Batch push then full drain conserves the multiset under pooling.
    #[test]
    fn push_n_then_drain_conserves(
        values in proptest::collection::vec(any::<u64>(), 0..300),
        chunk in 1usize..64,
        seed in any::<u64>(),
    ) {
        let stack = Stack2D::<u64>::new(Params::new(3, 2, 1).unwrap());
        let mut h = stack.handle_seeded(seed);
        for c in values.chunks(chunk) {
            h.push_n(c.to_vec());
        }
        let mut drained: Vec<u64> = std::iter::from_fn(|| h.pop()).collect();
        drained.sort_unstable();
        let mut expect = values.clone();
        expect.sort_unstable();
        prop_assert_eq!(drained, expect);
    }
}
