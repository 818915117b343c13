//! The node pool serves a steady push/pop churn from recycled blocks.
//!
//! The epoch collector hands retired nodes back in bursts, one per
//! collection; a pool shard that cannot hold a whole burst sends the
//! overflow to `free` and the pushes that follow to `malloc`. This runs the
//! benchmark's stack-churn loop (`for_threads(2)`, prefill 32768, uniform
//! 50/50 push/pop) on one thread and checks that nearly every node the
//! churn allocates comes from the pool.
//!
//! [`pool_stats`] is process-global and counts only in debug builds, so the
//! check lives alone in this target and is compiled only with debug
//! assertions.

#![cfg(all(debug_assertions, not(model)))]

use stack2d::{pool_stats, Stack2D};

#[test]
fn single_thread_churn_allocates_from_the_pool() {
    const PREFILL: u64 = 32_768;
    const OPS: u64 = 200_000;
    let stack = Stack2D::<u64>::builder().for_threads(2).seed(1).build().unwrap();
    let mut h = stack.handle_seeded(1);
    for i in 0..PREFILL {
        h.push(i);
    }
    let before = pool_stats();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..OPS {
        // xorshift64: a fixed, seed-free 50/50 push/pop sequence.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 1 == 0 {
            h.push(i);
        } else {
            h.pop();
        }
    }
    let after = pool_stats();
    let fresh = after.fresh - before.fresh;
    let reused = after.reused - before.reused;
    let hit_rate = reused as f64 / (fresh + reused) as f64;
    assert!(
        hit_rate >= 0.9,
        "only {:.1}% of churn allocations came from the pool ({reused} reused, {fresh} fresh)",
        hit_rate * 100.0
    );
}
