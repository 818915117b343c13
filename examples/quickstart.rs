//! Quickstart: build a 2D-Stack through the unified builder, push and pop
//! from many threads, and inspect the relaxation bound.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use stack2d::{RelaxedOps, Stack2D};

fn main() {
    // --- 1. Choose parameters -------------------------------------------
    // One validated builder serves every windowed structure (Stack2D,
    // Queue2D, Counter2D). for_threads is the paper's high-throughput
    // preset: width = 4P sub-stacks and the tightest window. Theorem 1
    // bounds how far out of LIFO order a pop can be:
    // k = (2*shift + depth) * (width - 1).
    let threads = 4;
    let stack: Stack2D<u64> =
        Stack2D::builder().for_threads(threads).build().expect("preset is valid");
    println!(
        "params: {}  ->  pops are at most {} positions out of order",
        stack.params(),
        stack.k_bound()
    );

    // Alternatively, start from a relaxation budget: for_bound(k) inverts
    // the formula into the maximal width whose bound stays within k.
    let budgeted: Stack2D<u64> = Stack2D::builder().for_bound(200).build().expect("valid");
    println!("a k<=200 configuration: {}", budgeted.params());

    // --- 2. Run it from several threads ---------------------------------
    let per_thread = 100_000u64;

    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let stack = &stack;
            s.spawn(move || {
                // A handle carries per-thread state (locality + hop RNG):
                // create one per thread, not per operation.
                let mut h = stack.handle();
                for i in 0..per_thread {
                    h.push(t * per_thread + i);
                }
                let mut popped = 0;
                while popped < per_thread && h.pop().is_some() {
                    popped += 1;
                }
            });
        }
    });

    // --- 3. Inspect ------------------------------------------------------
    println!("after the storm: {} items resident", stack.len());
    println!("per-sub-stack load profile: {:?}", stack.load_profile());
    println!("window Global counter: {}", stack.global());
    println!("algorithm name (paper legend): {}", RelaxedOps::<u64>::name(&stack));

    // Drain and verify nothing is lost.
    let mut drained = 0u64;
    let mut h = stack.handle();
    while h.pop().is_some() {
        drained += 1;
    }
    println!("drained the remaining {drained} items; stack empty = {}", stack.is_empty());
    assert!(stack.is_empty());
}
