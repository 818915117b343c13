//! The distribution/scheduling baselines the paper implemented alongside
//! the 2D-Stack (§1, §4): `random`, `random-c2` and `k-robin`.
//!
//! All three split the stack into `width` independent Treiber-style
//! sub-stacks (the same [`SubStack`] block the 2D-Stack uses) and differ
//! only in how operations are *scheduled* onto sub-stacks:
//!
//! * [`RandomStack`] — pick a sub-stack uniformly at random per operation;
//! * [`RandomC2Stack`] — sample two sub-stacks and pick the better one by
//!   item count (push → shorter, pop → longer), the "power of two choices"
//!   policy of the MultiQueues [Rihani, Sanders, Dementiev 2015];
//! * [`KRobinStack`] — a per-thread round-robin cursor; on contention the
//!   thread *keeps retrying the same sub-stack*, which is exactly the
//!   behaviour the paper contrasts against the 2D-Stack's contention-
//!   avoiding hops (§4: "k-robin ... keeps retrying on the same sub-stack").
//!
//! None of these bounds relaxation deterministically the way the window
//! does; `k-robin`'s bound grows with the number of threads, and `random`'s
//! error is only probabilistic. Pop-side emptiness is decided by a covering
//! sweep over all sub-stacks, as in the 2D-Stack.

use core::fmt;

use crossbeam_utils::CachePadded;

use stack2d::rng::HopRng;
use stack2d::substack::{Contended, PreparedNode, SubStack};
use stack2d::{ConcurrentStack, StackHandle};

/// Shared chassis: an array of counted sub-stacks.
struct SubArray<T> {
    subs: Box<[CachePadded<SubStack<T>>]>,
}

impl<T> SubArray<T> {
    fn new(width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        SubArray { subs: (0..width).map(|_| CachePadded::new(SubStack::new())).collect() }
    }

    #[inline]
    fn width(&self) -> usize {
        self.subs.len()
    }

    /// Pops from sub-stack `start` or, failing that, sweeps all others;
    /// returns `None` only after a full sweep observed every sub-stack
    /// empty.
    fn pop_with_sweep(&self, start: usize) -> Option<T> {
        let width = self.width();
        let guard = crossbeam_epoch::pin();
        loop {
            let mut all_empty = true;
            for off in 0..width {
                let i = (start + off) % width;
                let view = self.subs[i].view(&guard);
                if view.is_empty() {
                    continue;
                }
                all_empty = false;
                match self.subs[i].try_pop_at(&view, &guard) {
                    Ok(Some(v)) => return Some(v),
                    Ok(None) => unreachable!("non-empty view popped empty"),
                    Err(Contended(())) => {
                        // Lost a race: the sweep's emptiness verdict is
                        // stale; restart it.
                        break;
                    }
                }
            }
            if all_empty {
                return None;
            }
        }
    }

    fn len(&self) -> usize {
        self.subs.iter().map(|s| s.len()).sum()
    }
}

impl<T> fmt::Debug for SubArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubArray").field("width", &self.width()).finish()
    }
}

// ---------------------------------------------------------------------------
// random
// ---------------------------------------------------------------------------

/// Uniform-random scheduling over `width` sub-stacks.
///
/// # Examples
///
/// ```
/// use stack2d_baselines::RandomStack;
///
/// let s = RandomStack::new(4);
/// s.push(1);
/// assert_eq!(s.pop(), Some(1));
/// ```
pub struct RandomStack<T> {
    arr: SubArray<T>,
}

impl<T> RandomStack<T> {
    /// Creates a random-scheduled stack over `width` sub-stacks.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        RandomStack { arr: SubArray::new(width) }
    }

    /// Number of sub-stacks.
    pub fn width(&self) -> usize {
        self.arr.width()
    }

    /// Total resident items (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.arr.len()
    }

    /// Whether all sub-stacks are empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push through a temporary handle.
    pub fn push(&self, value: T)
    where
        T: Send,
    {
        self.handle().push(value);
    }

    /// Pop through a temporary handle.
    pub fn pop(&self) -> Option<T>
    where
        T: Send,
    {
        self.handle().pop()
    }
}

impl<T> fmt::Debug for RandomStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomStack").field("width", &self.width()).finish()
    }
}

/// Per-thread handle to a [`RandomStack`].
pub struct RandomHandle<'s, T> {
    stack: &'s RandomStack<T>,
    rng: HopRng,
}

impl<T: Send> StackHandle<T> for RandomHandle<'_, T> {
    fn push(&mut self, value: T) {
        let mut node = PreparedNode::new(value);
        let guard = crossbeam_epoch::pin();
        loop {
            let i = self.rng.bounded(self.stack.width());
            let sub = &self.stack.arr.subs[i];
            let view = sub.view(&guard);
            match sub.try_push_at(&view, node, &guard) {
                Ok(()) => return,
                Err(Contended(n)) => node = n,
            }
        }
    }

    fn pop(&mut self) -> Option<T> {
        let start = self.rng.bounded(self.stack.width());
        self.stack.arr.pop_with_sweep(start)
    }
}

impl<T> fmt::Debug for RandomHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomHandle").finish_non_exhaustive()
    }
}

impl<T: Send> ConcurrentStack<T> for RandomStack<T> {
    type Handle<'a>
        = RandomHandle<'a, T>
    where
        T: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        RandomHandle { stack: self, rng: HopRng::from_thread() }
    }

    fn handle_seeded(&self, seed: u64) -> Self::Handle<'_> {
        RandomHandle { stack: self, rng: HopRng::seeded(seed) }
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

stack2d::impl_relaxed_ops_for_stack!(RandomStack);

// ---------------------------------------------------------------------------
// random-c2
// ---------------------------------------------------------------------------

/// Choice-of-two scheduling: sample two sub-stacks, push to the shorter and
/// pop from the longer.
///
/// Item counts are the hotness signal (the only totally-ordered one a
/// sub-stack exposes); this mirrors the MultiQueue policy the paper cites
/// as `random-c2`.
pub struct RandomC2Stack<T> {
    arr: SubArray<T>,
}

impl<T> RandomC2Stack<T> {
    /// Creates a choice-of-two stack over `width` sub-stacks.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        RandomC2Stack { arr: SubArray::new(width) }
    }

    /// Number of sub-stacks.
    pub fn width(&self) -> usize {
        self.arr.width()
    }

    /// Total resident items (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.arr.len()
    }

    /// Whether all sub-stacks are empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push through a temporary handle.
    pub fn push(&self, value: T)
    where
        T: Send,
    {
        self.handle().push(value);
    }

    /// Pop through a temporary handle.
    pub fn pop(&self) -> Option<T>
    where
        T: Send,
    {
        self.handle().pop()
    }
}

impl<T> fmt::Debug for RandomC2Stack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomC2Stack").field("width", &self.width()).finish()
    }
}

/// Per-thread handle to a [`RandomC2Stack`].
pub struct RandomC2Handle<'s, T> {
    stack: &'s RandomC2Stack<T>,
    rng: HopRng,
}

impl<T: Send> StackHandle<T> for RandomC2Handle<'_, T> {
    fn push(&mut self, value: T) {
        let mut node = PreparedNode::new(value);
        let guard = crossbeam_epoch::pin();
        let width = self.stack.width();
        loop {
            let a = self.rng.bounded(width);
            let b = self.rng.bounded(width);
            let va = self.stack.arr.subs[a].view(&guard);
            let vb = self.stack.arr.subs[b].view(&guard);
            // Push to the shorter of the two samples.
            let (i, view) = if va.count() <= vb.count() { (a, va) } else { (b, vb) };
            match self.stack.arr.subs[i].try_push_at(&view, node, &guard) {
                Ok(()) => return,
                Err(Contended(n)) => node = n,
            }
        }
    }

    fn pop(&mut self) -> Option<T> {
        let guard = crossbeam_epoch::pin();
        let width = self.stack.width();
        // Bounded number of two-sample attempts, then fall back to a
        // covering sweep so emptiness is decided exactly.
        for _ in 0..width {
            let a = self.rng.bounded(width);
            let b = self.rng.bounded(width);
            let va = self.stack.arr.subs[a].view(&guard);
            let vb = self.stack.arr.subs[b].view(&guard);
            // Pop from the longer of the two samples.
            let (i, view) = if va.count() >= vb.count() { (a, va) } else { (b, vb) };
            if view.is_empty() {
                continue;
            }
            if let Ok(Some(v)) = self.stack.arr.subs[i].try_pop_at(&view, &guard) {
                return Some(v);
            }
        }
        let start = self.rng.bounded(width);
        self.stack.arr.pop_with_sweep(start)
    }
}

impl<T> fmt::Debug for RandomC2Handle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomC2Handle").finish_non_exhaustive()
    }
}

impl<T: Send> ConcurrentStack<T> for RandomC2Stack<T> {
    type Handle<'a>
        = RandomC2Handle<'a, T>
    where
        T: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        RandomC2Handle { stack: self, rng: HopRng::from_thread() }
    }

    fn handle_seeded(&self, seed: u64) -> Self::Handle<'_> {
        RandomC2Handle { stack: self, rng: HopRng::seeded(seed) }
    }

    fn name(&self) -> &'static str {
        "random-c2"
    }
}

stack2d::impl_relaxed_ops_for_stack!(RandomC2Stack);

// ---------------------------------------------------------------------------
// k-robin
// ---------------------------------------------------------------------------

/// Per-thread round-robin scheduling over `width` sub-stacks.
///
/// On a lost CAS the thread retries the *same* sub-stack (no contention
/// avoidance) — the behaviour the paper's Figure 1 analysis attributes
/// k-robin's low-relaxation throughput deficit to.
pub struct KRobinStack<T> {
    arr: SubArray<T>,
    /// Estimated out-of-order bound for a given thread count; reported via
    /// [`ConcurrentStack::relaxation_bound`]. See [`KRobinStack::new`].
    bound: usize,
}

impl<T> KRobinStack<T> {
    /// Creates a round-robin stack over `width` sub-stacks, assuming at most
    /// `threads` concurrent threads.
    ///
    /// The reported relaxation bound is `2 * threads * (width - 1)`: between
    /// two visits of a thread to the same sub-stack, every other thread can
    /// advance its own cursor past `width - 1` other sub-stacks in each
    /// direction. This is the calibration the harness uses to place k-robin
    /// on Figure 1's k-axis (the paper notes k-robin "reduces the number of
    /// sub-stacks with the increase in number of threads to keep the quality
    /// bound").
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, threads: usize) -> Self {
        KRobinStack { arr: SubArray::new(width), bound: 2 * threads.max(1) * (width - 1) }
    }

    /// Inverts the bound calibration: the widest `width` whose estimated
    /// bound stays within `k` for `threads` threads.
    pub fn width_for_k(k: usize, threads: usize) -> usize {
        (k / (2 * threads.max(1)) + 1).max(1)
    }

    /// Number of sub-stacks.
    pub fn width(&self) -> usize {
        self.arr.width()
    }

    /// Total resident items (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.arr.len()
    }

    /// Whether all sub-stacks are empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push through a temporary handle.
    pub fn push(&self, value: T)
    where
        T: Send,
    {
        self.handle().push(value);
    }

    /// Pop through a temporary handle.
    pub fn pop(&self) -> Option<T>
    where
        T: Send,
    {
        self.handle().pop()
    }
}

impl<T> fmt::Debug for KRobinStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KRobinStack")
            .field("width", &self.width())
            .field("bound", &self.bound)
            .finish()
    }
}

/// Per-thread handle to a [`KRobinStack`].
///
/// The cursor mirrors stack discipline: a push claims the cursor's
/// sub-stack and advances it, a pop retreats the cursor and takes from the
/// sub-stack it lands on. Per thread, a pop therefore revisits the
/// sub-stack of the most recent un-popped push, which is what keeps the
/// scheme's out-of-order distance proportional to `width` on balanced
/// workloads.
pub struct KRobinHandle<'s, T> {
    stack: &'s KRobinStack<T>,
    cursor: usize,
}

impl<T: Send> StackHandle<T> for KRobinHandle<'_, T> {
    fn push(&mut self, value: T) {
        let width = self.stack.width();
        let i = self.cursor % width;
        self.cursor = (self.cursor + 1) % width;
        let mut node = PreparedNode::new(value);
        let guard = crossbeam_epoch::pin();
        let sub = &self.stack.arr.subs[i];
        // Retry on the *same* sub-stack until the CAS succeeds.
        loop {
            let view = sub.view(&guard);
            match sub.try_push_at(&view, node, &guard) {
                Ok(()) => return,
                Err(Contended(n)) => node = n,
            }
        }
    }

    fn pop(&mut self) -> Option<T> {
        let width = self.stack.width();
        // Retreat to the sub-stack of the most recent un-popped push.
        self.cursor = (self.cursor + width - 1) % width;
        let i = self.cursor;
        let guard = crossbeam_epoch::pin();
        let sub = &self.stack.arr.subs[i];
        loop {
            let view = sub.view(&guard);
            if view.is_empty() {
                // This round-robin target is empty; fall back to a covering
                // sweep so emptiness is decided exactly.
                return self.stack.arr.pop_with_sweep(i);
            }
            match sub.try_pop_at(&view, &guard) {
                Ok(v) => return v,
                Err(Contended(())) => continue,
            }
        }
    }
}

impl<T> fmt::Debug for KRobinHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KRobinHandle").field("cursor", &self.cursor).finish()
    }
}

impl<T: Send> ConcurrentStack<T> for KRobinStack<T> {
    type Handle<'a>
        = KRobinHandle<'a, T>
    where
        T: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        KRobinHandle { stack: self, cursor: 0 }
    }

    fn handle_seeded(&self, seed: u64) -> Self::Handle<'_> {
        // Round-robin carries no RNG; seed the starting cursor instead so
        // seeded runs still decorrelate their handles deterministically.
        KRobinHandle { stack: self, cursor: seed as usize % self.width().max(1) }
    }

    fn name(&self) -> &'static str {
        "k-robin"
    }

    fn relaxation_bound(&self) -> Option<usize> {
        Some(self.bound)
    }
}

stack2d::impl_relaxed_ops_for_stack!(KRobinStack);

#[cfg(test)]
mod tests {
    use super::*;
    use stack2d::sync::Arc;
    use std::collections::HashSet;

    fn exercise<S: ConcurrentStack<u64>>(stack: &S, n: u64) {
        let mut h = stack.handle();
        for i in 0..n {
            h.push(i);
        }
        let mut seen = HashSet::new();
        while let Some(v) = h.pop() {
            assert!(seen.insert(v), "duplicate {v}");
        }
        assert_eq!(seen.len() as u64, n, "{} lost items", stack.name());
    }

    #[test]
    fn random_recovers_all_items() {
        exercise(&RandomStack::new(4), 2_000);
    }

    #[test]
    fn random_c2_recovers_all_items() {
        exercise(&RandomC2Stack::new(4), 2_000);
    }

    #[test]
    fn k_robin_recovers_all_items() {
        exercise(&KRobinStack::new(4, 1), 2_000);
    }

    #[test]
    fn width_one_random_is_strict() {
        let s = RandomStack::new(1);
        let mut h = s.handle();
        for i in 0..100 {
            h.push(i);
        }
        for i in (0..100).rev() {
            assert_eq!(h.pop(), Some(i));
        }
    }

    #[test]
    fn width_one_krobin_is_strict() {
        let s = KRobinStack::new(1, 4);
        let mut h = s.handle();
        for i in 0..100 {
            h.push(i);
        }
        for i in (0..100).rev() {
            assert_eq!(h.pop(), Some(i));
        }
        assert_eq!(ConcurrentStack::<i32>::relaxation_bound(&s), Some(0));
    }

    #[test]
    fn k_robin_spreads_items_evenly() {
        let s = KRobinStack::new(4, 1);
        let mut h = s.handle();
        for i in 0..400 {
            h.push(i);
        }
        // A single round-robin pusher distributes exactly evenly.
        for sub in s.arr.subs.iter() {
            assert_eq!(sub.len(), 100);
        }
    }

    #[test]
    fn c2_balances_better_than_worst_case() {
        let s = RandomC2Stack::new(8);
        let mut h = s.handle();
        for i in 0..800 {
            h.push(i);
        }
        let counts: Vec<usize> = s.arr.subs.iter().map(|x| x.len()).collect();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        // Power of two choices keeps the spread tight (log log n); allow
        // generous slack but catch pathological imbalance.
        assert!(max - min < 30, "c2 imbalance too high: {counts:?}");
    }

    #[test]
    fn empty_pops_are_none_for_all() {
        assert_eq!(RandomStack::<u8>::new(3).pop(), None);
        assert_eq!(RandomC2Stack::<u8>::new(3).pop(), None);
        assert_eq!(KRobinStack::<u8>::new(3, 2).pop(), None);
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(ConcurrentStack::<u8>::name(&RandomStack::<u8>::new(1)), "random");
        assert_eq!(ConcurrentStack::<u8>::name(&RandomC2Stack::<u8>::new(1)), "random-c2");
        assert_eq!(ConcurrentStack::<u8>::name(&KRobinStack::<u8>::new(1, 1)), "k-robin");
    }

    #[test]
    fn random_has_no_deterministic_bound() {
        assert_eq!(ConcurrentStack::<u8>::relaxation_bound(&RandomStack::<u8>::new(4)), None);
        assert_eq!(ConcurrentStack::<u8>::relaxation_bound(&RandomC2Stack::<u8>::new(4)), None);
    }

    #[test]
    fn width_for_k_inverts_bound() {
        for threads in [1, 2, 4, 8, 16] {
            for k in [0, 10, 100, 1000] {
                let w = KRobinStack::<u8>::width_for_k(k, threads);
                let s = KRobinStack::<u8>::new(w, threads);
                assert!(
                    ConcurrentStack::<u8>::relaxation_bound(&s).unwrap() <= k + 2 * threads,
                    "width_for_k produced an overshooting bound"
                );
            }
        }
    }

    #[test]
    fn concurrent_conservation_all_variants() {
        fn storm<S: ConcurrentStack<u64> + 'static>(stack: Arc<S>) {
            const THREADS: usize = 4;
            const PER: usize = 2_000;
            let mut joins = Vec::new();
            for t in 0..THREADS {
                let stack = Arc::clone(&stack);
                joins.push(stack2d::sync::thread::spawn(move || {
                    let mut h = stack.handle();
                    let mut got = Vec::new();
                    for i in 0..PER {
                        h.push((t * PER + i) as u64);
                        if i % 2 == 0 {
                            if let Some(v) = h.pop() {
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
            let mut h = stack.handle();
            while let Some(v) = h.pop() {
                all.push(v);
            }
            all.sort_unstable();
            assert_eq!(all, (0..(THREADS * PER) as u64).collect::<Vec<_>>());
        }
        storm(Arc::new(RandomStack::new(4)));
        storm(Arc::new(RandomC2Stack::new(4)));
        storm(Arc::new(KRobinStack::new(4, 4)));
    }
}
