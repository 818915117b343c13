//! Count-in-node lock-free sub-stack — the building block of the 2D-Stack.
//!
//! Each sub-stack is a Treiber-style linked list whose state is the
//! `(top, count)` pair of the paper (§3), which updates both fields with
//! one 16-byte compare-and-exchange (`CAE`, i.e. `cmpxchg16b`). Stable Rust
//! has no 128-bit atomic, so here every node carries its own **height** (the
//! item count of the stack it tops) and the sub-stack is a single
//! [`Atomic`] `top` pointer: `count` is `top.height`, or 0 when `top` is
//! null. A push writes `next` and `height` before the publishing CAS, so
//! nodes are immutable once reachable, and one single-word CAS on `top`
//! moves both fields at once.
//!
//! The pair stays consistent because a caller holds its epoch guard from
//! [`SubStack::view`] to the CAS: the node at `view.top` cannot be retired,
//! recycled by the node pool and reinstalled as `top` in between. A
//! successful CAS therefore proves `top` is the very node the view read,
//! whose `next` and `height` never changed — no ABA. See DESIGN.md §3.
//!
//! The sub-stack is exposed publicly because the distribution baselines
//! (`random`, `random-c2`, `k-robin` in `stack2d-baselines`) are built from
//! the same block, as they are in the paper.

use crate::sync::atomic::Ordering;
use core::fmt;
use core::mem::ManuallyDrop;
use core::ptr;

use crossbeam_epoch::{Atomic, Guard, Shared};

use crate::pool;

/// A node of the intrusive linked list that stores one item.
///
/// Nodes are immutable once published: `next` and `height` are written
/// before the CAS that makes the node reachable and never change
/// afterwards, so readers holding an epoch guard may dereference it freely.
pub(crate) struct Node<T> {
    value: ManuallyDrop<T>,
    next: *const Node<T>,
    /// Items in the stack this node tops: `next.height + 1`, 1 at the bottom.
    height: usize,
}

/// A value boxed into a list node *before* knowing which sub-stack will take
/// it.
///
/// The 2D-Stack's push may probe many sub-stacks before one accepts the
/// item; preparing the node once avoids re-allocating on every failed CAS.
/// If a `PreparedNode` is dropped without being pushed, the value inside is
/// dropped normally.
///
/// # Examples
///
/// ```
/// use stack2d::substack::{PreparedNode, SubStack};
///
/// let stack = SubStack::new();
/// let node = PreparedNode::new(7usize);
/// let guard = crossbeam_epoch::pin();
/// let view = stack.view(&guard);
/// assert!(stack.try_push_at(&view, node, &guard).is_ok());
/// assert_eq!(stack.pop(), Some(7));
/// ```
pub struct PreparedNode<T> {
    raw: *mut Node<T>,
}

// SAFETY: the handle uniquely owns its boxed node (like `Box<Node<T>>`), so
// it may move between threads whenever the value itself can.
unsafe impl<T: Send> Send for PreparedNode<T> {}

impl<T> PreparedNode<T> {
    /// Stores `value` in a node ready for [`SubStack::try_push_at`], drawing
    /// the node's storage from the calling thread's node pool. Every pool
    /// block originates from `Box::into_raw`, so the un-pushed paths
    /// ([`PreparedNode::into_value`], `Drop`) free it as a plain box.
    pub fn new(value: T) -> Self {
        let raw =
            pool::alloc(Node { value: ManuallyDrop::new(value), next: ptr::null(), height: 0 });
        PreparedNode { raw }
    }

    /// Recovers the value, deallocating the node.
    pub fn into_value(self) -> T {
        // SAFETY: `raw` is the Box-compatible block made in `new` and still
        // owned by this handle (the node was never published to a list).
        let mut boxed = unsafe { Box::from_raw(self.raw) };
        // SAFETY: the value was initialized in `new` and is taken exactly
        // once — `forget(self)` below prevents the Drop impl from touching
        // it again.
        let value = unsafe { ManuallyDrop::take(&mut boxed.value) };
        core::mem::forget(self);
        value
    }
}

impl<T> Drop for PreparedNode<T> {
    fn drop(&mut self) {
        // SAFETY: an un-pushed node is still uniquely owned by the handle,
        // so both the allocation and the still-initialized value are ours
        // to free; the pushed path forgets the handle before this can run.
        unsafe {
            let mut boxed = Box::from_raw(self.raw);
            ManuallyDrop::drop(&mut boxed.value);
        }
    }
}

impl<T> fmt::Debug for PreparedNode<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedNode").finish_non_exhaustive()
    }
}

/// A consistent snapshot of a sub-stack's `(top, count)` pair, observed in
/// one atomic load of `top`.
///
/// All `try_*_at` operations CAS against the exact `top` captured here, so
/// a stale view can never be applied — the CAS fails instead and the
/// caller re-probes, which is precisely the contention signal the 2D-Stack's
/// search policy reacts to.
pub struct DescView<'g, T> {
    top: Shared<'g, Node<T>>,
    count: usize,
}

impl<'g, T> DescView<'g, T> {
    /// The item count at snapshot time (the top node's height).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the sub-stack was empty at snapshot time.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.top.is_null()
    }
}

impl<T> fmt::Debug for DescView<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DescView")
            .field("count", &self.count)
            .field("empty", &self.is_empty())
            .finish()
    }
}

/// Error returned by a single-shot CAS attempt that lost a race.
///
/// Carries the prepared node back to the caller on push so the allocation is
/// reused on the next probe.
#[derive(Debug)]
pub struct Contended<P>(pub P);

/// A lock-free Treiber-style stack with an atomically maintained item count.
///
/// This is the unit sub-structure of the 2D design. It supports both
/// standalone use (the [`push`](SubStack::push) / [`pop`](SubStack::pop)
/// retry loops — used by the `random`/`random-c2`/`k-robin` baselines) and
/// single-attempt use against a validated snapshot (the `try_*_at` family —
/// used by the 2D window logic, which must check the count against `Global`
/// and apply the operation on the *same* `(top, count)` pair). Nodes are
/// drawn from, and retired back to, the node pool (`pool.rs`).
///
/// # Examples
///
/// ```
/// use stack2d::substack::SubStack;
///
/// let s = SubStack::new();
/// s.push(1);
/// s.push(2);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.pop(), Some(2));
/// assert_eq!(s.pop(), Some(1));
/// assert_eq!(s.pop(), None);
/// ```
pub struct SubStack<T> {
    top: Atomic<Node<T>>,
}

// SAFETY: the stack owns its nodes and hands values across threads only by
// moving them out, so `T: Send` is the full requirement (same bounds as a
// `Mutex<Vec<T>>`; the raw pointers are what suppress the auto-impl).
unsafe impl<T: Send> Send for SubStack<T> {}
// SAFETY: as above — shared access is mediated by the CAS on `top`.
unsafe impl<T: Send> Sync for SubStack<T> {}

impl<T> SubStack<T> {
    /// Creates an empty sub-stack (`top` null, count 0).
    pub fn new() -> Self {
        SubStack { top: Atomic::null() }
    }

    /// Takes a consistent `(top, count)` snapshot.
    #[inline]
    pub fn view<'g>(&self, guard: &'g Guard) -> DescView<'g, T> {
        let top = self.top.load(Ordering::Acquire, guard);
        // SAFETY: the epoch guard keeps the loaded node alive, and its
        // height was written before the CAS that published it.
        let count = unsafe { top.as_ref() }.map_or(0, |n| n.height);
        DescView { top, count }
    }

    /// The item count at this instant (a fresh snapshot's count).
    #[inline]
    pub fn len(&self) -> usize {
        let guard = crossbeam_epoch::pin();
        self.view(&guard).count()
    }

    /// Whether the sub-stack is empty at this instant.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts one push of `node` against the snapshot `view`.
    ///
    /// Returns the node back inside [`Contended`] if another thread won the
    /// CAS on `top` in between — the 2D search policy responds to that
    /// with a random hop (§3: contention avoidance).
    ///
    /// # Errors
    ///
    /// [`Contended`] when `top` changed since `view` was taken.
    pub fn try_push_at<'g>(
        &self,
        view: &DescView<'g, T>,
        node: PreparedNode<T>,
        guard: &'g Guard,
    ) -> Result<(), Contended<PreparedNode<T>>> {
        // SAFETY: link the node on top of the snapshot — the node is
        // private until the CAS below succeeds, so the plain writes cannot
        // race. A node that lost an earlier CAS is simply re-linked here.
        unsafe {
            (*node.raw).next = view.top.as_raw();
            (*node.raw).height = view.count + 1;
        }
        let new = Shared::from(node.raw.cast_const());
        match self.top.compare_exchange(view.top, new, Ordering::AcqRel, Ordering::Acquire, guard) {
            Ok(_) => {
                // The node is now owned by the list; forget the handle.
                core::mem::forget(node);
                Ok(())
            }
            Err(_) => Err(Contended(node)),
        }
    }

    /// Attempts one pop against the snapshot `view`.
    ///
    /// `Ok(None)` means the snapshot showed an empty sub-stack (a definite
    /// observation, not a race).
    ///
    /// # Errors
    ///
    /// [`Contended`] when `top` changed since `view` was taken.
    pub fn try_pop_at<'g>(
        &self,
        view: &DescView<'g, T>,
        guard: &'g Guard,
    ) -> Result<Option<T>, Contended<()>> {
        // SAFETY: `view` was taken under `guard`, which keeps every node
        // reachable at snapshot time alive.
        let Some(top) = (unsafe { view.top.as_ref() }) else {
            return Ok(None);
        };
        let next = Shared::from(top.next);
        match self.top.compare_exchange(view.top, next, Ordering::AcqRel, Ordering::Acquire, guard)
        {
            Ok(_) => {
                // SAFETY: we won the pop CAS, so we hold the unique right to
                // consume this node's value; `value` is `ManuallyDrop`, so
                // the deferred node reclamation won't double-drop it.
                let value = unsafe { ptr::read(&*top.value) };
                // SAFETY: our CAS unlinked the node, and only the winner
                // retires it, exactly once; the value was consumed above,
                // so recycling the storage is complete reclamation.
                unsafe { guard.defer_destroy_with(view.top, pool::recycle::<Node<T>>) };
                Ok(Some(value))
            }
            Err(_) => Err(Contended(())),
        }
    }

    /// Pushes `value`, retrying until the CAS succeeds (plain Treiber loop).
    pub fn push(&self, value: T) {
        let mut node = PreparedNode::new(value);
        let guard = crossbeam_epoch::pin();
        loop {
            let view = self.view(&guard);
            match self.try_push_at(&view, node, &guard) {
                Ok(()) => return,
                Err(Contended(n)) => node = n,
            }
        }
    }

    /// Pops the top item, retrying on contention; `None` when empty.
    pub fn pop(&self) -> Option<T> {
        let guard = crossbeam_epoch::pin();
        loop {
            let view = self.view(&guard);
            match self.try_pop_at(&view, &guard) {
                Ok(v) => return v,
                Err(Contended(())) => continue,
            }
        }
    }
}

impl<T> Default for SubStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for SubStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubStack").field("len", &self.len()).finish()
    }
}

impl<T> Drop for SubStack<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees exclusive access — no guards can be
        // pinned on this stack any more, so walking and freeing directly
        // (including the `ManuallyDrop` values, never consumed for nodes
        // still in the list) is sound.
        unsafe {
            let guard = crossbeam_epoch::unprotected();
            let mut cur = self.top.load(Ordering::Relaxed, guard).as_raw();
            while !cur.is_null() {
                let mut boxed = Box::from_raw(cur.cast_mut());
                ManuallyDrop::drop(&mut boxed.value);
                cur = boxed.next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicUsize, Ordering as AOrd};
    use crate::sync::Arc;

    #[test]
    fn new_stack_is_empty() {
        let s: SubStack<u32> = SubStack::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn push_pop_is_lifo() {
        let s = SubStack::new();
        for i in 0..100 {
            s.push(i);
        }
        assert_eq!(s.len(), 100);
        for i in (0..100).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn view_count_tracks_operations() {
        let s = SubStack::new();
        let guard = crossbeam_epoch::pin();
        assert_eq!(s.view(&guard).count(), 0);
        assert!(s.view(&guard).is_empty());
        s.push("a");
        assert_eq!(s.view(&guard).count(), 1);
        assert!(!s.view(&guard).is_empty());
        s.pop();
        assert_eq!(s.view(&guard).count(), 0);
    }

    #[test]
    fn try_push_at_fails_on_stale_view() {
        let s = SubStack::new();
        let guard = crossbeam_epoch::pin();
        let stale = s.view(&guard);
        s.push(1); // invalidates `stale`
        let node = PreparedNode::new(2);
        let err = s.try_push_at(&stale, node, &guard);
        assert!(err.is_err(), "stale view must not be applied");
        // The node comes back and its value is recoverable.
        let Err(Contended(n)) = err else { unreachable!() };
        assert_eq!(n.into_value(), 2);
    }

    #[test]
    fn try_pop_at_fails_on_stale_view() {
        let s = SubStack::new();
        s.push(1);
        let guard = crossbeam_epoch::pin();
        let stale = s.view(&guard);
        s.push(2);
        assert!(s.try_pop_at(&stale, &guard).is_err());
    }

    #[test]
    fn try_pop_at_reports_definite_empty() {
        let s: SubStack<u8> = SubStack::new();
        let guard = crossbeam_epoch::pin();
        let view = s.view(&guard);
        assert!(matches!(s.try_pop_at(&view, &guard), Ok(None)));
    }

    #[test]
    fn prepared_node_drop_drops_value() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, AOrd::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let node = PreparedNode::new(Canary(drops.clone()));
        drop(node);
        assert_eq!(drops.load(AOrd::SeqCst), 1);
    }

    #[test]
    fn prepared_node_into_value_round_trips() {
        let node = PreparedNode::new(String::from("payload"));
        assert_eq!(node.into_value(), "payload");
    }

    #[test]
    fn dropping_nonempty_stack_drops_items_exactly_once() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, AOrd::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let s = SubStack::new();
            for _ in 0..10 {
                s.push(Canary(drops.clone()));
            }
            // Pop a few so both popped and resident items are covered.
            drop(s.pop());
            drop(s.pop());
        }
        // Give epoch reclamation a nudge; resident items are freed in Drop.
        assert_eq!(drops.load(AOrd::SeqCst), 10);
    }

    #[test]
    fn concurrent_push_pop_conserves_items() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2_000;
        let s = Arc::new(SubStack::new());
        let popped = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let s = Arc::clone(&s);
            let popped = Arc::clone(&popped);
            joins.push(crate::sync::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    s.push(t * PER_THREAD + i);
                    if s.pop().is_some() {
                        popped.fetch_add(1, AOrd::SeqCst);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let remaining = {
            let mut n = 0;
            while s.pop().is_some() {
                n += 1;
            }
            n
        };
        assert_eq!(
            popped.load(AOrd::SeqCst) + remaining,
            THREADS * PER_THREAD,
            "every pushed item must be popped exactly once"
        );
    }

    /// The heights from `top` down; a consistent list reads `n, n-1, .., 1`.
    fn heights<T>(s: &SubStack<T>) -> Vec<usize> {
        let guard = crossbeam_epoch::pin();
        let mut cur = s.view(&guard).top.as_raw();
        let mut out = Vec::new();
        // SAFETY: callers quiesce every other thread and `guard` pins the
        // epoch, so each reachable node is live.
        while let Some(node) = unsafe { cur.as_ref() } {
            out.push(node.height);
            cur = node.next;
        }
        out
    }

    #[test]
    fn heights_stay_consistent_after_concurrent_churn() {
        const THREADS: usize = 3;
        const ROUNDS: usize = 3_000;
        let s = Arc::new(SubStack::new());
        let popped = Arc::new(AtomicUsize::new(0));
        let joins: Vec<_> = (0..THREADS)
            .map(|_| {
                let s = Arc::clone(&s);
                let popped = Arc::clone(&popped);
                crate::sync::thread::spawn(move || {
                    // Two pushes per pop: the stack grows and shrinks under
                    // contention, so heights are re-linked on lost CASes.
                    for i in 0..ROUNDS {
                        s.push(i);
                        if i % 2 == 1 && s.pop().is_some() {
                            popped.fetch_add(1, AOrd::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let h = heights(&s);
        assert!(h.iter().rev().copied().eq(1..=h.len()), "height != next.height + 1");
        assert_eq!(s.len(), h.len(), "count must equal the reachable node count");
        assert_eq!(h.len(), THREADS * ROUNDS - popped.load(AOrd::SeqCst));
    }

    #[test]
    fn prepared_node_takes_the_fresh_height_after_a_lost_cas() {
        let s = SubStack::new();
        s.push(1);
        let guard = crossbeam_epoch::pin();
        let stale = s.view(&guard);
        s.push(2);
        s.push(3);
        let Err(Contended(node)) = s.try_push_at(&stale, PreparedNode::new(4), &guard) else {
            panic!("stale view must not be applied");
        };
        let fresh = s.view(&guard);
        assert_eq!(fresh.count(), 3);
        assert!(s.try_push_at(&fresh, node, &guard).is_ok());
        assert_eq!(heights(&s), [4, 3, 2, 1]);
    }
}
