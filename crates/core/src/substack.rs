//! Descriptor-based lock-free sub-stack — the building block of the 2D-Stack.
//!
//! Each sub-stack is a Treiber-style linked list governed by a single
//! **descriptor** holding the top-of-stack pointer *and* the item count.
//! The paper updates the two fields together with a 16-byte
//! compare-and-exchange (`CAE`, i.e. `cmpxchg16b`); stable Rust has no
//! 128-bit atomic, so this implementation realizes the identical atomicity
//! guarantee by *descriptor swinging*: the descriptor lives behind an
//! [`Atomic`] pointer, every update allocates a fresh descriptor and installs
//! it with a single-word CAS, and the displaced descriptor is reclaimed
//! through epoch-based reclamation (`crossbeam-epoch`). Readers therefore
//! always observe a mutually consistent `(top, count)` pair, exactly as with
//! `CAE` — see DESIGN.md §3 for the substitution rationale.
//!
//! The sub-stack is exposed publicly because the distribution baselines
//! (`random`, `random-c2`, `k-robin` in `stack2d-baselines`) are built from
//! the same block, as they are in the paper.

use crate::sync::atomic::Ordering;
use core::fmt;
use core::mem::ManuallyDrop;
use core::ptr;

use crossbeam_epoch::{Atomic, Guard, Owned, Pointer, Shared};

use crate::pool;

/// A node of the intrusive linked list that stores one item.
///
/// Nodes are immutable once published: `next` is written before the CAS that
/// makes the node reachable and never changes afterwards, so readers holding
/// an epoch guard may dereference it freely.
pub(crate) struct Node<T> {
    value: ManuallyDrop<T>,
    next: *const Node<T>,
}

/// The per-sub-stack descriptor of the paper (§3): the topmost-item pointer
/// and the item counter, always updated in one atomic step.
pub(crate) struct Descriptor<T> {
    top: *const Node<T>,
    count: usize,
}

// SAFETY: raw pointers poison auto-traits; the descriptor only *refers* to
// nodes that carry `T`, so the usual container bounds apply.
unsafe impl<T: Send> Send for Descriptor<T> {}
// SAFETY: as above — the descriptor itself holds no thread-affine state.
unsafe impl<T: Send> Sync for Descriptor<T> {}

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
        let raw = pool::alloc(Node { value: ManuallyDrop::new(value), next: ptr::null() });
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

/// A consistent snapshot of a sub-stack's descriptor: the `(top, count)`
/// pair observed in one atomic load.
///
/// All `try_*_at` operations CAS against the exact descriptor captured here,
/// so a stale view can never be applied — the CAS fails instead and the
/// caller re-probes, which is precisely the contention signal the 2D-Stack's
/// search policy reacts to.
pub struct DescView<'g, T> {
    desc: Shared<'g, Descriptor<T>>,
    count: usize,
    empty: bool,
}

impl<'g, T> DescView<'g, T> {
    /// The item count recorded in the descriptor.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the sub-stack was empty at snapshot time.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.empty
    }
}

impl<T> fmt::Debug for DescView<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DescView").field("count", &self.count).field("empty", &self.empty).finish()
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
/// and apply the operation on the *same* descriptor). Descriptors and
/// nodes are drawn from, and retired back to, the node pool (`pool.rs`).
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
    desc: Atomic<Descriptor<T>>,
}

// SAFETY: the stack owns its nodes and hands values across threads only by
// moving them out, so `T: Send` is the full requirement (same bounds as a
// `Mutex<Vec<T>>`; the raw pointers are what suppress the auto-impl).
unsafe impl<T: Send> Send for SubStack<T> {}
// SAFETY: as above — shared access is mediated by the descriptor CAS.
unsafe impl<T: Send> Sync for SubStack<T> {}

impl<T> SubStack<T> {
    /// Creates an empty sub-stack (descriptor `{top: null, count: 0}`).
    pub fn new() -> Self {
        SubStack { desc: Atomic::new(Descriptor { top: ptr::null(), count: 0 }) }
    }

    /// Allocates a descriptor from the node pool (a `Box`-compatible block).
    #[inline]
    fn alloc_desc(desc: Descriptor<T>) -> Owned<Descriptor<T>> {
        // SAFETY: `pool::alloc` returns a unique, Box-compatible allocation
        // owned by no one else.
        unsafe { Owned::from_raw_ptr(pool::alloc(desc)) }
    }

    /// Takes a consistent `(top, count)` snapshot.
    #[inline]
    pub fn view<'g>(&self, guard: &'g Guard) -> DescView<'g, T> {
        let desc = self.desc.load(Ordering::Acquire, guard);
        // SAFETY: the descriptor pointer is never null (construction installs
        // one and every CAS replaces it with another), and the epoch guard
        // keeps the loaded descriptor alive.
        let d = unsafe { desc.deref() };
        DescView { desc, count: d.count, empty: d.top.is_null() }
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
    /// descriptor CAS in between — the 2D search policy responds to that
    /// with a random hop (§3: contention avoidance).
    ///
    /// # Errors
    ///
    /// [`Contended`] when the descriptor changed since `view` was taken.
    pub fn try_push_at<'g>(
        &self,
        view: &DescView<'g, T>,
        node: PreparedNode<T>,
        guard: &'g Guard,
    ) -> Result<(), Contended<PreparedNode<T>>> {
        // SAFETY: `view` was taken under `guard`, which pins the epoch the
        // descriptor was reachable in.
        let old = unsafe { view.desc.deref() };
        // SAFETY: link the node in front of the current top — the node is
        // private until the CAS below succeeds, so the plain write cannot
        // race.
        unsafe { (*node.raw).next = old.top };
        let new = Self::alloc_desc(Descriptor { top: node.raw as *const _, count: old.count + 1 });
        match self.desc.compare_exchange(view.desc, new, Ordering::AcqRel, Ordering::Acquire, guard)
        {
            Ok(_) => {
                // The node is now owned by the list; forget the handle.
                core::mem::forget(node);
                // SAFETY: our CAS unlinked the displaced descriptor, and only
                // the CAS winner retires it; concurrent snapshot holders are
                // protected by their own guards until reclamation.
                // Descriptors hold only raw pointers and a count — no drop
                // glue — so recycling the storage is complete reclamation.
                unsafe { guard.defer_destroy_with(view.desc, pool::recycle::<Descriptor<T>>) };
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
    /// [`Contended`] when the descriptor changed since `view` was taken.
    pub fn try_pop_at<'g>(
        &self,
        view: &DescView<'g, T>,
        guard: &'g Guard,
    ) -> Result<Option<T>, Contended<()>> {
        // SAFETY: `view` was taken under `guard`, which pins the epoch the
        // descriptor was reachable in.
        let old = unsafe { view.desc.deref() };
        if old.top.is_null() {
            debug_assert_eq!(old.count, 0, "descriptor invariant: null top implies count 0");
            return Ok(None);
        }
        // SAFETY: the epoch guard keeps every node that was reachable at
        // snapshot time alive, and `top` was non-null above.
        let top = unsafe { &*old.top };
        let new = Self::alloc_desc(Descriptor { top: top.next, count: old.count - 1 });
        match self.desc.compare_exchange(view.desc, new, Ordering::AcqRel, Ordering::Acquire, guard)
        {
            Ok(_) => {
                // SAFETY: we won the pop CAS, so we hold the unique right to
                // consume this node's value; `value` is `ManuallyDrop`, so
                // the deferred node deallocation won't double-drop it.
                let value = unsafe { ptr::read(&*top.value) };
                // Node and descriptor were unlinked by the same CAS, so
                // they are retired as a pair: one epoch fence instead of
                // two. Both reclaims are storage-only — the node's value
                // was consumed above and descriptors carry no drop glue.
                // SAFETY: the CAS unlinked both the node and the displaced
                // descriptor; only the winner retires them, exactly once.
                unsafe {
                    guard.defer_destroy_pair_with(
                        Shared::from(old.top),
                        pool::recycle::<Node<T>>,
                        view.desc,
                        pool::recycle::<Descriptor<T>>,
                    );
                }
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
            let desc = self.desc.load(Ordering::Relaxed, guard);
            let mut cur = desc.deref().top;
            while !cur.is_null() {
                let mut boxed = Box::from_raw(cur as *mut Node<T>);
                ManuallyDrop::drop(&mut boxed.value);
                cur = boxed.next;
            }
            drop(desc.into_owned());
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

    #[test]
    fn count_never_desynchronizes_under_concurrency() {
        let s = Arc::new(SubStack::new());
        let stop = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..3 {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            joins.push(crate::sync::thread::spawn(move || {
                while stop.load(AOrd::SeqCst) == 0 {
                    s.push(1u8);
                    s.pop();
                }
            }));
        }
        for _ in 0..1_000 {
            let guard = crossbeam_epoch::pin();
            let v = s.view(&guard);
            // count and emptiness always agree because they come from one
            // descriptor.
            assert_eq!(v.count() == 0, v.is_empty());
        }
        stop.store(1, AOrd::SeqCst);
        for j in joins {
            j.join().unwrap();
        }
    }
}
