//! The Treiber stack [Treiber 1986] — the classic lock-free stack and the
//! strict-semantics baseline of the paper's Figure 2.
//!
//! A single `head` pointer CASed by every operation: maximal contention,
//! strict LIFO. The 2D-Stack degenerates to (a count-carrying variant of)
//! this structure at `width = 1`.

use core::fmt;
use core::mem::ManuallyDrop;
use core::ptr;
use stack2d::sync::atomic::Ordering;

use crossbeam_epoch::{self as epoch, Atomic, Owned, Shared};
use crossbeam_utils::Backoff;

use stack2d::{OpsHandle, RelaxedOps};

struct Node<T> {
    value: ManuallyDrop<T>,
    next: *const Node<T>,
}

/// A strict lock-free LIFO stack with a single top-of-stack access point.
///
/// # Examples
///
/// ```
/// use stack2d_baselines::TreiberStack;
///
/// let s = TreiberStack::new();
/// s.push(1);
/// s.push(2);
/// assert_eq!(s.pop(), Some(2));
/// assert_eq!(s.pop(), Some(1));
/// assert_eq!(s.pop(), None);
/// ```
pub struct TreiberStack<T> {
    head: Atomic<Node<T>>,
}

// SAFETY: the stack owns its nodes and hands values across threads only by
// moving them out, so `T: Send` is the full requirement (the raw `next`
// pointers are what suppress the auto-impl).
unsafe impl<T: Send> Send for TreiberStack<T> {}
// SAFETY: as above — shared access is mediated by the head CAS.
unsafe impl<T: Send> Sync for TreiberStack<T> {}

impl<T> TreiberStack<T> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        TreiberStack { head: Atomic::null() }
    }

    /// Pushes `value`; retries with exponential backoff under contention.
    pub fn push(&self, value: T) {
        let guard = epoch::pin();
        let mut node = Owned::new(Node { value: ManuallyDrop::new(value), next: ptr::null() });
        let backoff = Backoff::new();
        loop {
            let head = self.head.load(Ordering::Acquire, &guard);
            node.next = head.as_raw();
            match self.head.compare_exchange(
                head,
                node,
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(_) => return,
                Err(e) => {
                    node = e.new;
                    backoff.spin();
                }
            }
        }
    }

    /// Pops the top item; `None` when the stack is empty.
    pub fn pop(&self) -> Option<T> {
        let guard = epoch::pin();
        let backoff = Backoff::new();
        loop {
            let head = self.head.load(Ordering::Acquire, &guard);
            // SAFETY: the epoch guard keeps any node reachable from `head`
            // alive for the duration of this attempt.
            let node = unsafe { head.as_ref() }?;
            let next = Shared::from(node.next);
            match self.head.compare_exchange(
                head,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(_) => {
                    // SAFETY: winning the pop CAS grants the unique right to
                    // consume this node's value; `value` is `ManuallyDrop`,
                    // so the deferred deallocation won't double-drop it.
                    let value = unsafe { ptr::read(&*node.value) };
                    // SAFETY: our CAS unlinked the node; only the winner
                    // retires it, exactly once.
                    unsafe { guard.defer_destroy(head) };
                    return Some(value);
                }
                Err(_) => backoff.spin(),
            }
        }
    }

    /// Whether the stack is empty at this instant.
    pub fn is_empty(&self) -> bool {
        let guard = epoch::pin();
        self.head.load(Ordering::Acquire, &guard).is_null()
    }
}

impl<T> Default for TreiberStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for TreiberStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TreiberStack").field("empty", &self.is_empty()).finish()
    }
}

impl<T> Drop for TreiberStack<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees exclusive access, satisfying the
        // unprotected guard's contract; every node still in the list holds
        // an initialized value exactly once, freed here.
        unsafe {
            let guard = epoch::unprotected();
            let mut cur = self.head.load(Ordering::Relaxed, guard).as_raw();
            while !cur.is_null() {
                let mut boxed = Box::from_raw(cur as *mut Node<T>);
                ManuallyDrop::drop(&mut boxed.value);
                cur = boxed.next;
            }
        }
    }
}

/// Stateless per-thread handle for [`TreiberStack`].
#[derive(Debug)]
pub struct TreiberHandle<'s, T> {
    stack: &'s TreiberStack<T>,
}

impl<T: Send> OpsHandle<T> for TreiberHandle<'_, T> {
    fn produce(&mut self, value: T) {
        self.stack.push(value);
    }

    fn consume(&mut self) -> Option<T> {
        self.stack.pop()
    }
}

impl<T: Send> RelaxedOps<T> for TreiberStack<T> {
    type Handle<'a>
        = TreiberHandle<'a, T>
    where
        T: 'a;

    fn ops_handle(&self) -> Self::Handle<'_> {
        TreiberHandle { stack: self }
    }

    fn name(&self) -> &'static str {
        "treiber"
    }

    fn relaxation_bound(&self) -> Option<usize> {
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack2d::sync::atomic::AtomicUsize;
    use stack2d::sync::Arc;

    #[test]
    fn lifo_order() {
        let s = TreiberStack::new();
        for i in 0..1000 {
            s.push(i);
        }
        for i in (0..1000).rev() {
            assert_eq!(s.pop(), Some(i));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn empty_pop_is_none() {
        let s: TreiberStack<u8> = TreiberStack::new();
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn concurrent_item_conservation() {
        const THREADS: usize = 4;
        const PER: usize = 5_000;
        let s = Arc::new(TreiberStack::new());
        let popped = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let s = Arc::clone(&s);
            let popped = Arc::clone(&popped);
            joins.push(stack2d::sync::thread::spawn(move || {
                for i in 0..PER {
                    s.push(t * PER + i);
                    if i % 2 == 0 && s.pop().is_some() {
                        popped.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut rest = 0;
        while s.pop().is_some() {
            rest += 1;
        }
        assert_eq!(popped.load(Ordering::SeqCst) + rest, THREADS * PER);
    }

    #[test]
    fn drop_releases_items() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let s = TreiberStack::new();
            for _ in 0..25 {
                s.push(Canary(drops.clone()));
            }
            drop(s.pop());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 25);
    }

    #[test]
    fn trait_impl_reports_strict_bound() {
        let s: TreiberStack<u8> = TreiberStack::new();
        assert_eq!(RelaxedOps::<u8>::name(&s), "treiber");
        assert_eq!(RelaxedOps::<u8>::relaxation_bound(&s), Some(0));
    }
}
