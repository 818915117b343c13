//! The elimination back-off stack of Hendler, Shavit and Yerushalmi
//! [HSY 2010] — the strict-semantics scalability baseline of Figure 2.
//!
//! A central Treiber stack, plus a **collision array** used as back-off:
//! an operation that loses the CAS on the central stack publishes itself in
//! a per-thread `location` slot and picks a random collision-array cell. A
//! push/pop pair meeting in a cell *eliminates*: they exchange the item and
//! complete without touching the central stack at all. Elimination preserves
//! linearizability (the pair linearizes back-to-back) and helps exactly when
//! the workload is symmetric — the paper's §2 notes its performance
//! "deteriorates when workloads are asymmetric", which the harness's
//! `asymmetry` experiment demonstrates.
//!
//! Implementation follows the published HSY protocol: active colliders
//! first withdraw their own record (`CAS location[mine] p → null`), then
//! attempt the pairing CAS on the partner's slot; a failed withdrawal means
//! a partner already collided with *us* (passive elimination). Records are
//! epoch-reclaimed, so the `location`/`collision` pointers are ABA-safe.

use core::fmt;
use core::mem::ManuallyDrop;
use core::ptr;
use stack2d::sync::atomic::{AtomicUsize, Ordering};

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use crossbeam_utils::CachePadded;
use stack2d::sync::Mutex;

use stack2d::rng::HopRng;
use stack2d::{OpsHandle, RelaxedOps};

/// Sentinel in the collision array: no thread waiting.
const EMPTY: usize = usize::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Push,
    Pop,
}

struct Node<T> {
    value: ManuallyDrop<T>,
    next: *const Node<T>,
}

/// A thread's published operation record.
struct Record<T> {
    id: usize,
    op: Op,
    /// The item being pushed (null for pop records).
    node: *mut Node<T>,
}

/// Counters describing how operations completed — used by the harness to
/// report elimination rates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EliminationStats {
    /// Operations that completed on the central Treiber stack.
    pub central: u64,
    /// Push operations that eliminated against a concurrent pop.
    pub eliminated_pushes: u64,
    /// Pop operations that eliminated against a concurrent push.
    pub eliminated_pops: u64,
}

/// The HSY elimination back-off stack.
///
/// Strict LIFO semantics; scalability comes from eliminating matching
/// push/pop pairs in a side channel instead of serializing them on the
/// central stack.
///
/// The stack supports at most [`capacity`](EliminationStack::with_capacity)
/// simultaneous handles (default 128); handles recycle their slot on drop.
///
/// # Examples
///
/// ```
/// use stack2d_baselines::EliminationStack;
/// use stack2d::{OpsHandle, RelaxedOps};
///
/// let s = EliminationStack::new();
/// let mut h = s.ops_handle();
/// h.produce(5);
/// assert_eq!(h.consume(), Some(5));
/// assert_eq!(h.consume(), None);
/// ```
pub struct EliminationStack<T> {
    head: Atomic<Node<T>>,
    location: Box<[Atomic<Record<T>>]>,
    collision: Box<[CachePadded<AtomicUsize>]>,
    free_slots: Mutex<Vec<usize>>,
    /// Spin iterations while waiting for a partner.
    spin: usize,
    eliminated_pushes: CachePadded<AtomicUsize>,
    eliminated_pops: CachePadded<AtomicUsize>,
    central_ops: CachePadded<AtomicUsize>,
}

// SAFETY: nodes and collision records are owned by the stack and values only
// cross threads by moving out, so `T: Send` is the full requirement (the raw
// node pointers are what suppress the auto-impl).
unsafe impl<T: Send> Send for EliminationStack<T> {}
// SAFETY: as above — shared access is mediated by CASes on head, location
// slots and collision cells.
unsafe impl<T: Send> Sync for EliminationStack<T> {}

impl<T> EliminationStack<T> {
    /// Creates a stack supporting up to 128 simultaneous handles.
    pub fn new() -> Self {
        Self::with_capacity(128)
    }

    /// Creates a stack supporting up to `capacity` simultaneous handles,
    /// with a collision array of `max(1, capacity / 2)` cells (the HSY
    /// sizing).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        EliminationStack {
            head: Atomic::null(),
            location: (0..capacity).map(|_| Atomic::null()).collect(),
            collision: (0..(capacity / 2).max(1))
                .map(|_| CachePadded::new(AtomicUsize::new(EMPTY)))
                .collect(),
            free_slots: Mutex::new((0..capacity).rev().collect()),
            spin: 64,
            eliminated_pushes: CachePadded::new(AtomicUsize::new(0)),
            eliminated_pops: CachePadded::new(AtomicUsize::new(0)),
            central_ops: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// How operations have completed so far (central vs eliminated).
    pub fn stats(&self) -> EliminationStats {
        EliminationStats {
            central: self.central_ops.load(Ordering::Relaxed) as u64,
            eliminated_pushes: self.eliminated_pushes.load(Ordering::Relaxed) as u64,
            eliminated_pops: self.eliminated_pops.load(Ordering::Relaxed) as u64,
        }
    }

    /// Whether the central stack is empty (elimination holds no items at
    /// rest).
    pub fn is_empty(&self) -> bool {
        let guard = epoch::pin();
        self.head.load(Ordering::Acquire, &guard).is_null()
    }

    /// Pushes through a temporary handle.
    ///
    /// # Panics
    ///
    /// Panics if all handle slots are taken.
    pub fn push(&self, value: T)
    where
        T: Send,
    {
        self.ops_handle().produce(value);
    }

    /// Pops through a temporary handle.
    ///
    /// # Panics
    ///
    /// Panics if all handle slots are taken.
    pub fn pop(&self) -> Option<T>
    where
        T: Send,
    {
        self.ops_handle().consume()
    }

    fn try_central_push(&self, node: *mut Node<T>, guard: &Guard) -> bool {
        let head = self.head.load(Ordering::Acquire, guard);
        // SAFETY: the node is still private to this thread (not yet
        // published), so the plain write cannot race.
        unsafe { (*node).next = head.as_raw() };
        self.head
            .compare_exchange(
                head,
                Shared::from(node as *const Node<T>),
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            )
            .is_ok()
    }

    /// `Ok(Some)` popped, `Ok(None)` observed empty, `Err(())` lost the CAS.
    fn try_central_pop(&self, guard: &Guard) -> Result<Option<T>, ()> {
        let head = self.head.load(Ordering::Acquire, guard);
        // SAFETY: the epoch guard keeps any node reachable from `head`
        // alive for this attempt.
        let node = match unsafe { head.as_ref() } {
            Some(n) => n,
            None => return Ok(None),
        };
        match self.head.compare_exchange(
            head,
            Shared::from(node.next),
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        ) {
            Ok(_) => {
                // SAFETY: winning the pop CAS grants the unique right to
                // consume this node's value; `value` is `ManuallyDrop`, so
                // the deferred deallocation won't double-drop it.
                let value = unsafe { ptr::read(&*node.value) };
                // SAFETY: our CAS unlinked the node; only the winner retires
                // it, exactly once.
                unsafe { guard.defer_destroy(head) };
                Ok(Some(value))
            }
            Err(_) => Err(()),
        }
    }

    /// One elimination attempt for a push holding `node`.
    /// Returns true iff the item was handed to a pop.
    fn try_eliminate_push(
        &self,
        id: usize,
        node: *mut Node<T>,
        rng: &mut HopRng,
        guard: &Guard,
    ) -> bool {
        let p = Owned::new(Record { id, op: Op::Push, node }).into_shared(guard);
        self.location[id].store(p, Ordering::Release);
        let pos = rng.bounded(self.collision.len());
        let mut him = self.collision[pos].load(Ordering::Acquire);
        while self.collision[pos]
            .compare_exchange(him, id, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            him = self.collision[pos].load(Ordering::Acquire);
        }
        if him != EMPTY && him != id {
            let q = self.location[him].load(Ordering::Acquire, guard);
            // SAFETY: records are only reclaimed via `defer_destroy`, so the
            // epoch guard keeps `q` alive while we inspect it.
            if let Some(qr) = unsafe { q.as_ref() } {
                if qr.id == him && qr.op == Op::Pop {
                    // Active collision: withdraw our record first.
                    if self.location[id]
                        .compare_exchange(
                            p,
                            Shared::null(),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        )
                        .is_ok()
                    {
                        // Hand our record (and node) to the popper.
                        if self.location[him]
                            .compare_exchange(q, p, Ordering::AcqRel, Ordering::Acquire, guard)
                            .is_ok()
                        {
                            // SAFETY: our CAS removed `q` from him's slot —
                            // we are its only retirer.
                            unsafe { guard.defer_destroy(q) };
                            self.eliminated_pushes.fetch_add(1, Ordering::Relaxed);
                            return true;
                        }
                        // SAFETY: partner vanished; we withdrew `p`
                        // ourselves so it is unlinked, and this is its only
                        // retirement (readers may still hold it: defer).
                        unsafe { guard.defer_destroy(p) };
                        return false;
                    }
                    // Withdrawal failed: a popper collided with us.
                    return self.finish_passive_push(id, guard);
                }
            }
        }
        // Wait for a passive collision.
        for _ in 0..self.spin {
            core::hint::spin_loop();
        }
        if self.location[id]
            .compare_exchange(p, Shared::null(), Ordering::AcqRel, Ordering::Acquire, guard)
            .is_ok()
        {
            // SAFETY: the successful withdrawal CAS unlinked `p`; this is
            // its only retirement.
            unsafe { guard.defer_destroy(p) };
            false
        } else {
            self.finish_passive_push(id, guard)
        }
    }

    /// A popper collided with our push record: it CASed `location[id]` to
    /// null and took the node. Nothing left to do.
    fn finish_passive_push(&self, id: usize, guard: &Guard) -> bool {
        debug_assert!(self.location[id].load(Ordering::Acquire, guard).is_null());
        self.eliminated_pushes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// One elimination attempt for a pop. Returns the eliminated value.
    fn try_eliminate_pop(&self, id: usize, rng: &mut HopRng, guard: &Guard) -> Option<T> {
        let p = Owned::new(Record { id, op: Op::Pop, node: ptr::null_mut() }).into_shared(guard);
        self.location[id].store(p, Ordering::Release);
        let pos = rng.bounded(self.collision.len());
        let mut him = self.collision[pos].load(Ordering::Acquire);
        while self.collision[pos]
            .compare_exchange(him, id, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            him = self.collision[pos].load(Ordering::Acquire);
        }
        if him != EMPTY && him != id {
            let q = self.location[him].load(Ordering::Acquire, guard);
            // SAFETY: records are only reclaimed via `defer_destroy`, so the
            // epoch guard keeps `q` alive while we inspect it.
            if let Some(qr) = unsafe { q.as_ref() } {
                if qr.id == him && qr.op == Op::Push {
                    if self.location[id]
                        .compare_exchange(
                            p,
                            Shared::null(),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                            guard,
                        )
                        .is_ok()
                    {
                        // Take the pusher's record out of his slot.
                        if self.location[him]
                            .compare_exchange(
                                q,
                                Shared::null(),
                                Ordering::AcqRel,
                                Ordering::Acquire,
                                guard,
                            )
                            .is_ok()
                        {
                            // SAFETY: our CAS took `q` out of him's slot,
                            // which is exactly the unique consumption right
                            // `consume_record` requires.
                            let value = unsafe { Self::consume_record(q) };
                            // SAFETY: `q` is unlinked by the same CAS; we
                            // are its only retirer.
                            unsafe { guard.defer_destroy(q) };
                            self.eliminated_pops.fetch_add(1, Ordering::Relaxed);
                            return Some(value);
                        }
                        // SAFETY: we withdrew `p` ourselves, so it is
                        // unlinked and this is its only retirement.
                        unsafe { guard.defer_destroy(p) };
                        return None;
                    }
                    return Some(self.finish_passive_pop(id, guard));
                }
            }
        }
        for _ in 0..self.spin {
            core::hint::spin_loop();
        }
        if self.location[id]
            .compare_exchange(p, Shared::null(), Ordering::AcqRel, Ordering::Acquire, guard)
            .is_ok()
        {
            // SAFETY: the successful withdrawal CAS unlinked `p`; this is
            // its only retirement.
            unsafe { guard.defer_destroy(p) };
            None
        } else {
            Some(self.finish_passive_pop(id, guard))
        }
    }

    /// A pusher collided with our pop record: our slot now holds *his*
    /// record. Consume it.
    fn finish_passive_pop(&self, id: usize, guard: &Guard) -> T {
        let r = self.location[id].load(Ordering::Acquire, guard);
        debug_assert!(!r.is_null(), "passive pop must find the pusher's record");
        self.location[id].store(Shared::null(), Ordering::Release);
        // SAFETY: the pusher handed `r` to our slot and will never touch it
        // again — finding it there is the unique consumption right.
        let value = unsafe { Self::consume_record(r) };
        // SAFETY: we just cleared the slot, unlinking `r`; we are its only
        // retirer.
        unsafe { guard.defer_destroy(r) };
        self.eliminated_pops.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Moves the value out of a push record's node and frees the node.
    ///
    /// # Safety
    ///
    /// The caller must hold the unique consumption right for `record`
    /// (obtained by CASing it out of a location slot, or by finding it in
    /// the caller's own slot).
    unsafe fn consume_record(record: Shared<'_, Record<T>>) -> T {
        // SAFETY: the caller's contract gives us the unique consumption
        // right, so the record is live and `node` is the Box-allocated node
        // its pusher stored — unreachable to any other thread from here on.
        unsafe {
            let r = record.deref();
            debug_assert_eq!(r.op, Op::Push);
            let node = r.node;
            let value = ptr::read(&*(*node).value);
            // The node was never published on the central stack; free it now.
            drop(Box::from_raw(node));
            value
        }
    }
}

impl<T> Default for EliminationStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for EliminationStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EliminationStack")
            .field("capacity", &self.location.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<T> Drop for EliminationStack<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees exclusive access (quiescence), so
        // the unprotected guard is sound; central nodes hold initialized
        // values exactly once, and no collision records are in flight.
        unsafe {
            let guard = epoch::unprotected();
            let mut cur = self.head.load(Ordering::Relaxed, guard).as_raw();
            while !cur.is_null() {
                let mut boxed = Box::from_raw(cur as *mut Node<T>);
                ManuallyDrop::drop(&mut boxed.value);
                cur = boxed.next;
            }
            // Quiescence at drop: no records can be in flight.
            for slot in self.location.iter() {
                let r = slot.load(Ordering::Relaxed, guard);
                debug_assert!(r.is_null(), "record leaked in location slot");
            }
        }
    }
}

/// Per-thread handle to an [`EliminationStack`]; owns a `location` slot.
pub struct EliminationHandle<'s, T> {
    stack: &'s EliminationStack<T>,
    id: usize,
    rng: HopRng,
}

impl<T> Drop for EliminationHandle<'_, T> {
    fn drop(&mut self) {
        self.stack.free_slots.lock().push(self.id);
    }
}

impl<T> fmt::Debug for EliminationHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EliminationHandle").field("id", &self.id).finish()
    }
}

impl<T: Send> OpsHandle<T> for EliminationHandle<'_, T> {
    fn produce(&mut self, value: T) {
        let stack = self.stack;
        let guard = epoch::pin();
        let node =
            Box::into_raw(Box::new(Node { value: ManuallyDrop::new(value), next: ptr::null() }));
        loop {
            if stack.try_central_push(node, &guard) {
                stack.central_ops.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if stack.try_eliminate_push(self.id, node, &mut self.rng, &guard) {
                return;
            }
        }
    }

    fn consume(&mut self) -> Option<T> {
        let stack = self.stack;
        let guard = epoch::pin();
        loop {
            if let Ok(v) = stack.try_central_pop(&guard) {
                if v.is_some() {
                    stack.central_ops.fetch_add(1, Ordering::Relaxed);
                }
                return v;
            }
            if let Some(v) = stack.try_eliminate_pop(self.id, &mut self.rng, &guard) {
                return Some(v);
            }
        }
    }
}

impl<T: Send> RelaxedOps<T> for EliminationStack<T> {
    type Handle<'a>
        = EliminationHandle<'a, T>
    where
        T: 'a;

    /// # Panics
    ///
    /// Panics if more handles are live than the stack's capacity.
    fn ops_handle(&self) -> Self::Handle<'_> {
        let id = self.free_slots.lock().pop().expect("elimination stack handle capacity exhausted");
        EliminationHandle { stack: self, id, rng: HopRng::from_thread() }
    }

    fn ops_handle_seeded(&self, seed: u64) -> Self::Handle<'_> {
        let id = self.free_slots.lock().pop().expect("elimination stack handle capacity exhausted");
        EliminationHandle { stack: self, id, rng: HopRng::seeded(seed) }
    }

    fn name(&self) -> &'static str {
        "elimination"
    }

    fn relaxation_bound(&self) -> Option<usize> {
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack2d::sync::Arc;
    use std::collections::HashSet;

    #[test]
    fn sequential_lifo() {
        let s = EliminationStack::new();
        let mut h = s.ops_handle();
        for i in 0..500 {
            h.produce(i);
        }
        for i in (0..500).rev() {
            assert_eq!(h.consume(), Some(i));
        }
        assert_eq!(h.consume(), None);
    }

    #[test]
    fn empty_pop_is_none() {
        let s: EliminationStack<u8> = EliminationStack::new();
        let mut h = s.ops_handle();
        assert_eq!(h.consume(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn handle_slots_recycle() {
        let s: EliminationStack<u8> = EliminationStack::with_capacity(2);
        for _ in 0..10 {
            let h1 = s.ops_handle();
            let h2 = s.ops_handle();
            drop(h1);
            drop(h2);
        }
        // Still exactly two slots available.
        let _h1 = s.ops_handle();
        let _h2 = s.ops_handle();
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn capacity_overflow_panics() {
        let s: EliminationStack<u8> = EliminationStack::with_capacity(1);
        let _h1 = s.ops_handle();
        let _h2 = s.ops_handle();
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        const THREADS: usize = 4;
        const PER: usize = 4_000;
        let s = Arc::new(EliminationStack::new());
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let s = Arc::clone(&s);
            joins.push(stack2d::sync::thread::spawn(move || {
                let mut h = s.ops_handle();
                let mut got = Vec::new();
                for i in 0..PER {
                    h.produce((t * PER + i) as u64);
                    if i % 2 == 1 {
                        if let Some(v) = h.consume() {
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
        let mut h = s.ops_handle();
        while let Some(v) = h.consume() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (0..(THREADS * PER) as u64).collect::<Vec<_>>());
    }

    #[test]
    fn symmetric_storm_eventually_eliminates() {
        // With many symmetric pairs hammering a tiny collision array,
        // elimination should fire at least once; item conservation must hold
        // regardless.
        let s = Arc::new(EliminationStack::with_capacity(16));
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            joins.push(stack2d::sync::thread::spawn(move || {
                let mut h = s.ops_handle();
                let mut seen = HashSet::new();
                for i in 0..20_000u64 {
                    h.produce(t * 1_000_000 + i);
                    if let Some(v) = h.consume() {
                        seen.insert(v);
                    }
                }
                seen.len()
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let stats = s.stats();
        // Pairs are symmetric: eliminated pushes and pops must agree.
        assert_eq!(stats.eliminated_pushes, stats.eliminated_pops);
    }

    #[test]
    fn values_survive_elimination_paths() {
        // Heap values: if any double-free/leak path existed in the record
        // handoff, this test (under the default test allocator) or the
        // canary below would catch it.
        use stack2d::sync::atomic::AtomicUsize as AU;
        struct Canary(Arc<AU>, #[allow(dead_code)] String);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AU::new(0));
        let created = 4 * 2_000;
        {
            let s = Arc::new(EliminationStack::with_capacity(8));
            let mut joins = Vec::new();
            for _ in 0..4 {
                let s = Arc::clone(&s);
                let drops = Arc::clone(&drops);
                joins.push(stack2d::sync::thread::spawn(move || {
                    let mut h = s.ops_handle();
                    for i in 0..2_000 {
                        h.produce(Canary(drops.clone(), format!("v{i}")));
                        if i % 2 == 0 {
                            drop(h.consume());
                        }
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        }
        // Stack dropped: every canary created must have dropped exactly once.
        assert_eq!(drops.load(Ordering::SeqCst), created);
    }

    #[test]
    fn stats_start_at_zero() {
        let s: EliminationStack<u8> = EliminationStack::new();
        assert_eq!(s.stats(), EliminationStats::default());
    }

    #[test]
    fn trait_metadata() {
        let s: EliminationStack<u8> = EliminationStack::new();
        assert_eq!(RelaxedOps::<u8>::name(&s), "elimination");
        assert_eq!(RelaxedOps::<u8>::relaxation_bound(&s), Some(0));
    }
}
