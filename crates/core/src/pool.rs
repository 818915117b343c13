//! Per-thread node pools: epoch-recycled storage for hot-path allocations.
//!
//! Every push or enqueue allocates a list node, and the pop or dequeue that
//! unlinks it retires it through epoch reclamation. With a plain `Box` path
//! that is one `malloc` + one `free` per item — measurably the dominant
//! cost of an uncontended push/pop pair (see EXPERIMENTS.md, BENCH_9→10).
//! This module replaces the allocator round-trip with a **layout-keyed
//! thread-local freelist**:
//!
//! * [`alloc`] pops a cached block of the exact layout (falling back to the
//!   global allocator when the shard is empty), and
//! * [`recycle`] — installed as the epoch collector's destroy function via
//!   `Guard::defer_destroy_with` — pushes the retired block back onto the
//!   reclaiming thread's shard instead of freeing it.
//!
//! Invariants that make this sound:
//!
//! * **Every block originates from `Box::into_raw`** (the fallback path),
//!   so a pooled block and a boxed block are interchangeable: either may be
//!   freed with `Box::from_raw`/`dealloc` or cached, in any order, on any
//!   thread. Structure `Drop` impls keep their plain `Box::from_raw` walks.
//! * **Retired blocks are storage-only.** The structures consume the value
//!   (`ptr::read` / `ManuallyDrop::take`) *before* retiring, so `recycle`
//!   never runs drop glue — it only reclaims bytes.
//! * Shards are capped ([`SHARD_CAP`] blocks per layout class,
//!   [`MAX_CLASSES`] classes); overflow falls back to the allocator, so a
//!   producer/consumer imbalance cannot hoard unbounded memory. A thread's
//!   shard is freed when the thread exits ([`FreeList`]'s `Drop`), and
//!   [`recycle`] degrades to a plain `dealloc` during thread teardown when
//!   the thread-local is already gone.
//!
//! The pool is unconditional: every per-op node of the structures (and of
//! a standalone [`SubStack`](crate::substack::SubStack)) is allocated with
//! [`alloc`] and retired through [`recycle`]; [`boxed`] is only the
//! pool-miss fallback.

use core::alloc::Layout;
use core::cell::Cell;
use core::ptr;

/// Maximum cached blocks per layout class per thread.
///
/// Blocks come back in bursts: the epoch collector runs once per
/// `COLLECT_EVERY` (256) retirements on a thread and frees, all at once,
/// what earlier collections sealed — one buffer of 256 when the epoch
/// advances at every collection, two when another thread's pin held it
/// back once. A shard must hold a whole burst, at least
/// 2 × `COLLECT_EVERY` = 512 blocks, or the overflow goes back to `free`
/// while the pushes that follow go to `malloc`. 1024 keeps that relation
/// with room to spare and parks at most a few tens of KiB per class on a
/// thread.
const SHARD_CAP: usize = 1024;

/// Maximum distinct layout classes per thread (a process using the stack,
/// the queue and the counter at several item types stays under this; extra
/// layouts simply bypass the cache).
const MAX_CLASSES: usize = 8;

/// One intrusive freelist of blocks sharing an exact [`Layout`]. The link
/// pointer lives in the first word of each free block, which is why only
/// layouts with `size >= 8 && align >= 8` are [`eligible`].
///
/// `key` packs the layout (size word | align in the low byte — alignments
/// are powers of two `<= 2^63`, stored as `trailing_zeros + 1` so the
/// empty-slot key 0 is never a valid layout) into one word, making the
/// class scan a single integer compare per slot.
struct Class {
    key: Cell<usize>,
    head: Cell<*mut u8>,
    len: Cell<usize>,
}

/// A thread's pooled blocks across all layout classes. The class table is
/// a fixed inline array scanned linearly: interior mutability is all
/// `Cell`, so the hot path is free of `RefCell` borrow bookkeeping, and
/// the table lives directly in the TLS block (no heap indirection).
struct FreeList {
    classes: [Class; MAX_CLASSES],
}

// The interior mutability is the point: this is the `const` repeat seed
// for the TLS table's const-initialiser, never a shared constant (each
// thread_local instantiation gets fresh `Cell`s).
#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_CLASS: Class =
    Class { key: Cell::new(0), head: Cell::new(ptr::null_mut()), len: Cell::new(0) };

thread_local! {
    static POOL: FreeList = const { FreeList { classes: [EMPTY_CLASS; MAX_CLASSES] } };
}

/// Whether blocks of `layout` can carry the intrusive link pointer.
#[inline]
fn eligible(layout: Layout) -> bool {
    layout.size() >= core::mem::size_of::<*mut u8>()
        && layout.align() >= core::mem::align_of::<*mut u8>()
}

/// The packed class key for `layout` (never 0 for a valid layout: align
/// is at least 1, so the low byte is at least 1).
#[inline]
fn class_key(layout: Layout) -> usize {
    (layout.size() << 8) | (layout.align().trailing_zeros() as usize + 1)
}

impl FreeList {
    #[inline]
    fn pop(&self, key: usize) -> Option<*mut u8> {
        for class in &self.classes {
            if class.key.get() == key {
                let block = class.head.get();
                if block.is_null() {
                    return None;
                }
                // SAFETY: `block` is a live free block of this class; its
                // first word holds the link written by `push`.
                class.head.set(unsafe { *block.cast::<*mut u8>() });
                class.len.set(class.len.get() - 1);
                return Some(block);
            }
            if class.key.get() == 0 {
                return None;
            }
        }
        None
    }

    /// Caches `block`; `false` means the caller must free it instead.
    #[inline]
    fn push(&self, key: usize, block: *mut u8) -> bool {
        let Some(class) = self.classes.iter().find(|c| {
            let k = c.key.get();
            if k == 0 {
                c.key.set(key); // claim the empty slot for this layout
            }
            k == key || k == 0
        }) else {
            return false; // class table full
        };
        if class.len.get() >= SHARD_CAP {
            return false;
        }
        #[cfg(debug_assertions)]
        {
            // Double-recycle detector: walk the whole shard (debug only).
            let mut cursor = class.head.get();
            while !cursor.is_null() {
                assert!(cursor != block, "block recycled twice into the node pool");
                // SAFETY: every cached block's first word is its link.
                cursor = unsafe { *cursor.cast::<*mut u8>() };
            }
        }
        // SAFETY: `block` is exclusively owned (it was just retired by the
        // epoch collector or rejected by an alloc) and `eligible` proved it
        // can hold the link in its first word.
        unsafe { *block.cast::<*mut u8>() = class.head.get() };
        class.head.set(block);
        class.len.set(class.len.get() + 1);
        true
    }
}

impl Drop for FreeList {
    fn drop(&mut self) {
        for class in &self.classes {
            let key = class.key.get();
            if key == 0 {
                continue;
            }
            let layout = Layout::from_size_align(key >> 8, 1 << ((key & 0xff) - 1))
                .expect("class keys pack layouts that came from Layout::new");
            while !class.head.get().is_null() {
                let block = class.head.get();
                // SAFETY: cached blocks form a valid intrusive list; each
                // came from the global allocator with exactly `layout`.
                unsafe {
                    class.head.set(*block.cast::<*mut u8>());
                    std::alloc::dealloc(block, layout);
                }
            }
        }
    }
}

/// Allocates storage for `value`, preferring the calling thread's pool.
///
/// The returned pointer is always interchangeable with
/// `Box::into_raw(Box::new(value))`: it may later be freed with
/// `Box::from_raw`, retired through plain `defer_destroy`, or recycled.
#[inline]
pub(crate) fn alloc<T>(value: T) -> *mut T {
    let layout = Layout::new::<T>();
    if eligible(layout) {
        let cached = POOL.with(|p| p.pop(class_key(layout)));
        if let Some(block) = cached {
            stats::hit(&stats::REUSED);
            let p = block.cast::<T>();
            // SAFETY: `block` has layout `Layout::new::<T>()` and is
            // exclusively owned; writing initializes it for `T`.
            unsafe { ptr::write(p, value) };
            return p;
        }
    }
    stats::hit(&stats::FRESH);
    boxed(value)
}

/// The plain allocator path, taken on a pool miss: every pool block is
/// born here, which is what keeps boxed and pooled blocks
/// interchangeable.
#[inline]
fn boxed<T>(value: T) -> *mut T {
    Box::into_raw(Box::new(value))
}

/// Reclaims a retired block of type `T`, caching it on the calling
/// thread's pool when possible and freeing it otherwise.
///
/// The signature matches the epoch collector's destroy hook
/// (`unsafe fn(*mut ())`), so `recycle::<T>` is passed directly to
/// `Guard::defer_destroy_with`.
///
/// # Safety
///
/// `p` must be a block of layout `Layout::new::<T>()` obtained from
/// [`alloc`]/[`boxed`], retired exactly once, with its `T` value already
/// consumed (no drop glue runs here — this reclaims storage only).
#[inline]
pub(crate) unsafe fn recycle<T>(p: *mut ()) {
    let layout = Layout::new::<T>();
    let block = p.cast::<u8>();
    if eligible(layout) {
        // `try_with`: epoch collection can run inside thread teardown,
        // after this thread-local was destroyed.
        let cached = POOL.try_with(|pool| pool.push(class_key(layout), block)).unwrap_or(false);
        if cached {
            stats::hit(&stats::CACHED);
            return;
        }
    }
    stats::hit(&stats::FREED);
    // SAFETY: the block came from the global allocator (every pool block
    // originates from `Box::into_raw`) with exactly this layout, and the
    // caller's contract gives us exclusive ownership of it.
    unsafe { std::alloc::dealloc(block, layout) };
}

/// Process-wide pool traffic counters (see [`pool_stats`]).
///
/// All fields are **zero in release builds**: the counters are
/// debug-assertions-only so the release hot path carries no shared-counter
/// traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served by the global allocator (pool miss or ineligible
    /// layout).
    pub fresh: u64,
    /// Allocations served from a thread's freelist.
    pub reused: u64,
    /// Retirements cached onto a freelist.
    pub cached: u64,
    /// Retirements returned to the global allocator (shard full, class
    /// table full, ineligible layout, or thread teardown).
    pub freed: u64,
}

/// A snapshot of the process-wide pool traffic counters. Debug builds
/// only; in release builds every field is zero (the hot path is unmetered
/// by design). The churn tests use this to prove recycling actually
/// happens and that accounting balances.
pub fn pool_stats() -> PoolStats {
    stats::snapshot()
}

// Accounting deliberately sits on std::sync::atomic, not the crate::sync
// facade: these counters are debug-only plumbing and must never enter the
// model checker's interleaving vocabulary.
mod stats {
    #[cfg(debug_assertions)]
    use std::sync::atomic::{AtomicU64, Ordering};

    #[cfg(debug_assertions)]
    pub(super) static FRESH: AtomicU64 = AtomicU64::new(0);
    #[cfg(debug_assertions)]
    pub(super) static REUSED: AtomicU64 = AtomicU64::new(0);
    #[cfg(debug_assertions)]
    pub(super) static CACHED: AtomicU64 = AtomicU64::new(0);
    #[cfg(debug_assertions)]
    pub(super) static FREED: AtomicU64 = AtomicU64::new(0);

    #[cfg(debug_assertions)]
    #[inline]
    pub(super) fn hit(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    pub(super) fn hit(_counter: &()) {}

    #[cfg(not(debug_assertions))]
    pub(super) static FRESH: () = ();
    #[cfg(not(debug_assertions))]
    pub(super) static REUSED: () = ();
    #[cfg(not(debug_assertions))]
    pub(super) static CACHED: () = ();
    #[cfg(not(debug_assertions))]
    pub(super) static FREED: () = ();

    pub(super) fn snapshot() -> super::PoolStats {
        #[cfg(debug_assertions)]
        {
            super::PoolStats {
                fresh: FRESH.load(Ordering::Relaxed),
                reused: REUSED.load(Ordering::Relaxed),
                cached: CACHED.load(Ordering::Relaxed),
                freed: FREED.load(Ordering::Relaxed),
            }
        }
        #[cfg(not(debug_assertions))]
        {
            super::PoolStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_then_recycle_then_alloc_reuses_the_block() {
        // Use a type with a layout no other test traffic shares, so the
        // round-trip is observable through the returned addresses alone.
        #[repr(align(64))]
        struct Odd(#[allow(dead_code)] [u8; 192]);
        let p = alloc(Odd([7; 192]));
        // SAFETY: fresh exclusive block; value is Copy-free but droppable
        // as plain bytes, consume it by leaking the contents (u8s).
        unsafe { recycle::<Odd>(p.cast()) };
        let q = alloc(Odd([9; 192]));
        assert_eq!(p, q, "recycled block was not reused");
        // SAFETY: q owns the block; free it through the boxed path to
        // exercise interchangeability.
        drop(unsafe { Box::from_raw(q) });
    }

    #[test]
    fn ineligible_layouts_bypass_the_pool() {
        let p = alloc(3u8);
        // SAFETY: exclusive block of layout u8; recycle must dealloc it
        // (too small for the intrusive link), not cache it.
        unsafe { recycle::<u8>(p.cast()) };
        let layout = Layout::new::<u8>();
        assert!(!eligible(layout));
    }

    #[test]
    fn shard_cap_overflows_to_the_allocator() {
        #[repr(align(32))]
        struct Wide(#[allow(dead_code)] [u8; 96]);
        let blocks: Vec<*mut Wide> = (0..SHARD_CAP + 8).map(|_| alloc(Wide([0; 96]))).collect();
        let before = pool_stats();
        for &b in &blocks {
            // SAFETY: each block is exclusively owned and retired once.
            unsafe { recycle::<Wide>(b.cast()) };
        }
        let after = pool_stats();
        if cfg!(debug_assertions) {
            assert!(after.freed > before.freed, "overflow must fall back to dealloc");
            assert!(after.cached >= before.cached + SHARD_CAP as u64 - 8);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "recycled twice")]
    fn double_recycle_is_caught_in_debug() {
        #[repr(align(16))]
        struct Dup(#[allow(dead_code)] [u8; 80]);
        let p = alloc(Dup([0; 80]));
        // SAFETY: first retirement is legitimate; the second is the bug
        // under test and panics before touching freed memory.
        unsafe {
            recycle::<Dup>(p.cast());
            recycle::<Dup>(p.cast());
        }
    }
}
