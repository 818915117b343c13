//! Operation metrics: counters for the events the paper's §3 design
//! discussion is about.
//!
//! The 2D-Stack's performance argument rests on *event frequencies*: how
//! often a CAS is lost (contention), how often the search restarts on a
//! `Global` change, how many sub-stacks are probed per operation, how often
//! the window shifts. These counters make those frequencies observable so
//! the ablation experiments can explain throughput differences instead of
//! just reporting them.
//!
//! Counters are relaxed atomics bumped once per *event batch* (probes are
//! accumulated locally and added once per operation), keeping overhead
//! in the low single-digit percent range; they are always on.
//!
//! All three windowed structures carry the same counter block, so the
//! elastic runtime's window-pressure signal
//! (`stack2d-adaptive::Observation::window_pressure`) reads identically
//! off a [`Stack2D`](crate::Stack2D), a [`Queue2D`](crate::Queue2D) or a
//! [`Counter2D`](crate::Counter2D). For the queue, `shifts_up` counts put
//! window shifts and `shifts_down` get window shifts (both globals only
//! move forward); for the counter only the push-side counters are
//! populated.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};
use core::fmt;

use crossbeam_utils::CachePadded;

/// A counter block: one word per event kind. Each windowed structure
/// ([`Stack2D`](crate::Stack2D), [`Queue2D`](crate::Queue2D),
/// [`Counter2D`](crate::Counter2D)) owns a shared one in its
/// [`CounterHub`], and every live handle owns a private [`HandleCounters`].
#[derive(Debug, Default)]
pub(crate) struct OpCounters {
    /// Sub-structure CASes lost to another thread.
    pub cas_failures: AtomicU64,
    /// Sub-stack validations performed (window checks).
    pub probes: AtomicU64,
    /// Successful `Global` raises (push side).
    pub shifts_up: AtomicU64,
    /// Successful `Global` lowers (pop side).
    pub shifts_down: AtomicU64,
    /// Search rounds abandoned because `Global` changed mid-search.
    pub global_restarts: AtomicU64,
    /// Pops that returned `None` after a covering sweep saw all empty.
    pub empty_pops: AtomicU64,
    /// Completed operations (pushes + pops, including empty pops).
    pub ops: AtomicU64,
    /// Operations completed inside a batched call (`push_n`/`pop_n`);
    /// a subset of `ops`.
    pub batched_ops: AtomicU64,
    /// Engine invocations (one per `push`/`pop`/`increment` and one per
    /// whole batched call) — the denominator that keeps per-search-round
    /// rates honest under batching.
    pub search_rounds: AtomicU64,
    /// Window-descriptor swings (retunes and shrink commits).
    pub retunes: AtomicU64,
}

/// A handle's private counter block: the whole [`OpCounters`] on one
/// padding granule. Only the owning handle writes it, so its fields need
/// no isolation from each other — only from every other handle's block.
pub(crate) type HandleCounters = CachePadded<OpCounters>;

/// Multi-writer add (the hub's shared block).
#[inline]
fn add(field: &AtomicU64, n: u64) {
    if n > 0 {
        field.fetch_add(n, Ordering::Relaxed);
    }
}

/// Single-writer add for per-handle blocks ([`CounterHub::register`]):
/// only the owning handle ever writes the block, so a relaxed load+store
/// replaces the locked read-modify-write — the difference is most of the
/// metrics overhead of an uncontended op.
#[inline]
pub(crate) fn bump(field: &AtomicU64, n: u64) {
    if n > 0 {
        field.store(field.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }
}

impl OpCounters {
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cas_failures: self.cas_failures.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            shifts_up: self.shifts_up.load(Ordering::Relaxed),
            shifts_down: self.shifts_down.load(Ordering::Relaxed),
            global_restarts: self.global_restarts.load(Ordering::Relaxed),
            empty_pops: self.empty_pops.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            batched_ops: self.batched_ops.load(Ordering::Relaxed),
            search_rounds: self.search_rounds.load(Ordering::Relaxed),
            retunes: self.retunes.load(Ordering::Relaxed),
        }
    }
}

/// The counter state a windowed structure owns: one shared block for
/// structure-level events (retunes), plus one **per-handle** block for
/// every handle that has ever been live at once.
///
/// Handles write only their own block ([`bump`] — plain relaxed
/// load+store, no locked read-modify-write), which removes the per-op
/// atomic-RMW tax *and* the false-sharing between handles that a single
/// shared block would cost under contention. A dropped handle's block is
/// parked, not folded into the base: its counts stay where they are, and
/// the next [`CounterHub::register`] hands the block, counts and all, to
/// a new handle. [`CounterHub::snapshot`] sums the base and every block,
/// live or parked, so `metrics()` stays exact at every instant, and a
/// handle costs no allocation once the hub holds as many blocks as
/// handles have ever been live at once.
#[derive(Debug, Default)]
pub(crate) struct CounterHub {
    base: OpCounters,
    inner: Mutex<HubInner>,
}

#[derive(Debug, Default)]
struct HubInner {
    /// Every block handed out so far, live or parked.
    blocks: Vec<Arc<HandleCounters>>,
    /// The blocks no live handle owns, ready for the next handle.
    parked: Vec<Arc<HandleCounters>>,
    /// Raw totals at the last [`CounterHub::reset`]: per-handle blocks are
    /// single-writer and must never be stored to from outside, so a reset
    /// subtracts instead of zeroing.
    baseline: MetricsSnapshot,
}

impl CounterHub {
    /// Counts one window-descriptor swing (a retune or shrink commit) —
    /// structure-level and multi-writer, so it goes to the shared block.
    pub(crate) fn retuned(&self) {
        add(&self.base.retunes, 1);
    }

    /// A per-handle block, summed into snapshots for the hub's life: a
    /// parked one if there is one, else a new one. The caller becomes the
    /// block's only writer and must pass it back to
    /// [`CounterHub::release`] when the handle drops. A parked block keeps
    /// its counts, so the new writer adds to them; the hub mutex orders
    /// the previous writer's last store before the new writer's first load.
    pub(crate) fn register(&self) -> Arc<HandleCounters> {
        let mut inner = self.inner.lock();
        if let Some(block) = inner.parked.pop() {
            return block;
        }
        let block = Arc::new(HandleCounters::default());
        inner.blocks.push(Arc::clone(&block));
        block
    }

    /// Parks a dropped handle's block for the next [`CounterHub::register`].
    pub(crate) fn release(&self, block: &Arc<HandleCounters>) {
        self.inner.lock().parked.push(Arc::clone(block));
    }

    /// How many per-handle blocks the hub holds, live and parked.
    #[cfg(test)]
    pub(crate) fn block_count(&self) -> usize {
        self.inner.lock().blocks.len()
    }

    /// Raw monotone totals: base plus every handle block.
    fn raw(&self, inner: &HubInner) -> MetricsSnapshot {
        let mut total = self.base.snapshot();
        for block in &inner.blocks {
            total = total.merged(&block.snapshot());
        }
        total
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        self.raw(&inner).delta_since(&inner.baseline)
    }

    /// Zeroes the observable counters by re-basing the subtraction point
    /// (per-handle blocks are single-writer, so they cannot be stored to
    /// from here).
    pub(crate) fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.baseline = self.raw(&inner);
    }
}

/// A point-in-time copy of a stack's operation counters.
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Stack2D};
///
/// let stack = Stack2D::new(Params::new(2, 1, 1).unwrap());
/// for i in 0..10 {
///     stack.push(i);
/// }
/// let m = stack.metrics();
/// assert_eq!(m.ops, 10);
/// // 2 sub-stacks of depth 1 can hold 2 items per window: pushing 10
/// // items must have raised the window several times.
/// assert!(m.shifts_up >= 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Sub-structure CASes lost to another thread.
    pub cas_failures: u64,
    /// Sub-stack validations performed.
    pub probes: u64,
    /// Successful `Global` raises.
    pub shifts_up: u64,
    /// Successful `Global` lowers.
    pub shifts_down: u64,
    /// Search rounds restarted due to an observed `Global` change.
    pub global_restarts: u64,
    /// Pops that reported empty.
    pub empty_pops: u64,
    /// Completed operations.
    pub ops: u64,
    /// Operations completed inside a batched call (subset of `ops`).
    /// Absent from snapshots recorded before PR 10; readers treat it as 0.
    pub batched_ops: u64,
    /// Engine invocations (one per singular op, one per batched call).
    /// Absent from snapshots recorded before PR 10; readers treat it as 0.
    pub search_rounds: u64,
    /// Window-descriptor swings (retunes and shrink commits).
    pub retunes: u64,
}

impl MetricsSnapshot {
    /// The counter increments since an `earlier` snapshot of the same
    /// stack (saturating, so a reset in between yields zeros instead of
    /// wrapping). This is what feedback controllers sample on a cadence.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Stack2D};
    ///
    /// let stack = Stack2D::new(Params::default());
    /// stack.push(1);
    /// let before = stack.metrics();
    /// stack.push(2);
    /// stack.push(3);
    /// assert_eq!(stack.metrics().delta_since(&before).ops, 2);
    /// ```
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            cas_failures: self.cas_failures.saturating_sub(earlier.cas_failures),
            probes: self.probes.saturating_sub(earlier.probes),
            shifts_up: self.shifts_up.saturating_sub(earlier.shifts_up),
            shifts_down: self.shifts_down.saturating_sub(earlier.shifts_down),
            global_restarts: self.global_restarts.saturating_sub(earlier.global_restarts),
            empty_pops: self.empty_pops.saturating_sub(earlier.empty_pops),
            ops: self.ops.saturating_sub(earlier.ops),
            batched_ops: self.batched_ops.saturating_sub(earlier.batched_ops),
            search_rounds: self.search_rounds.saturating_sub(earlier.search_rounds),
            retunes: self.retunes.saturating_sub(earlier.retunes),
        }
    }
    /// Fieldwise sum (wrapping like the underlying counters), used to fold
    /// per-handle blocks into one total.
    pub(crate) fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            cas_failures: self.cas_failures.wrapping_add(other.cas_failures),
            probes: self.probes.wrapping_add(other.probes),
            shifts_up: self.shifts_up.wrapping_add(other.shifts_up),
            shifts_down: self.shifts_down.wrapping_add(other.shifts_down),
            global_restarts: self.global_restarts.wrapping_add(other.global_restarts),
            empty_pops: self.empty_pops.wrapping_add(other.empty_pops),
            ops: self.ops.wrapping_add(other.ops),
            batched_ops: self.batched_ops.wrapping_add(other.batched_ops),
            search_rounds: self.search_rounds.wrapping_add(other.search_rounds),
            retunes: self.retunes.wrapping_add(other.retunes),
        }
    }

    /// Average sub-stack validations per completed operation — the paper's
    /// step-complexity proxy. Zero when no ops completed.
    pub fn probes_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.probes as f64 / self.ops as f64
        }
    }

    /// Fraction of operations that lost at least the counted CASes (an
    /// upper estimate of the contention rate). Zero when no ops completed.
    pub fn contention_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.cas_failures as f64 / self.ops as f64
        }
    }

    /// Window shifts (either direction) per operation.
    pub fn shift_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            (self.shifts_up + self.shifts_down) as f64 / self.ops as f64
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ops={} (batched {}) rounds={} probes/op={:.2} cas-fail={} shifts(up/down)={}/{} restarts={} empty={} retunes={}",
            self.ops,
            self.batched_ops,
            self.search_rounds,
            self.probes_per_op(),
            self.cas_failures,
            self.shifts_up,
            self.shifts_down,
            self.global_restarts,
            self.empty_pops,
            self.retunes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_snapshot_is_zero() {
        let m = MetricsSnapshot::default();
        assert_eq!(m.probes_per_op(), 0.0);
        assert_eq!(m.contention_rate(), 0.0);
        assert_eq!(m.shift_rate(), 0.0);
    }

    #[test]
    fn rates_divide_by_ops() {
        let m = MetricsSnapshot {
            cas_failures: 5,
            probes: 30,
            shifts_up: 2,
            shifts_down: 1,
            ops: 10,
            ..Default::default()
        };
        assert_eq!(m.probes_per_op(), 3.0);
        assert_eq!(m.contention_rate(), 0.5);
        assert!((m.shift_rate() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn delta_since_subtracts_fieldwise_and_saturates() {
        let a = MetricsSnapshot { ops: 10, probes: 20, cas_failures: 3, ..Default::default() };
        let b = MetricsSnapshot { ops: 25, probes: 21, cas_failures: 3, ..Default::default() };
        let d = b.delta_since(&a);
        assert_eq!(d.ops, 15);
        assert_eq!(d.probes, 1);
        assert_eq!(d.cas_failures, 0);
        // A reset between snapshots saturates to zero instead of wrapping.
        assert_eq!(a.delta_since(&b).ops, 0);
    }

    #[test]
    fn counters_snapshot_and_reset() {
        let hub = CounterHub::default();
        let c = hub.register();
        bump(&c.global_restarts, 7);
        bump(&c.ops, 2);
        bump(&c.cas_failures, 0); // no-op
        let snap = hub.snapshot();
        assert_eq!(snap.global_restarts, 7);
        assert_eq!(snap.ops, 2);
        assert_eq!(snap.cas_failures, 0);
        hub.reset();
        assert_eq!(hub.snapshot(), MetricsSnapshot::default());
        // Releasing the handle block parks it with its counts, still
        // summed, without disturbing the reset point.
        bump(&c.ops, 3);
        hub.release(&c);
        drop(c);
        assert_eq!(hub.snapshot().ops, 3);
        assert_eq!(hub.snapshot().global_restarts, 0);
        // The next handle gets the parked block and adds to its counts.
        let d = hub.register();
        bump(&d.ops, 4);
        assert_eq!(hub.snapshot().ops, 7);
        assert_eq!(hub.block_count(), 1);
    }

    #[test]
    fn blocks_are_reused_only_once_parked() {
        let hub = CounterHub::default();
        let a = hub.register();
        let b = hub.register();
        assert!(!Arc::ptr_eq(&a, &b), "two live handles never share a block");
        hub.release(&a);
        let c = hub.register();
        assert!(Arc::ptr_eq(&a, &c), "a parked block is reused before a new one");
        assert_eq!(hub.block_count(), 2);
    }

    #[test]
    fn display_mentions_core_fields() {
        let s = MetricsSnapshot { ops: 4, probes: 8, ..Default::default() }.to_string();
        assert!(s.contains("ops=4"));
        assert!(s.contains("probes/op=2.00"));
    }
}
