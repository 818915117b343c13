//! The hot-swappable window descriptor behind online ("elastic") retuning —
//! structure-agnostic since PR 3.
//!
//! The paper freezes `width`, `depth` and `shift` at construction; this
//! module makes them *runtime-tunable* so a controller (see the
//! `stack2d-adaptive` crate) can widen the window under contention and
//! tighten it when load drops. The live configuration is a heap-allocated
//! `WindowDesc` behind an epoch-protected atomic pointer: a retune installs
//! a fresh descriptor with a single-word CAS, operations re-read the
//! pointer at every search round, and displaced descriptors are reclaimed
//! through `crossbeam-epoch`. Operations therefore never block on a retune.
//!
//! Nothing in the descriptor machinery is stack-specific, so it lives in
//! `ElasticWindow`, shared by all three windowed structures:
//! [`Stack2D`](crate::Stack2D) holds one, [`Queue2D`](crate::Queue2D)
//! holds two (one per window — put and get; see DESIGN.md §7), and
//! [`Counter2D`](crate::Counter2D) holds one.
//!
//! # Width growth and shrink
//!
//! The sub-structure array is allocated once at the structure's
//! **capacity** (e.g. [`SearchConfig::max_width`](crate::SearchConfig::max_width)),
//! so growing `width` is purely a descriptor swing: the new sub-structures
//! are already there, empty, below the window.
//!
//! Shrinking is two-phase, because items may be resident in the retired
//! tail `[new_width, old_width)`:
//!
//! 1. the shrink descriptor takes effect immediately for the **producing**
//!    side (`push_width = new_width`) while the **consuming** side keeps
//!    draining the old span (`pop_width = old_width`);
//! 2. the shrink *commits* (`pop_width = push_width`, via
//!    `ElasticWindow::try_commit_shrink`) only once (a) every operation
//!    that predates the shrink has finished — established by retiring a
//!    `ShrinkFence` sentinel through epoch reclamation, whose `Drop`
//!    can only run once all pre-shrink pins are gone — and (b) the
//!    structure's `tail_clear` sweep observes the tail empty (or, for the
//!    counter, folds the retired values away). After (a) no thread can
//!    produce into the tail any more, so (b) is a stable property and no
//!    item is ever stranded.
//!
//! # The instantaneous relaxation bound
//!
//! [`WindowInfo::k_bound`] is computed with `pop_width` — the span the
//! consuming side may actually draw from — so the bound published for a
//! generation is honest while a shrink is pending: it stays at the wide
//! value until the tail is provably drained, and only then tightens. Every
//! descriptor swing increments [`WindowInfo::generation`]; the quality
//! crate checks measured error distances *per generation segment* against
//! the bound in force when the operation happened.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Arc;
use core::fmt;
use core::ops::Range;

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned};
use crossbeam_utils::CachePadded;

use crate::params::Params;

/// The live window configuration of a windowed structure:
/// heap-allocated, swung atomically by `retune`, reclaimed by epochs.
pub(crate) struct WindowDesc {
    /// Sub-structures the producing side may target: `[0, push_width)`.
    pub(crate) push_width: usize,
    /// Sub-structures the consuming side may draw from: `[0, pop_width)`;
    /// equals `push_width` except while a width shrink is pending.
    pub(crate) pop_width: usize,
    /// Vertical window dimension (max per-sub-stack slack).
    pub(crate) depth: usize,
    /// `Global` movement per window shift.
    pub(crate) shift: usize,
    /// Monotone counter bumped by every descriptor swing.
    pub(crate) generation: u64,
    /// Present while a shrink is pending: flips to `true` once every
    /// operation that predates the shrink has finished (see
    /// [`ShrinkFence`]).
    pub(crate) fence: Option<Arc<AtomicBool>>,
}

impl WindowDesc {
    /// The initial (generation 0) descriptor for `params`.
    pub(crate) fn initial(params: Params) -> Self {
        WindowDesc {
            push_width: params.width(),
            pop_width: params.width(),
            depth: params.depth(),
            shift: params.shift(),
            generation: 0,
            fence: None,
        }
    }

    /// Public snapshot of this descriptor.
    pub(crate) fn info(&self) -> WindowInfo {
        WindowInfo {
            params: Params::new(self.push_width, self.depth, self.shift)
                // archlint: allow(no-panic-in-hot-path) — descriptors are
                // only built from validated Params; failure is a core bug.
                .expect("window descriptor always holds validated parameters"),
            pop_width: self.pop_width,
            generation: self.generation,
        }
    }
}

/// Sentinel retired through epoch-based reclamation when a shrink
/// descriptor is installed.
///
/// Epoch reclamation frees an object only after every thread pinned at
/// retirement time has unpinned, i.e. after every operation that could
/// still be using the *pre-shrink* descriptor (and therefore pushing into
/// the retired tail) has finished. Running this sentinel's `Drop` is that
/// proof; it flips the flag the shrink commit waits on.
pub(crate) struct ShrinkFence(pub(crate) Arc<AtomicBool>);

impl Drop for ShrinkFence {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The structure-agnostic elastic machinery: an epoch-protected,
/// hot-swappable [`WindowDesc`] plus the retune / two-phase-shrink
/// protocol built in PR 2 for [`Stack2D`](crate::Stack2D) and since
/// shared with [`Queue2D`](crate::Queue2D) and
/// [`Counter2D`](crate::Counter2D).
///
/// The owning structure supplies only what is structure-specific: its
/// capacity (the ceiling for widths) and, at shrink commit, the
/// `tail_clear` sweep proving the retired span holds no items.
pub(crate) struct ElasticWindow {
    desc: CachePadded<Atomic<WindowDesc>>,
}

impl ElasticWindow {
    /// A window starting at `params` (generation 0).
    pub(crate) fn new(params: Params) -> Self {
        ElasticWindow { desc: CachePadded::new(Atomic::new(WindowDesc::initial(params))) }
    }

    /// The live descriptor, valid for the lifetime of `guard`. Never null:
    /// construction installs a descriptor and every swing replaces it with
    /// another.
    #[inline]
    pub(crate) fn load<'g>(&self, guard: &'g Guard) -> &'g WindowDesc {
        // SAFETY: the descriptor is never null (see the doc comment) and the
        // epoch guard keeps the loaded descriptor alive for `'g`.
        unsafe { self.desc.load(Ordering::Acquire, guard).deref() }
    }

    /// A consistent public snapshot of the live descriptor.
    pub(crate) fn info(&self) -> WindowInfo {
        let guard = epoch::pin();
        self.load(&guard).info()
    }

    /// Installs new window parameters with a single descriptor CAS,
    /// applying the high-water rule: the consuming span never narrows
    /// below sub-structures that may still hold items, and a pending
    /// shrink arms a fresh [`ShrinkFence`]. Returns the snapshot that took
    /// effect plus whether the descriptor actually swung (`false` for a
    /// no-op retune, which bumps no generation).
    pub(crate) fn retune(
        &self,
        params: Params,
        capacity: usize,
    ) -> Result<(WindowInfo, bool), RetuneError> {
        self.retune_inner(params, capacity, true)
    }

    /// Like [`ElasticWindow::retune`], but the consuming span follows the
    /// producing span immediately and no fence is armed — for windows with
    /// no consuming side to cover (a queue's put window, where the
    /// sub-queues retired from *enqueues* are the get window's problem).
    pub(crate) fn retune_symmetric(
        &self,
        params: Params,
        capacity: usize,
    ) -> Result<(WindowInfo, bool), RetuneError> {
        self.retune_inner(params, capacity, false)
    }

    fn retune_inner(
        &self,
        params: Params,
        capacity: usize,
        high_water: bool,
    ) -> Result<(WindowInfo, bool), RetuneError> {
        if params.width() > capacity {
            return Err(RetuneError::ExceedsCapacity { requested: params.width(), capacity });
        }
        let guard = epoch::pin();
        loop {
            let cur_shared = self.desc.load(Ordering::Acquire, &guard);
            // SAFETY: never null, alive under `guard` (see `load`).
            let cur = unsafe { cur_shared.deref() };
            let push_width = params.width();
            // High-water rule: the consuming side must keep covering every
            // sub-structure that may still hold items.
            let pop_width = if high_water { push_width.max(cur.pop_width) } else { push_width };
            if push_width == cur.push_width
                && pop_width == cur.pop_width
                && params.depth() == cur.depth
                && params.shift() == cur.shift
            {
                // No-op retune: report the standing window, no generation
                // bump (keeps the per-generation quality segments dense).
                return Ok((cur.info(), false));
            }
            let fence = if pop_width > push_width {
                // A (possibly further) shrink is pending: arm a fresh fence
                // covering every operation that predates *this* swing.
                Some(Arc::new(AtomicBool::new(false)))
            } else {
                None
            };
            let next = Owned::new(WindowDesc {
                push_width,
                pop_width,
                depth: params.depth(),
                shift: params.shift(),
                generation: cur.generation + 1,
                fence: fence.clone(),
            });
            match self.desc.compare_exchange(
                cur_shared,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(installed) => {
                    // SAFETY: our CAS unlinked the old descriptor; only the
                    // winner retires it, exactly once.
                    unsafe { guard.defer_destroy(cur_shared) };
                    if let Some(flag) = fence {
                        // The sentinel's Drop runs only after every thread
                        // pinned right now — i.e. every operation that may
                        // still produce under the pre-shrink descriptor —
                        // has unpinned. That is the commit precondition.
                        let sentinel = Owned::new(ShrinkFence(flag)).into_shared(&guard);
                        // SAFETY: the sentinel was allocated just above and
                        // never published anywhere else, so this is its only
                        // retirement.
                        unsafe { guard.defer_destroy(sentinel) };
                    }
                    // SAFETY: `installed` is the descriptor we just created;
                    // it stays alive under `guard`.
                    return Ok((unsafe { installed.deref() }.info(), true));
                }
                // Lost to a concurrent retune; re-read and retry. The
                // rejected descriptor rides back in the error and is freed.
                Err(_) => continue,
            }
        }
    }

    /// Attempts to commit a pending width shrink: once the epoch fence
    /// proves every pre-shrink operation finished *and* `tail_clear`
    /// vouches for the retired span `[push_width, pop_width)` — by
    /// observing it empty, or by folding its residue away — the consuming
    /// side stops covering the tail and the relaxation bound tightens.
    ///
    /// Returns the new snapshot when the commit lands, `None` when there
    /// is nothing to commit or the preconditions do not hold yet (call
    /// again later; each call also nudges epoch reclamation along).
    pub(crate) fn try_commit_shrink(
        &self,
        tail_clear: impl FnOnce(Range<usize>, &Guard) -> bool,
    ) -> Option<WindowInfo> {
        let guard = epoch::pin();
        let cur_shared = self.desc.load(Ordering::Acquire, &guard);
        // SAFETY: never null, alive under `guard` (see `load`).
        let cur = unsafe { cur_shared.deref() };
        let flag = cur.fence.as_ref()?;
        if !flag.load(Ordering::Acquire) {
            // Pre-shrink operations may still be in flight; help the epoch
            // along so the fence can trip.
            guard.flush();
            return None;
        }
        // No thread can produce into the tail any more; tail emptiness is
        // a stable property for the sweep to establish.
        if !tail_clear(cur.push_width..cur.pop_width, &guard) {
            return None;
        }
        let next = Owned::new(WindowDesc {
            push_width: cur.push_width,
            pop_width: cur.push_width,
            depth: cur.depth,
            shift: cur.shift,
            generation: cur.generation + 1,
            fence: None,
        });
        match self.desc.compare_exchange(
            cur_shared,
            next,
            Ordering::AcqRel,
            Ordering::Acquire,
            &guard,
        ) {
            Ok(installed) => {
                // SAFETY: our CAS unlinked the old descriptor; only the
                // winner retires it, exactly once.
                unsafe { guard.defer_destroy(cur_shared) };
                // SAFETY: `installed` is the descriptor we just created; it
                // stays alive under `guard`.
                Some(unsafe { installed.deref() }.info())
            }
            // A concurrent retune replaced the descriptor; its own fence
            // (if any) governs the next commit attempt.
            Err(_) => None,
        }
    }
}

impl fmt::Debug for ElasticWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElasticWindow").field("info", &self.info()).finish()
    }
}

impl Drop for ElasticWindow {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees exclusive access, satisfying the
        // unprotected guard's contract; the live descriptor is freed
        // directly (retired ones are handled by epoch reclamation).
        unsafe {
            let guard = epoch::unprotected();
            let d = self.desc.load(Ordering::Relaxed, guard);
            drop(d.into_owned());
        }
    }
}

/// A consistent snapshot of a live window — parameters, pop span and
/// generation — of any windowed structure ([`Stack2D`](crate::Stack2D),
/// [`Queue2D`](crate::Queue2D), [`Counter2D`](crate::Counter2D)).
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Stack2D};
///
/// let stack: Stack2D<u32> = Stack2D::builder().params(Params::new(2, 1, 1).unwrap()).elastic_capacity(8).build().unwrap();
/// let w = stack.window();
/// assert_eq!(w.width(), 2);
/// assert_eq!(w.generation(), 0);
///
/// stack.retune(Params::new(8, 1, 1).unwrap()).unwrap();
/// let w = stack.window();
/// assert_eq!(w.width(), 8);
/// assert_eq!(w.generation(), 1);
/// assert_eq!(w.k_bound(), (2 + 1) * 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowInfo {
    params: Params,
    pop_width: usize,
    generation: u64,
}

impl WindowInfo {
    /// The push-side window parameters currently in force.
    #[inline]
    pub fn params(&self) -> Params {
        self.params
    }

    /// Sub-structures the producing side targets (the tuned `width`).
    #[inline]
    pub fn width(&self) -> usize {
        self.params.width()
    }

    /// Sub-structures the consuming side draws from; exceeds
    /// [`WindowInfo::width`] while a width shrink is pending commit.
    #[inline]
    pub fn pop_width(&self) -> usize {
        self.pop_width
    }

    /// Window depth currently in force.
    #[inline]
    pub fn depth(&self) -> usize {
        self.params.depth()
    }

    /// Window shift currently in force.
    #[inline]
    pub fn shift(&self) -> usize {
        self.params.shift()
    }

    /// Window generation: bumped by every retune and shrink commit.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether a width shrink is pending (pops still cover the old span).
    #[inline]
    pub fn pending_shrink(&self) -> bool {
        self.pop_width > self.params.width()
    }

    /// The instantaneous k-out-of-order bound, computed over
    /// [`WindowInfo::pop_width`] — the span pops may actually draw from —
    /// so it stays honest while a shrink is pending.
    pub fn k_bound(&self) -> usize {
        Params::new(self.pop_width, self.params.depth(), self.params.shift())
            // archlint: allow(no-panic-in-hot-path) — pop_width shrinks only
            // toward validated widths; failure is a core bug, not input.
            .expect("pop_width >= 1 and depth/shift come from validated parameters")
            .k_bound()
    }
}

impl fmt::Display for WindowInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gen={} width={} depth={} shift={} pop-width={} (k={})",
            self.generation,
            self.params.width(),
            self.params.depth(),
            self.params.shift(),
            self.pop_width,
            self.k_bound()
        )
    }
}

/// Error returned by a `retune` ([`Stack2D::retune`](crate::Stack2D::retune),
/// [`Queue2D::retune`](crate::Queue2D::retune),
/// [`Counter2D::retune`](crate::Counter2D::retune)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetuneError {
    /// The requested width exceeds the sub-structure array allocated at
    /// construction (e.g.
    /// [`SearchConfig::max_width`](crate::SearchConfig::max_width)).
    ExceedsCapacity {
        /// The requested width.
        requested: usize,
        /// The structure's fixed capacity.
        capacity: usize,
    },
}

impl fmt::Display for RetuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RetuneError::ExceedsCapacity { requested, capacity } => {
                write!(f, "requested width {requested} exceeds structure capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for RetuneError {}

/// Test helper: retries `attempt` until it yields `Some`, yielding the
/// thread between tries, for at most 10 s. A shrink commit waits on the
/// process-global epoch, which every concurrently running test also pins,
/// so no fixed number of attempts is guaranteed to be enough.
#[cfg(test)]
pub(crate) fn retry_until<R>(mut attempt: impl FnMut() -> Option<R>) -> Option<R> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if let Some(r) = attempt() {
            return Some(r);
        }
        if std::time::Instant::now() >= deadline {
            return None;
        }
        crate::sync::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_descriptor_mirrors_params() {
        let p = Params::new(4, 2, 1).unwrap();
        let d = WindowDesc::initial(p);
        assert_eq!(d.push_width, 4);
        assert_eq!(d.pop_width, 4);
        assert_eq!(d.generation, 0);
        assert!(d.fence.is_none());
        let info = d.info();
        assert_eq!(info.params(), p);
        assert!(!info.pending_shrink());
        assert_eq!(info.k_bound(), p.k_bound());
    }

    #[test]
    fn pending_shrink_bound_uses_pop_width() {
        let d = WindowDesc {
            push_width: 2,
            pop_width: 8,
            depth: 1,
            shift: 1,
            generation: 3,
            fence: Some(Arc::new(AtomicBool::new(false))),
        };
        let info = d.info();
        assert!(info.pending_shrink());
        assert_eq!(info.width(), 2);
        assert_eq!(info.pop_width(), 8);
        // Bound is computed over the 8 sub-stacks pops still cover.
        assert_eq!(info.k_bound(), Params::new(8, 1, 1).unwrap().k_bound());
    }

    #[test]
    fn shrink_fence_flips_flag_on_drop() {
        let flag = Arc::new(AtomicBool::new(false));
        let fence = ShrinkFence(Arc::clone(&flag));
        assert!(!flag.load(Ordering::Acquire));
        drop(fence);
        assert!(flag.load(Ordering::Acquire));
    }

    #[test]
    fn retune_error_display_is_informative() {
        let e = RetuneError::ExceedsCapacity { requested: 9, capacity: 4 };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('4'));
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn window_info_display_mentions_generation_and_k() {
        let info = WindowDesc::initial(Params::new(4, 2, 1).unwrap()).info();
        let s = info.to_string();
        assert!(s.contains("gen=0"));
        assert!(s.contains("width=4"));
        assert!(s.contains("k="));
    }

    #[test]
    fn elastic_window_retune_applies_high_water_rule() {
        let w = ElasticWindow::new(Params::new(8, 1, 1).unwrap());
        let (info, swung) = w.retune(Params::new(2, 1, 1).unwrap(), 8).unwrap();
        assert!(swung);
        assert_eq!(info.width(), 2);
        assert_eq!(info.pop_width(), 8, "consuming span holds the high-water mark");
        assert!(info.pending_shrink());
        // A further grow within the pending span keeps the mark.
        let (info, _) = w.retune(Params::new(4, 1, 1).unwrap(), 8).unwrap();
        assert_eq!(info.pop_width(), 8);
    }

    #[test]
    fn elastic_window_symmetric_retune_closes_immediately() {
        let w = ElasticWindow::new(Params::new(8, 1, 1).unwrap());
        let (info, swung) = w.retune_symmetric(Params::new(2, 1, 1).unwrap(), 8).unwrap();
        assert!(swung);
        assert_eq!(info.width(), 2);
        assert_eq!(info.pop_width(), 2, "symmetric retune carries no pending span");
        assert!(!info.pending_shrink());
    }

    #[test]
    fn elastic_window_noop_retune_does_not_swing() {
        let w = ElasticWindow::new(Params::new(4, 2, 1).unwrap());
        let (info, swung) = w.retune(Params::new(4, 2, 1).unwrap(), 8).unwrap();
        assert!(!swung);
        assert_eq!(info.generation(), 0);
    }

    #[test]
    fn elastic_window_rejects_width_beyond_capacity() {
        let w = ElasticWindow::new(Params::new(2, 1, 1).unwrap());
        assert_eq!(
            w.retune(Params::new(5, 1, 1).unwrap(), 4).unwrap_err(),
            RetuneError::ExceedsCapacity { requested: 5, capacity: 4 }
        );
    }

    #[test]
    fn elastic_window_commit_consults_tail_clear() {
        let w = ElasticWindow::new(Params::new(4, 1, 1).unwrap());
        w.retune(Params::new(1, 1, 1).unwrap(), 4).unwrap();
        // Drive the fence; once it trips, a refusing sweep blocks commit.
        let asked = retry_until(|| {
            let mut asked = None;
            assert!(w
                .try_commit_shrink(|range, _| {
                    asked = Some(range.clone());
                    false
                })
                .is_none());
            asked
        });
        assert_eq!(asked, Some(1..4), "sweep must cover the retired tail");
        let info = retry_until(|| w.try_commit_shrink(|_, _| true))
            .expect("agreeing sweep must let the shrink commit");
        assert_eq!(info.pop_width(), 1);
        assert!(!info.pending_shrink());
    }
}
