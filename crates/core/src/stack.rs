//! The 2D-Stack: `width` sub-stacks under a shared window.
//!
//! This module implements the algorithm of §3 of the paper:
//!
//! * an array of count-in-node sub-stacks (the *stack-array*);
//! * a shared `Global` counter giving the upper edge of the current
//!   **window**: a push is valid on a sub-stack iff `count < Global`, a pop
//!   iff `count > Global - depth` (and the sub-stack is non-empty);
//! * a two-phase search (random hops, then a covering round-robin sweep)
//!   that starts from the thread's last successful sub-stack;
//! * window **shifts**: when a covering sweep finds no valid sub-stack, the
//!   thread CASes `Global` up by `shift` (push side) or down by `shift`
//!   (pop side, floored at `depth`);
//! * restart on observed `Global` change, and a random hop after a failed
//!   CAS (contention avoidance).
//!
//! Relaxation is bounded by Theorem 1: `k = (2*shift + depth)*(width-1)`.

use crate::sync::atomic::{AtomicUsize, Ordering};
use core::fmt;

use crossbeam_epoch::{self as epoch};
use crossbeam_utils::CachePadded;

use crate::builder::Builder;
use crate::engine::{OpState, Probe, ProbeTarget, Search};
use crate::metrics::{CounterHub, MetricsSnapshot};
use crate::params::Params;
use crate::rng::{HandleSeeder, HopRng};
use crate::search::SearchConfig;
use crate::substack::{Contended, PreparedNode, SubStack};
use crate::sync::Arc;
use crate::telemetry::{OpKind, Recorder, ShrinkPhase, TelemetryHook};
use crate::traits::{ElasticTarget, OpsHandle, RelaxedOps};
use crate::window::{ElasticWindow, RetuneError, WindowDesc, WindowInfo};

/// A scalable lock-free stack with tunable k-out-of-order relaxation.
///
/// `Stack2D` trades strict LIFO order for throughput: a `pop` may return any
/// of the topmost `k+1` items, where `k` is the deterministic bound
/// [`Params::k_bound`] (`(2*shift + depth)*(width-1)`, Theorem 1 of the
/// paper). Setting `width = 1` recovers a strict lock-free stack.
///
/// Threads should operate through a registered [`Handle2D`] (see
/// [`Stack2D::handle`]), which carries the paper's per-thread state: the
/// last successful sub-stack (locality) and the hop RNG. The plain
/// [`push`](Stack2D::push) / [`pop`](Stack2D::pop) methods construct an
/// ephemeral handle per call and are provided for convenience.
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Stack2D};
///
/// # fn main() -> Result<(), stack2d::ParamsError> {
/// let stack = Stack2D::new(Params::new(4, 2, 1)?);
/// let mut h = stack.handle();
/// h.push(1);
/// h.push(2);
/// // Relaxed semantics: we get *some* recent item, and nothing is lost.
/// let a = h.pop().unwrap();
/// let b = h.pop().unwrap();
/// assert_eq!({ let mut v = vec![a, b]; v.sort(); v }, vec![1, 2]);
/// assert_eq!(h.pop(), None);
/// # Ok(())
/// # }
/// ```
pub struct Stack2D<T> {
    /// Sub-stacks, allocated once at `config.capacity()`; only the first
    /// `window.push_width` (pushes) / `window.pop_width` (pops) are active.
    subs: Box<[CachePadded<SubStack<T>>]>,
    /// The paper's `Global`: upper edge of the window, in items per
    /// sub-stack.
    global: CachePadded<AtomicUsize>,
    /// The live window descriptor (width/depth/shift + generation),
    /// epoch-protected and hot-swapped by [`Stack2D::retune`].
    window: ElasticWindow,
    config: SearchConfig,
    counters: CounterHub,
    seeder: HandleSeeder,
    telemetry: TelemetryHook,
}

/// The push side of the stack-array, as driven by the search engine: a
/// sub-stack is push-valid iff its count is below `Global`.
struct PushSide<'s, T> {
    subs: &'s [CachePadded<SubStack<T>>],
    node: Option<PreparedNode<T>>,
    /// Remaining values of a batched push, staged one at a time by
    /// [`ProbeTarget::reload`]. Empty for a singular push.
    rest: std::vec::IntoIter<T>,
}

impl<'s, T> PushSide<'s, T> {
    /// A push side staging `first`, then `rest` in order.
    fn new(subs: &'s [CachePadded<SubStack<T>>], first: T, rest: std::vec::IntoIter<T>) -> Self {
        PushSide { subs, node: Some(PreparedNode::new(first)), rest }
    }
}

impl<T> ProbeTarget for PushSide<'_, T> {
    type Output = ();
    const CONSUMES: bool = false;
    const OP: OpKind = OpKind::Push;

    fn span(&self, w: &WindowDesc) -> usize {
        w.push_width
    }

    fn probe(
        &mut self,
        i: usize,
        _w: &WindowDesc,
        global: usize,
        guard: &epoch::Guard,
    ) -> Probe<()> {
        let view = self.subs[i].view(guard);
        if view.count() < global {
            let n = self.node.take().expect("push node present until consumed");
            match self.subs[i].try_push_at(&view, n, guard) {
                Ok(()) => Probe::Done(()),
                Err(Contended(n)) => {
                    self.node = Some(n);
                    Probe::Contended
                }
            }
        } else {
            Probe::Invalid
        }
    }

    fn shift_target(&self, global: usize, live: &WindowDesc) -> Option<usize> {
        // Every sub-stack is at or above the window: raise it.
        Some(global + live.shift)
    }

    fn reload(&mut self) -> bool {
        debug_assert!(self.node.is_none(), "reload with a node still staged");
        self.node = self.rest.next().map(PreparedNode::new);
        self.node.is_some()
    }
}

/// The pop side: a sub-stack is pop-valid iff it is non-empty and its count
/// exceeds `Global - depth`; emptiness is concluded only from the covering
/// sweep every policy ends with.
struct PopSide<'s, T> {
    subs: &'s [CachePadded<SubStack<T>>],
}

impl<T> ProbeTarget for PopSide<'_, T> {
    type Output = T;
    const CONSUMES: bool = true;
    const OP: OpKind = OpKind::Pop;

    fn span(&self, w: &WindowDesc) -> usize {
        w.pop_width
    }

    fn probe(&mut self, i: usize, w: &WindowDesc, global: usize, guard: &epoch::Guard) -> Probe<T> {
        let view = self.subs[i].view(guard);
        if view.is_empty() {
            return Probe::Empty;
        }
        if view.count() > global.saturating_sub(w.depth) {
            match self.subs[i].try_pop_at(&view, guard) {
                Ok(Some(v)) => Probe::Done(v),
                // `Ok(None)` cannot happen: the view was non-empty.
                Ok(None) => unreachable!("non-empty view popped empty"),
                Err(Contended(())) => Probe::Contended,
            }
        } else {
            Probe::Invalid
        }
    }

    fn shift_target(&self, global: usize, live: &WindowDesc) -> Option<usize> {
        // Items exist but sit below the window: lower it, flooring at
        // `depth` so the window never dips below `[0, depth]`. (After a
        // depth-growing retune, `Global` may transiently sit below the new
        // depth; never raise it from the pop side.)
        let lowered = global.saturating_sub(live.shift).max(live.depth);
        (lowered < global).then_some(lowered)
    }
}

impl<T> Stack2D<T> {
    /// Starts a validated [`Builder`] — the preferred construction path.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Stack2D;
    ///
    /// let stack: Stack2D<u64> = Stack2D::builder().for_threads(4).build().unwrap();
    /// assert_eq!(stack.params().width(), 16);
    /// ```
    pub fn builder() -> Builder<Self> {
        Builder::new()
    }

    /// Creates a 2D-Stack with the paper-default search behaviour.
    pub fn new(params: Params) -> Self {
        Self::with_config(SearchConfig::new(params))
    }

    /// Creates a 2D-Stack with explicit search-policy configuration
    /// (used by the ablation experiments).
    pub fn with_config(config: SearchConfig) -> Self {
        Self::with_config_seeded(config, None)
    }

    fn with_config_seeded(config: SearchConfig, seed: Option<u64>) -> Self {
        Stack2D {
            subs: (0..config.capacity()).map(|_| CachePadded::new(SubStack::new())).collect(),
            global: CachePadded::new(AtomicUsize::new(config.params().initial_global())),
            window: ElasticWindow::new(config.params()),
            config,
            counters: CounterHub::default(),
            seeder: HandleSeeder::new(seed),
            telemetry: TelemetryHook::none(),
        }
    }

    pub(crate) fn from_builder_parts(config: SearchConfig, seed: Option<u64>) -> Self {
        Self::with_config_seeded(config, seed)
    }

    pub(crate) fn attach_recorder_parts(&mut self, recorder: Arc<dyn Recorder>, sample_every: u32) {
        self.telemetry.attach(recorder, sample_every);
    }

    /// The attached telemetry sink, if any (see
    /// [`Builder::recorder`](crate::Builder::recorder)). Elastic drivers
    /// use this to emit their decision spans through the structure's own
    /// sink.
    #[inline]
    pub fn recorder(&self) -> Option<&dyn Recorder> {
        self.telemetry.recorder()
    }

    /// A snapshot of the stack's operation counters (contention, probes,
    /// window shifts — see [`MetricsSnapshot`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.counters.snapshot()
    }

    /// Resets the operation counters to zero (e.g. after a warm-up phase).
    pub fn reset_metrics(&self) {
        self.counters.reset();
    }

    /// The construction-time configuration (search policy knobs and the
    /// *initial* window parameters; for the live parameters after retunes
    /// see [`Stack2D::window`]).
    #[inline]
    pub fn config(&self) -> SearchConfig {
        self.config
    }

    /// The window parameters currently in force (push side).
    #[inline]
    pub fn params(&self) -> Params {
        self.window().params()
    }

    /// Number of sub-stacks allocated at construction — the ceiling for
    /// [`Stack2D::retune`]d widths.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.subs.len()
    }

    /// A consistent snapshot of the live window descriptor: parameters,
    /// pop span, generation and the instantaneous relaxation bound.
    pub fn window(&self) -> WindowInfo {
        self.window.info()
    }

    /// The deterministic relaxation bound `k` this stack guarantees *right
    /// now*: the paper's Theorem 1 formula over the live window (corrected
    /// upward where the implementation's provable bound exceeds it, see
    /// [`Params::k_bound`]), computed over the pop span so it stays honest
    /// while a width shrink is pending.
    #[inline]
    pub fn k_bound(&self) -> usize {
        self.window().k_bound()
    }

    /// The *live* relaxation bound, sound even across retune transients:
    /// `(pop_width - 1) * (max sub-stack count + depth)`.
    ///
    /// [`Stack2D::k_bound`] is the *configured* bound — the window's
    /// steady-state Theorem 1 guarantee, and what a controller's k budget
    /// governs. Right after a width **grow**, however, the freshly
    /// activated sub-stacks sit far below `Global` while the old ones are
    /// full: items resident at the swing can later pop with error
    /// distances beyond the static formula, because their siblings refill
    /// entirely with newer items (the same mechanism as the Theorem 1
    /// reproduction finding in [`Params::k_bound`], triggered here by
    /// elasticity instead of a small `shift`). The bound returned here is
    /// instead derived by residency counting — a pop's distance cannot
    /// exceed the items resident in the other covered sub-stacks — so it
    /// holds at every instant, degrades gracefully through transients,
    /// and converges back towards the configured bound as the stack
    /// drains. The quality checker verifies measured distances per
    /// generation segment against `max(configured, instantaneous)`; see
    /// DESIGN.md §6.
    ///
    /// Counts are read one sub-stack at a time, so under unquiesced
    /// concurrency the value is advisory (quality runs serialize
    /// operations and read it exactly).
    pub fn k_bound_instantaneous(&self) -> usize {
        let guard = epoch::pin();
        let w = self.window.load(&guard);
        if w.pop_width <= 1 {
            return 0;
        }
        let max_count =
            self.subs[..w.pop_width].iter().map(|s| s.view(&guard).count()).max().unwrap_or(0);
        (w.pop_width - 1) * (max_count + w.depth)
    }

    /// Installs new window parameters, returning the snapshot of the
    /// descriptor that took effect. Lock-free and non-blocking for
    /// concurrent pushes/pops: they re-read the descriptor at every search
    /// round and never wait on a retune.
    ///
    /// Growing `width` takes full effect immediately. Shrinking `width`
    /// takes effect immediately for pushes, while pops keep covering the
    /// old span until [`Stack2D::try_commit_shrink`] proves the retired
    /// tail empty; the returned/observable [`WindowInfo::k_bound`] reflects
    /// that by using the pop span.
    ///
    /// # Errors
    ///
    /// [`RetuneError::ExceedsCapacity`] if `params.width()` exceeds
    /// [`Stack2D::capacity`].
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Stack2D};
    ///
    /// let stack: Stack2D<u32> = Stack2D::builder().params(Params::new(2, 1, 1).unwrap()).elastic_capacity(8).build().unwrap();
    /// let info = stack.retune(Params::new(8, 2, 1).unwrap()).unwrap();
    /// assert_eq!(info.width(), 8);
    /// assert!(stack.retune(Params::new(9, 1, 1).unwrap()).is_err());
    /// ```
    pub fn retune(&self, params: Params) -> Result<WindowInfo, RetuneError> {
        let (info, swung) = self.window.retune(params, self.subs.len())?;
        if swung {
            self.counters.retuned();
            if let Some(r) = self.telemetry.recorder() {
                r.retune(info);
                if info.pending_shrink() {
                    r.shrink_fence(ShrinkPhase::Armed, info);
                }
            }
        }
        Ok(info)
    }

    /// Attempts to commit a pending width shrink: once the epoch fence
    /// proves every pre-shrink operation finished *and* a sweep observes
    /// the retired tail `[width, pop_width)` empty, pops stop covering the
    /// tail and the relaxation bound tightens to the shrunk width.
    ///
    /// Returns the new window snapshot when the commit lands, `None` when
    /// there is nothing to commit or the preconditions do not hold yet
    /// (call again later — e.g. on the next controller tick; each call
    /// also nudges epoch reclamation along).
    pub fn try_commit_shrink(&self) -> Option<WindowInfo> {
        let info = self.window.try_commit_shrink(|tail, guard| {
            self.subs[tail].iter().all(|s| s.view(guard).is_empty())
        })?;
        self.counters.retuned();
        if let Some(r) = self.telemetry.recorder() {
            r.shrink_fence(ShrinkPhase::Committed, info);
        }
        Some(info)
    }

    /// Whether this stack was built with elastic headroom (capacity beyond
    /// the initial width), i.e. is meant to be retuned online.
    #[inline]
    pub fn is_elastic(&self) -> bool {
        self.capacity() > self.config.params().width()
    }

    /// Registers a per-thread handle carrying locality state and the hop
    /// RNG. Handles are cheap; create one per worker thread.
    ///
    /// On a stack built with [`Builder::seed`](crate::Builder::seed) the
    /// handle RNG is drawn from the deterministic per-structure sequence;
    /// otherwise from thread entropy.
    pub fn handle(&self) -> Handle2D<'_, T> {
        self.handle_with(self.seeder.rng())
    }

    /// Registers a handle with a deterministic RNG seed — useful in tests
    /// and reproducible experiments.
    pub fn handle_seeded(&self, seed: u64) -> Handle2D<'_, T> {
        self.handle_with(HopRng::seeded(seed))
    }

    fn handle_with(&self, rng: HopRng) -> Handle2D<'_, T> {
        let mut ops = OpState::new(&self.counters, &self.telemetry, rng);
        let last = ops.rng.bounded(self.subs.len());
        Handle2D { stack: self, last, ops }
    }

    /// The search the handles run over this stack's window.
    fn search(&self) -> Search<'_> {
        Search::new(&self.window, &self.global, &self.config)
    }

    /// Current value of the `Global` window counter (diagnostic).
    #[inline]
    pub fn global(&self) -> usize {
        self.global.load(Ordering::SeqCst)
    }

    /// Sum of the sub-stack item counts.
    ///
    /// Inherently approximate under concurrency (counts are read one
    /// sub-stack at a time), exact when quiescent.
    pub fn len(&self) -> usize {
        let guard = epoch::pin();
        self.subs.iter().map(|s| s.view(&guard).count()).sum()
    }

    /// Whether every sub-stack is empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        let guard = epoch::pin();
        self.subs.iter().all(|s| s.view(&guard).is_empty())
    }

    /// Item counts per sub-stack — the *load profile* used by the quality
    /// experiments to show how the window keeps sub-stacks balanced.
    pub fn load_profile(&self) -> Vec<usize> {
        let guard = epoch::pin();
        self.subs.iter().map(|s| s.view(&guard).count()).collect()
    }

    /// Pushes through an ephemeral handle (no locality). Prefer
    /// [`Stack2D::handle`] on hot paths.
    pub fn push(&self, value: T) {
        self.handle().push(value);
    }

    /// Pops through an ephemeral handle (no locality). Prefer
    /// [`Stack2D::handle`] on hot paths.
    pub fn pop(&self) -> Option<T> {
        self.handle().pop()
    }
}

impl<T> fmt::Debug for Stack2D<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack2D")
            .field("window", &self.window())
            .field("global", &self.global())
            .field("len", &self.len())
            .finish()
    }
}

/// Per-thread access handle to a [`Stack2D`].
///
/// Carries the paper's thread-local state: the index of the sub-stack the
/// thread last succeeded on (exploited for locality) and the RNG driving
/// random hops. Not `Sync`; create one handle per thread.
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Stack2D};
///
/// let stack: Stack2D<u32> = Stack2D::new(Params::default());
/// std::thread::scope(|s| {
///     for _ in 0..2 {
///         s.spawn(|| {
///             let mut h = stack.handle();
///             for i in 0..100 {
///                 h.push(i);
///             }
///             for _ in 0..100 {
///                 h.pop();
///             }
///         });
///     }
/// });
/// ```
pub struct Handle2D<'s, T> {
    stack: &'s Stack2D<T>,
    last: usize,
    ops: OpState<'s>,
}

impl<'s, T> Handle2D<'s, T> {
    /// The stack this handle operates on.
    #[inline]
    pub fn stack(&self) -> &'s Stack2D<T> {
        self.stack
    }

    /// Index of the sub-stack of the last successful operation.
    #[inline]
    pub fn last_substack(&self) -> usize {
        self.last
    }

    /// Pushes `value` onto the stack. Lock-free: a thread only retries when
    /// another thread made progress (won a CAS, shifted the window, or
    /// retuned it).
    pub fn push(&mut self, value: T) {
        let s = self.stack;
        let mut side = PushSide::new(&s.subs, value, Vec::new().into_iter());
        self.ops.drive(s.search(), &mut side, 1, false, &mut self.last, |()| {});
    }

    /// Pushes every value in `values`, amortizing the window search: after
    /// one search round wins a sub-stack, up to `depth` items are pushed
    /// onto that same sub-stack (each re-validated against the live
    /// `Global`) before searching again. Observably equivalent to pushing
    /// the values one by one — a batch never places more items on one
    /// sub-stack than the window already permits, so Theorem 1's bound is
    /// untouched (see DESIGN.md §14).
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Stack2D};
    ///
    /// let stack = Stack2D::new(Params::default());
    /// stack.handle().push_n((0..100).collect());
    /// assert_eq!(stack.len(), 100);
    /// ```
    pub fn push_n(&mut self, values: Vec<T>) {
        let n = values.len();
        let mut rest = values.into_iter();
        let Some(first) = rest.next() else { return };
        let s = self.stack;
        let mut side = PushSide::new(&s.subs, first, rest);
        self.ops.drive(s.search(), &mut side, n, true, &mut self.last, |()| {});
    }

    /// Pops an item; `None` when a covering sweep observed every sub-stack
    /// empty. The returned item is within `k` positions of the top of the
    /// corresponding strict stack ([`Params::k_bound`]).
    pub fn pop(&mut self) -> Option<T> {
        let s = self.stack;
        let mut out = None;
        self.ops.drive(s.search(), &mut PopSide { subs: &s.subs }, 1, false, &mut self.last, |v| {
            out = Some(v);
        });
        out
    }

    /// Pops up to `max` items, amortizing the window search: after one
    /// search round wins a sub-stack, up to `depth` items are drained from
    /// that same sub-stack (each re-validated against the live `Global`)
    /// before searching again. Returns short when a covering sweep
    /// observes every sub-stack empty. The returned multiset is exactly
    /// what `max` sequential [`pop`](Handle2D::pop)s would have returned,
    /// and every item is within the same Theorem 1 bound.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Stack2D};
    ///
    /// let stack = Stack2D::new(Params::default());
    /// stack.handle().push_n((0..10).collect());
    /// let items = stack.handle().pop_n(64);
    /// assert_eq!(items.len(), 10);
    /// ```
    pub fn pop_n(&mut self, max: usize) -> Vec<T> {
        let s = self.stack;
        let mut out = Vec::with_capacity(max);
        self.ops.drive(
            s.search(),
            &mut PopSide { subs: &s.subs },
            max,
            true,
            &mut self.last,
            |v| {
                out.push(v);
            },
        );
        out
    }
}

impl<T> fmt::Debug for Handle2D<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handle2D").field("last", &self.last).finish()
    }
}

/// Draining iterator returned by [`Stack2D::drain`]; pops until the stack
/// is observed empty.
///
/// Items arrive in the stack's relaxed LIFO order. Dropping the iterator
/// early leaves the remaining items in place.
pub struct Drain<'s, T> {
    handle: Handle2D<'s, T>,
}

impl<T> Iterator for Drain<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.handle.pop()
    }
}

impl<T> fmt::Debug for Drain<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Drain").finish_non_exhaustive()
    }
}

impl<T> Stack2D<T> {
    /// Returns an iterator that pops items until the stack is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Stack2D};
    ///
    /// let stack = Stack2D::new(Params::default());
    /// stack.push(1);
    /// stack.push(2);
    /// let mut items: Vec<i32> = stack.drain().collect();
    /// items.sort();
    /// assert_eq!(items, vec![1, 2]);
    /// assert!(stack.is_empty());
    /// ```
    pub fn drain(&self) -> Drain<'_, T> {
        Drain { handle: self.handle() }
    }
}

impl<T: Send> Extend<T> for Stack2D<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let mut h = self.handle();
        for item in iter {
            h.push(item);
        }
    }
}

impl<T: Send> FromIterator<T> for Stack2D<T> {
    /// Collects into a stack with [`Params::default`]; use
    /// [`Stack2D::new`] + [`Extend`] to control parameters.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut stack = Stack2D::new(Params::default());
        stack.extend(iter);
        stack
    }
}

impl<T: Send> RelaxedOps<T> for Stack2D<T> {
    type Handle<'a>
        = Handle2D<'a, T>
    where
        T: 'a;

    fn ops_handle(&self) -> Self::Handle<'_> {
        Stack2D::handle(self)
    }

    fn ops_handle_seeded(&self, seed: u64) -> Self::Handle<'_> {
        Stack2D::handle_seeded(self, seed)
    }

    fn name(&self) -> &'static str {
        "2D-stack"
    }

    fn relaxation_bound(&self) -> Option<usize> {
        Some(ElasticTarget::reported_bound(self))
    }
}

impl<T: Send> OpsHandle<T> for Handle2D<'_, T> {
    fn produce(&mut self, value: T) {
        Handle2D::push(self, value);
    }

    fn consume(&mut self) -> Option<T> {
        Handle2D::pop(self)
    }

    fn produce_n(&mut self, values: Vec<T>) {
        Handle2D::push_n(self, values);
    }

    fn consume_n(&mut self, max: usize) -> Vec<T> {
        Handle2D::pop_n(self, max)
    }
}

impl<T: Send> ElasticTarget for Stack2D<T> {
    fn window(&self) -> WindowInfo {
        Stack2D::window(self)
    }

    fn capacity(&self) -> usize {
        Stack2D::capacity(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        Stack2D::metrics(self)
    }

    fn retune(&self, params: Params) -> Result<WindowInfo, RetuneError> {
        Stack2D::retune(self, params)
    }

    fn try_commit_shrink(&self) -> Option<WindowInfo> {
        Stack2D::try_commit_shrink(self)
    }

    fn is_elastic(&self) -> bool {
        Stack2D::is_elastic(self)
    }

    fn k_bound_instantaneous(&self) -> usize {
        Stack2D::k_bound_instantaneous(self)
    }

    fn target_name(&self) -> &'static str {
        "2d-stack"
    }

    fn recorder(&self) -> Option<&dyn Recorder> {
        Stack2D::recorder(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchPolicy;
    use crate::sync::atomic::AtomicBool;
    use crate::sync::Arc;
    use std::collections::HashSet;

    fn params(w: usize, d: usize, s: usize) -> Params {
        Params::new(w, d, s).unwrap()
    }

    #[test]
    fn empty_pop_returns_none() {
        let stack: Stack2D<u32> = Stack2D::new(params(4, 2, 1));
        assert_eq!(stack.pop(), None);
        assert!(stack.is_empty());
        assert_eq!(stack.len(), 0);
    }

    #[test]
    fn push_then_pop_single_item() {
        let stack = Stack2D::new(params(4, 2, 1));
        stack.push(99);
        assert_eq!(stack.len(), 1);
        assert_eq!(stack.pop(), Some(99));
        assert_eq!(stack.pop(), None);
    }

    #[test]
    fn width_one_is_a_strict_stack() {
        let stack = Stack2D::new(params(1, 1, 1));
        assert_eq!(stack.k_bound(), 0);
        let mut h = stack.handle_seeded(7);
        for i in 0..1000 {
            h.push(i);
        }
        for i in (0..1000).rev() {
            assert_eq!(h.pop(), Some(i), "width=1 must be strictly LIFO");
        }
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn all_items_recovered_sequentially() {
        let stack = Stack2D::new(params(8, 4, 2));
        let mut h = stack.handle_seeded(3);
        let n = 10_000;
        for i in 0..n {
            h.push(i);
        }
        assert_eq!(stack.len(), n);
        let mut seen = HashSet::new();
        while let Some(v) = h.pop() {
            assert!(seen.insert(v), "duplicate item {v}");
        }
        assert_eq!(seen.len(), n, "all items must come back exactly once");
        assert!(stack.is_empty());
    }

    #[test]
    fn global_rises_under_push_pressure() {
        let p = params(2, 1, 1);
        let stack = Stack2D::new(p);
        let before = stack.global();
        let mut h = stack.handle_seeded(1);
        // 2 sub-stacks, depth 1: pushing 10 items forces repeated window
        // raises.
        for i in 0..10 {
            h.push(i);
        }
        assert!(
            stack.global() > before,
            "global must rise: before={before} after={}",
            stack.global()
        );
        // Counts never exceed Global (the window's defining invariant holds
        // quiescently).
        for c in stack.load_profile() {
            assert!(c <= stack.global());
        }
    }

    #[test]
    fn global_falls_back_under_pop_pressure() {
        let stack = Stack2D::new(params(2, 1, 1));
        let mut h = stack.handle_seeded(1);
        for i in 0..64 {
            h.push(i);
        }
        let high = stack.global();
        while h.pop().is_some() {}
        let low = stack.global();
        assert!(low < high, "global must fall while draining: {high} -> {low}");
        assert_eq!(low, stack.params().depth(), "drained stack window rests at depth");
    }

    #[test]
    fn load_profile_is_window_balanced_after_bulk_push() {
        let p = params(8, 4, 4);
        let stack = Stack2D::new(p);
        let mut h = stack.handle_seeded(5);
        for i in 0..8 * 100 {
            h.push(i);
        }
        let profile = stack.load_profile();
        let max = *profile.iter().max().unwrap();
        let min = *profile.iter().min().unwrap();
        // The window bounds the spread between sub-stacks by depth + shift.
        assert!(max - min <= p.depth() + p.shift(), "window failed to balance: {profile:?}");
    }

    #[test]
    fn ephemeral_push_pop_work() {
        let stack = Stack2D::new(params(4, 1, 1));
        for i in 0..32 {
            stack.push(i);
        }
        let mut got = Vec::new();
        while let Some(v) = stack.pop() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 5_000;
        let stack = Arc::new(Stack2D::new(params(8, 2, 1)));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let stack = Arc::clone(&stack);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = stack.handle_seeded(t as u64 + 1);
                let mut popped = Vec::new();
                for i in 0..PER_THREAD {
                    h.push((t * PER_THREAD + i) as u64);
                    if i % 2 == 1 {
                        if let Some(v) = h.pop() {
                            popped.push(v);
                        }
                    }
                }
                popped
            }));
        }
        let mut all: Vec<u64> = Vec::new();
        for j in joins {
            all.extend(j.join().unwrap());
        }
        // Drain the rest.
        let mut h = stack.handle_seeded(999);
        while let Some(v) = h.pop() {
            all.push(v);
        }
        all.sort_unstable();
        let expect: Vec<u64> = (0..(THREADS * PER_THREAD) as u64).collect();
        assert_eq!(all, expect, "no item may be lost or duplicated");
    }

    #[test]
    fn concurrent_mixed_handles_and_policies() {
        let cfg = SearchConfig::new(params(4, 3, 2))
            .search_policy(SearchPolicy::TwoPhase { random_hops: 2 });
        let stack = Arc::new(Stack2D::with_config(cfg));
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        for t in 0..3 {
            let stack = Arc::clone(&stack);
            let stop = Arc::clone(&stop);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = stack.handle_seeded(t + 10);
                let mut balance = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    h.push(1u8);
                    balance += 1;
                    if h.pop().is_some() {
                        balance -= 1;
                    }
                }
                balance
            }));
        }
        crate::sync::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        let pushed_minus_popped: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        let mut h = stack.handle_seeded(0);
        let mut remaining = 0i64;
        while h.pop().is_some() {
            remaining += 1;
        }
        assert_eq!(remaining, pushed_minus_popped);
    }

    #[test]
    fn round_robin_only_policy_is_functional() {
        let cfg = SearchConfig::new(params(4, 1, 1)).search_policy(SearchPolicy::RoundRobinOnly);
        let stack = Stack2D::with_config(cfg);
        let mut h = stack.handle_seeded(2);
        for i in 0..100 {
            h.push(i);
        }
        let mut n = 0;
        while h.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn random_only_policy_is_functional() {
        let cfg = SearchConfig::new(params(4, 2, 1)).search_policy(SearchPolicy::RandomOnly);
        let stack = Stack2D::with_config(cfg);
        let mut h = stack.handle_seeded(2);
        for i in 0..100 {
            h.push(i);
        }
        let mut n = 0;
        while h.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn no_locality_config_is_functional() {
        let cfg = SearchConfig::new(params(4, 2, 1)).locality(false).hop_on_contention(false);
        let stack = Stack2D::with_config(cfg);
        let mut h = stack.handle_seeded(4);
        for i in 0..200 {
            h.push(i);
        }
        let mut seen = HashSet::new();
        while let Some(v) = h.pop() {
            seen.insert(v);
        }
        assert_eq!(seen.len(), 200);
    }

    #[test]
    fn handle_tracks_last_successful_substack() {
        let stack = Stack2D::new(params(4, 8, 1));
        let mut h = stack.handle_seeded(11);
        h.push(1);
        let after_push = h.last_substack();
        assert!(after_push < 4);
        // Depth 8 leaves room on the same sub-stack; locality keeps us there.
        h.push(2);
        assert_eq!(h.last_substack(), after_push, "locality should reuse the sub-stack");
    }

    #[test]
    fn drop_releases_resident_items() {
        use crate::sync::atomic::AtomicUsize;
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let stack = Stack2D::new(params(4, 2, 1));
            let mut h = stack.handle_seeded(1);
            for _ in 0..50 {
                h.push(Canary(drops.clone()));
            }
            for _ in 0..20 {
                drop(h.pop());
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn drain_empties_the_stack() {
        let stack = Stack2D::new(params(4, 2, 1));
        for i in 0..100 {
            stack.push(i);
        }
        let mut got: Vec<i32> = stack.drain().collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(stack.is_empty());
    }

    #[test]
    fn drain_can_be_abandoned() {
        let stack = Stack2D::new(params(4, 2, 1));
        for i in 0..10 {
            stack.push(i);
        }
        {
            let mut d = stack.drain();
            let _ = d.next();
            let _ = d.next();
        }
        assert_eq!(stack.len(), 8, "abandoned drain leaves the rest resident");
    }

    #[test]
    fn extend_and_from_iterator() {
        let mut stack: Stack2D<u32> = (0..50).collect();
        assert_eq!(stack.len(), 50);
        stack.extend(50..60);
        assert_eq!(stack.len(), 60);
        let mut got: Vec<u32> = stack.drain().collect();
        got.sort_unstable();
        assert_eq!(got, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn metrics_track_window_shifts() {
        let stack = Stack2D::new(params(2, 1, 1));
        let mut h = stack.handle_seeded(1);
        for i in 0..20 {
            h.push(i);
        }
        let m = stack.metrics();
        assert_eq!(m.ops, 20);
        // 2 sub-stacks × depth 1 = 2 items per window level; 20 pushes
        // require at least 9 raises.
        assert!(m.shifts_up >= 9, "expected many raises, got {m}");
        assert!(m.probes >= 20, "every op probes at least once");
        while h.pop().is_some() {}
        let m = stack.metrics();
        assert!(m.shifts_down > 0, "draining must lower the window: {m}");
        assert!(m.empty_pops >= 1, "the final pop observed empty");
    }

    #[test]
    fn metrics_reset_clears_counters() {
        let stack = Stack2D::new(params(2, 1, 1));
        stack.push(1);
        assert!(stack.metrics().ops > 0);
        stack.reset_metrics();
        assert_eq!(stack.metrics().ops, 0);
        assert_eq!(stack.metrics().probes, 0);
    }

    #[test]
    fn metrics_accumulate_under_concurrency() {
        let stack = Arc::new(Stack2D::new(params(4, 2, 1)));
        let mut joins = Vec::new();
        for t in 0..4 {
            let stack = Arc::clone(&stack);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = stack.handle_seeded(t);
                for i in 0..1_000 {
                    h.push(i);
                    h.pop();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let m = stack.metrics();
        assert_eq!(m.ops, 4 * 2 * 1_000);
        assert!(m.probes >= m.ops, "at least one probe per op: {m}");
    }

    #[test]
    fn debug_formats_are_nonempty() {
        let stack: Stack2D<u8> = Stack2D::new(params(2, 1, 1));
        assert!(!format!("{stack:?}").is_empty());
        let h = stack.handle();
        assert!(!format!("{h:?}").is_empty());
    }

    /// Drives `try_commit_shrink` until it lands (each quiescent call
    /// advances the epoch at most one step, so a few rounds are needed).
    fn commit_shrink_eventually<T>(stack: &Stack2D<T>) -> crate::window::WindowInfo {
        crate::window::retry_until(|| stack.try_commit_shrink())
            .expect("shrink failed to commit on a quiescent stack")
    }

    #[test]
    fn elastic_grow_takes_effect_immediately() {
        let stack: Stack2D<u64> =
            Stack2D::builder().params(params(1, 1, 1)).elastic_capacity(8).build().unwrap();
        assert_eq!(stack.capacity(), 8);
        assert_eq!(stack.window().width(), 1);
        assert_eq!(stack.k_bound(), 0);
        let info = stack.retune(params(8, 1, 1)).unwrap();
        assert_eq!(info.width(), 8);
        assert_eq!(info.generation(), 1);
        assert!(!info.pending_shrink());
        let mut h = stack.handle_seeded(3);
        for i in 0..800 {
            h.push(i);
        }
        // The widened span is actually used: more than one sub-stack holds
        // items.
        let occupied = stack.load_profile().iter().filter(|&&c| c > 0).count();
        assert!(occupied > 1, "grow did not spread load: {:?}", stack.load_profile());
    }

    #[test]
    fn shrink_is_pending_until_tail_drains_then_commits() {
        let stack: Stack2D<u64> =
            Stack2D::builder().params(params(8, 1, 1)).elastic_capacity(8).build().unwrap();
        let mut h = stack.handle_seeded(9);
        for i in 0..200 {
            h.push(i);
        }
        let info = stack.retune(params(2, 1, 1)).unwrap();
        assert!(info.pending_shrink(), "items in the tail: shrink must be pending");
        assert_eq!(info.width(), 2);
        assert_eq!(info.pop_width(), 8);
        // The bound stays at the wide value while pops still cover 8
        // sub-stacks.
        assert_eq!(info.k_bound(), params(8, 1, 1).k_bound());
        // Every item is still reachable.
        let mut seen = HashSet::new();
        while let Some(v) = h.pop() {
            assert!(seen.insert(v), "duplicate {v}");
        }
        assert_eq!(seen.len(), 200, "no item may be stranded by a shrink");
        let committed = commit_shrink_eventually(&stack);
        assert_eq!(committed.pop_width(), 2);
        assert!(!committed.pending_shrink());
        assert_eq!(stack.k_bound(), params(2, 1, 1).k_bound());
    }

    #[test]
    fn commit_shrink_refuses_while_tail_nonempty() {
        let stack: Stack2D<u64> =
            Stack2D::builder().params(params(4, 1, 1)).elastic_capacity(4).build().unwrap();
        let mut h = stack.handle_seeded(5);
        for i in 0..40 {
            h.push(i);
        }
        stack.retune(params(1, 1, 1)).unwrap();
        // Items are resident beyond the shrunk width; the commit must not
        // land no matter how often it is attempted.
        for _ in 0..64 {
            assert!(stack.try_commit_shrink().is_none());
        }
        assert!(stack.window().pending_shrink());
    }

    #[test]
    fn instantaneous_bound_counts_residency() {
        let stack: Stack2D<u64> =
            Stack2D::builder().params(params(1, 1, 1)).elastic_capacity(8).build().unwrap();
        assert_eq!(stack.k_bound_instantaneous(), 0, "width 1 is strict");
        let mut h = stack.handle_seeded(7);
        for i in 0..100 {
            h.push(i);
        }
        // Grow: the configured bound jumps to the wide formula, and the
        // instantaneous bound covers the 100 resident items that now face
        // 7 fresh siblings.
        stack.retune(params(8, 1, 1)).unwrap();
        let inst = stack.k_bound_instantaneous();
        assert!(inst >= 7 * 100, "transient must cover resident items, got {inst}");
        // Draining tightens the live bound back toward the configured one:
        // empty stack => (pop_width - 1) * (0 + depth) = 7.
        while h.pop().is_some() {}
        assert_eq!(stack.k_bound_instantaneous(), 7);
    }

    #[test]
    fn retune_noop_does_not_bump_generation() {
        let stack: Stack2D<u8> = Stack2D::new(params(4, 2, 1));
        let g0 = stack.window().generation();
        let info = stack.retune(params(4, 2, 1)).unwrap();
        assert_eq!(info.generation(), g0);
        // Depth-only changes do bump.
        let info = stack.retune(params(4, 3, 1)).unwrap();
        assert_eq!(info.generation(), g0 + 1);
        assert_eq!(info.depth(), 3);
    }

    #[test]
    fn retune_counts_in_metrics() {
        let stack: Stack2D<u8> =
            Stack2D::builder().params(params(2, 1, 1)).elastic_capacity(4).build().unwrap();
        assert_eq!(stack.metrics().retunes, 0);
        stack.retune(params(4, 1, 1)).unwrap();
        stack.retune(params(4, 2, 2)).unwrap();
        assert_eq!(stack.metrics().retunes, 2);
    }

    #[test]
    fn sequential_handles_reuse_one_counter_block() {
        let stack: Stack2D<u32> = Stack2D::new(params(2, 2, 1));
        for i in 0..1_000 {
            let mut h = stack.handle();
            h.push(i);
            assert_eq!(h.pop(), Some(i));
        }
        assert_eq!(stack.counters.block_count(), 1, "each handle took the parked block");
        assert_eq!(stack.metrics().ops, 2_000);
    }

    #[test]
    fn fixed_width_stack_rejects_wider_retune() {
        let stack: Stack2D<u8> = Stack2D::new(params(4, 1, 1));
        assert_eq!(
            stack.retune(params(5, 1, 1)).unwrap_err(),
            crate::window::RetuneError::ExceedsCapacity { requested: 5, capacity: 4 }
        );
        // Depth retunes within capacity are fine on a fixed-width stack.
        assert!(stack.retune(params(4, 4, 2)).is_ok());
    }

    #[test]
    fn depth_grow_with_low_global_stays_live() {
        // After a depth-growing retune Global may sit below the new depth;
        // pushes and pops must keep making progress.
        let stack: Stack2D<u64> = Stack2D::new(params(4, 1, 1));
        let mut h = stack.handle_seeded(2);
        for i in 0..16 {
            h.push(i);
        }
        while h.pop().is_some() {}
        assert_eq!(stack.global(), 1);
        stack.retune(params(4, 8, 4)).unwrap();
        for i in 0..100 {
            h.push(i);
        }
        let mut n = 0;
        while h.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn concurrent_churn_across_retunes_conserves_items() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 3_000;
        let stack = Arc::new(
            Stack2D::builder().params(params(2, 1, 1)).elastic_capacity(16).build().unwrap(),
        );
        let schedule =
            [params(16, 1, 1), params(4, 2, 2), params(1, 1, 1), params(8, 4, 1), params(2, 1, 1)];
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let stack = Arc::clone(&stack);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = stack.handle_seeded(t as u64 + 1);
                let mut popped = Vec::new();
                for i in 0..PER_THREAD {
                    h.push((t * PER_THREAD + i) as u64);
                    if i % 2 == 1 {
                        if let Some(v) = h.pop() {
                            popped.push(v);
                        }
                    }
                }
                popped
            }));
        }
        // Retune aggressively while the workers churn.
        for _ in 0..40 {
            for p in schedule {
                stack.retune(p).unwrap();
                stack.try_commit_shrink();
                crate::sync::thread::yield_now();
            }
        }
        let mut all: Vec<u64> = Vec::new();
        for j in joins {
            all.extend(j.join().unwrap());
        }
        let mut h = stack.handle_seeded(999);
        while let Some(v) = h.pop() {
            all.push(v);
        }
        all.sort_unstable();
        let expect: Vec<u64> = (0..(THREADS * PER_THREAD) as u64).collect();
        assert_eq!(all, expect, "retunes must not lose or duplicate items");
    }

    #[test]
    fn trait_object_style_generic_use() {
        fn run<S: RelaxedOps<u64>>(s: &S) -> usize {
            let mut h = s.ops_handle();
            for i in 0..64 {
                h.produce(i);
            }
            let mut n = 0;
            while h.consume().is_some() {
                n += 1;
            }
            n
        }
        let stack = Stack2D::new(params(4, 2, 2));
        assert_eq!(run(&stack), 64);
        assert_eq!(RelaxedOps::<u64>::name(&stack), "2D-stack");
        assert_eq!(RelaxedOps::<u64>::relaxation_bound(&stack), Some(stack.k_bound()));
    }
}
