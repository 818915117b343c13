//! 2D-Queue — the paper's stated future work (§5), included as an extension.
//!
//! *"As future work, we are working towards generalizing our design to work
//! for other concurrent data structures."* This module carries the window
//! idea over to a FIFO queue, following the shape the same authors later
//! published for the general 2D framework: `width` Michael–Scott sub-queues,
//! a **put window** over per-sub-queue enqueue counts and a **get window**
//! over dequeue counts. Both windows only ever move forward (counts are
//! monotone), so the two `Global` counters only increase.
//!
//! An enqueue is valid on a sub-queue iff its enqueue count is below the put
//! window's edge; a dequeue iff its dequeue count is below the get window's
//! edge *and* the sub-queue is non-empty. When a covering sweep finds no
//! valid sub-queue the thread shifts the corresponding window by `shift`.
//! This bounds how far any two sub-queues can run apart, which in turn
//! bounds the out-of-order distance of dequeues by
//! `k = (2*shift + depth)*(width-1)`, mirroring Theorem 1.
//!
//! Unlike the stack, the sub-queue operation counters live in separate
//! atomics (an MS queue has two mutation points, head and tail, so a single
//! descriptor cannot cover both). Counters are bumped *after* a successful
//! operation, so a count may lag the structure by in-flight operations; the
//! window bound then holds up to one in-flight operation per thread, the
//! same slack the full 2D-framework analysis accounts for. This module is an
//! extension prototype and is not part of the paper's evaluation.
//!
//! # Elasticity
//!
//! Since PR 3 the queue shares the stack's elastic machinery
//! (`ElasticWindow`): the sub-queue array is pre-sized at a capacity
//! ([`Builder::elastic_capacity`](crate::Builder::elastic_capacity)) and
//! [`Queue2D::retune`] hot-swaps **two** descriptors, one per window. Two
//! are required because the put and get windows retire sub-queues at
//! different times: a width shrink stops *enqueues* into the tail
//! immediately (put descriptor, swung symmetrically), while *dequeues*
//! must keep covering the tail until the epoch fence proves every
//! pre-shrink enqueue finished and a sweep finds the tail drained (get
//! descriptor, high-water rule + [`Queue2D::try_commit_shrink`]). See
//! DESIGN.md §7.
//!
//! # Search policy
//!
//! Both ends search through the unified engine (`engine.rs`), so the full
//! [`SearchConfig`] surface — [`SearchPolicy`], locality,
//! hop-on-contention — applies to the queue exactly as to the stack. The
//! *default* remains the queue's historical plain covering sweep
//! ([`SearchPolicy::RoundRobinOnly`], probe counts pinned by regression
//! tests); the paper's two-phase policy is one
//! [`Builder::search_policy`](crate::Builder::search_policy) call away.

use crate::sync::atomic::{AtomicUsize, Ordering};
use core::fmt;
use core::mem::MaybeUninit;
use core::ptr;

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Pointer, Shared};
use crossbeam_utils::CachePadded;

use crate::builder::Builder;
use crate::engine::{OpState, Probe, ProbeTarget, Search};
use crate::metrics::{CounterHub, MetricsSnapshot};
use crate::params::Params;
use crate::pool;
use crate::rng::{HandleSeeder, HopRng};
use crate::search::{SearchConfig, SearchPolicy};
use crate::sync::Arc;
use crate::telemetry::{OpKind, Recorder, ShrinkPhase, TelemetryHook};
use crate::traits::{ElasticTarget, OpsHandle, RelaxedOps};
use crate::window::{ElasticWindow, RetuneError, WindowDesc, WindowInfo};

struct QNode<T> {
    value: MaybeUninit<T>,
    next: Atomic<QNode<T>>,
}

/// The dequeue end of a sub-queue: the MS head pointer plus the monotone
/// count of completed dequeues — everything a `dequeue` mutates.
struct GetLane<T> {
    head: Atomic<QNode<T>>,
    deq: AtomicUsize,
}

/// The enqueue end: the MS tail pointer plus the monotone count of
/// completed enqueues — everything an `enqueue` mutates.
struct PutLane<T> {
    tail: Atomic<QNode<T>>,
    enq: AtomicUsize,
}

/// One Michael–Scott lock-free FIFO sub-queue with operation counters.
///
/// The two mutation ends live in separate cache-line-padded lanes: an MS
/// queue's head and tail are written by disjoint operation kinds, so
/// co-locating them would make every enqueue invalidate every dequeuer's
/// cached line (and vice versa) even on different sub-queues of the same
/// item flow. See DESIGN.md §14 for the padding map.
struct SubQueue<T> {
    get: CachePadded<GetLane<T>>,
    put: CachePadded<PutLane<T>>,
}

// SAFETY: the queue owns its nodes and transfers values across threads only
// by moving them out, so `T: Send` is the full requirement (the raw pointers
// inside the MS-queue nodes are what suppress the auto-impl).
unsafe impl<T: Send> Send for SubQueue<T> {}
// SAFETY: as above — shared access is mediated by the head/tail CASes.
unsafe impl<T: Send> Sync for SubQueue<T> {}

impl<T> SubQueue<T> {
    fn new() -> Self {
        let dummy = alloc_qnode(MaybeUninit::uninit());
        // SAFETY: construction is single-threaded — nothing else can touch
        // the queue yet, satisfying the unprotected guard's exclusivity.
        let guard = unsafe { epoch::unprotected() };
        let dummy = dummy.into_shared(guard);
        SubQueue {
            get: CachePadded::new(GetLane { head: Atomic::from(dummy), deq: AtomicUsize::new(0) }),
            put: CachePadded::new(PutLane { tail: Atomic::from(dummy), enq: AtomicUsize::new(0) }),
        }
    }

    /// Single MS enqueue attempt; helps a lagging tail before reporting
    /// contention so the window search can hop.
    fn try_enqueue(&self, node: Owned<QNode<T>>, guard: &Guard) -> Result<(), Owned<QNode<T>>> {
        let node = node.into_shared(guard);
        let tail = self.put.tail.load(Ordering::Acquire, guard);
        // SAFETY: tail is never null (a dummy node exists from construction)
        // and the epoch guard keeps the loaded node alive.
        let t = unsafe { tail.deref() };
        let next = t.next.load(Ordering::Acquire, guard);
        if !next.is_null() {
            // Tail lagging: help swing it, then report contention.
            let _ = self.put.tail.compare_exchange(
                tail,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            );
            // SAFETY: the node was never linked, so we still own it
            // exclusively.
            return Err(unsafe { node.into_owned() });
        }
        match t.next.compare_exchange(
            Shared::null(),
            node,
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        ) {
            Ok(_) => {
                let _ = self.put.tail.compare_exchange(
                    tail,
                    node,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    guard,
                );
                self.put.enq.fetch_add(1, Ordering::AcqRel);
                Ok(())
            }
            // SAFETY: the failed CAS did not install the node, so we still
            // own it exclusively.
            Err(_) => Err(unsafe { node.into_owned() }),
        }
    }

    /// Single dequeue attempt. `Ok(None)` = observed empty, `Err(())` =
    /// lost a race.
    fn try_dequeue(&self, guard: &Guard) -> Result<Option<T>, ()> {
        let head = self.get.head.load(Ordering::Acquire, guard);
        // SAFETY: head is never null (dummy node) and the epoch guard keeps
        // the loaded node alive.
        let h = unsafe { head.deref() };
        let next = h.next.load(Ordering::Acquire, guard);
        if next.is_null() {
            return Ok(None);
        }
        match self.get.head.compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire, guard)
        {
            Ok(_) => {
                // SAFETY: winning the head CAS makes `next` the new dummy
                // and grants us the unique right to move its value out; the
                // value slot is `MaybeUninit`, so the node's later
                // deallocation cannot double-drop it. `next` stays alive
                // under the guard.
                let value = unsafe { ptr::read(next.deref().value.as_ptr()) };
                // SAFETY: the old dummy was unlinked by our CAS; only the
                // winner retires it, exactly once. Its value slot is
                // uninitialized (moved out or never set), so recycling the
                // storage without running drop glue is complete
                // reclamation, and every node originates from
                // `Box::into_raw` as `pool::recycle` requires.
                unsafe { guard.defer_destroy_with(head, pool::recycle::<QNode<T>>) };
                self.get.deq.fetch_add(1, Ordering::AcqRel);
                Ok(Some(value))
            }
            Err(_) => Err(()),
        }
    }

    fn is_empty(&self, guard: &Guard) -> bool {
        let head = self.get.head.load(Ordering::Acquire, guard);
        // SAFETY: head is never null (dummy node) and the epoch guard keeps
        // the loaded node alive.
        unsafe { head.deref() }.next.load(Ordering::Acquire, guard).is_null()
    }

    /// Resident items by the counters (enqueues minus dequeues).
    fn residency(&self) -> usize {
        self.put.enq.load(Ordering::Acquire).saturating_sub(self.get.deq.load(Ordering::Acquire))
    }
}

/// Stages a value into an MS-queue node drawn from the node pool.
#[inline]
fn alloc_qnode<T>(value: MaybeUninit<T>) -> Owned<QNode<T>> {
    let raw = pool::alloc(QNode { value, next: Atomic::null() });
    // SAFETY: the pool hands back a unique, properly initialized block that
    // originated from `Box::into_raw`, which is exactly `Owned`'s contract.
    unsafe { Owned::from_raw_ptr(raw) }
}

impl<T> Drop for SubQueue<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees exclusive access, so the
        // unprotected guard is sound; only non-dummy nodes hold initialized
        // values, and the loop below drops exactly those.
        unsafe {
            let guard = epoch::unprotected();
            let mut head = self.get.head.load(Ordering::Relaxed, guard);
            // The head node is a dummy: its value is uninitialized (either
            // from construction or already moved out by a dequeue).
            let mut first = true;
            while !head.is_null() {
                let node = head.into_owned();
                let next = node.next.load(Ordering::Relaxed, guard);
                if !first {
                    ptr::drop_in_place(node.into_box().value.as_mut_ptr());
                } else {
                    first = false;
                }
                head = next;
            }
        }
    }
}

/// A relaxed lock-free FIFO queue built from the 2D window design
/// (extension of the paper's future work).
///
/// Dequeues may return items up to `k = (2*shift + depth)*(width-1)`
/// positions out of FIFO order (up to per-thread in-flight slack; see the
/// module docs).
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Queue2D};
///
/// # fn main() -> Result<(), stack2d::ParamsError> {
/// let q = Queue2D::new(Params::new(2, 2, 1)?);
/// let mut h = q.handle();
/// h.enqueue(1);
/// h.enqueue(2);
/// let a = h.dequeue().unwrap();
/// let b = h.dequeue().unwrap();
/// assert_eq!({ let mut v = vec![a, b]; v.sort(); v }, vec![1, 2]);
/// assert_eq!(h.dequeue(), None);
/// # Ok(())
/// # }
/// ```
pub struct Queue2D<T> {
    /// Sub-queues, allocated once at capacity; enqueues target the put
    /// window's push span, dequeues cover the get window's pop span.
    subs: Box<[CachePadded<SubQueue<T>>]>,
    put_global: CachePadded<AtomicUsize>,
    get_global: CachePadded<AtomicUsize>,
    /// The put window: governs which sub-queues enqueues may target.
    put: ElasticWindow,
    /// The get window: governs which sub-queues dequeues cover, carries
    /// the pending-shrink state and the quality-governing generation.
    get: ElasticWindow,
    /// Serializes [`Queue2D::retune`]'s two descriptor swings: without
    /// it, two concurrent retunes could interleave and leave the put and
    /// get windows describing different widths for good — stranding
    /// enqueues outside the dequeue span once a shrink commits. Cold
    /// path only; enqueues/dequeues never take it.
    retune_lock: crate::sync::Mutex<()>,
    config: SearchConfig,
    counters: CounterHub,
    seeder: HandleSeeder,
    telemetry: TelemetryHook,
}

impl<T> Queue2D<T> {
    /// Starts a validated [`Builder`] — the preferred construction path.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Queue2D;
    ///
    /// let q: Queue2D<u64> = Queue2D::builder().for_bound(30).build().unwrap();
    /// assert!(q.k_bound() <= 30);
    /// ```
    pub fn builder() -> Builder<Self> {
        Builder::new()
    }

    /// Creates a 2D-Queue with the given window parameters, the default
    /// search behaviour (plain covering sweep) and no elastic headroom
    /// (capacity = width).
    pub fn new(params: Params) -> Self {
        Self::with_config(SearchConfig::new(params).search_policy(SearchPolicy::RoundRobinOnly))
    }

    /// Creates a 2D-Queue with explicit search-policy configuration (used
    /// by the ablation experiments; note that [`SearchConfig::new`]'s
    /// policy default is the *paper's* two-phase search, while
    /// [`Queue2D::new`] and the builder default to the queue's historical
    /// [`SearchPolicy::RoundRobinOnly`] sweep).
    pub fn with_config(config: SearchConfig) -> Self {
        Self::from_builder_parts(config, None)
    }

    pub(crate) fn from_builder_parts(config: SearchConfig, seed: Option<u64>) -> Self {
        let params = config.params();
        Queue2D {
            subs: (0..config.capacity()).map(|_| CachePadded::new(SubQueue::new())).collect(),
            put_global: CachePadded::new(AtomicUsize::new(params.initial_global())),
            get_global: CachePadded::new(AtomicUsize::new(params.initial_global())),
            put: ElasticWindow::new(params),
            get: ElasticWindow::new(params),
            retune_lock: crate::sync::Mutex::new(()),
            config,
            counters: CounterHub::default(),
            seeder: HandleSeeder::new(seed),
            telemetry: TelemetryHook::none(),
        }
    }

    pub(crate) fn attach_recorder_parts(&mut self, recorder: Arc<dyn Recorder>, sample_every: u32) {
        self.telemetry.attach(recorder, sample_every);
    }

    /// The attached telemetry sink, if any (see
    /// [`Builder::recorder`](crate::Builder::recorder)).
    #[inline]
    pub fn recorder(&self) -> Option<&dyn Recorder> {
        self.telemetry.recorder()
    }

    /// Whether this queue was built with elastic headroom (capacity beyond
    /// the initial width), i.e. is meant to be retuned online.
    #[inline]
    pub fn is_elastic(&self) -> bool {
        self.capacity() > self.config.params().width()
    }

    /// The construction-time configuration (search policy knobs and the
    /// *initial* window parameters; for the live parameters after retunes
    /// see [`Queue2D::window`]).
    #[inline]
    pub fn config(&self) -> SearchConfig {
        self.config
    }

    /// The put-side window parameters currently in force.
    #[inline]
    pub fn params(&self) -> Params {
        self.put.info().params()
    }

    /// Number of sub-queues allocated at construction — the ceiling for
    /// [`Queue2D::retune`]d widths.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.subs.len()
    }

    /// A consistent snapshot of the **get** window — the one that governs
    /// dequeue quality (its pop span and generation are what the
    /// per-generation checker segments by).
    pub fn window(&self) -> WindowInfo {
        self.get.info()
    }

    /// A consistent snapshot of the **put** window.
    pub fn put_window(&self) -> WindowInfo {
        self.put.info()
    }

    /// The k-out-of-order style bound carried over from Theorem 1, over
    /// the get window's pop span so it stays honest while a width shrink
    /// is pending (modulo in-flight counter slack; see the module docs).
    #[inline]
    pub fn k_bound(&self) -> usize {
        self.get.info().k_bound()
    }

    /// The *live* out-of-order bound, sound even across retune transients:
    /// `(pop_width - 1) * (max sub-queue residency + depth)`.
    ///
    /// A dequeue takes the oldest item of its sub-queue, so every resident
    /// item it overtakes sits in one of the *other* covered sub-queues —
    /// at most their residency, plus a `depth` margin for counter slack.
    /// Like [`Stack2D::k_bound_instantaneous`](crate::Stack2D::k_bound_instantaneous)
    /// this covers width-grow transients (freshly activated sub-queues
    /// soak up new items and let dequeues overtake the entire backlog)
    /// and converges back toward the configured bound as the queue drains.
    /// Counts are read one sub-queue at a time, so under unquiesced
    /// concurrency the value is advisory.
    pub fn k_bound_instantaneous(&self) -> usize {
        let guard = epoch::pin();
        let w = self.get.load(&guard);
        if w.pop_width <= 1 {
            return 0;
        }
        let max_residency =
            self.subs[..w.pop_width].iter().map(|s| s.residency()).max().unwrap_or(0);
        (w.pop_width - 1) * (max_residency + w.depth)
    }

    /// A snapshot of the queue's operation counters (probes, lost CASes,
    /// window shifts — see [`MetricsSnapshot`]). `shifts_up` counts put
    /// window shifts, `shifts_down` get window shifts (both globals only
    /// move forward; the up/down split keeps the per-side signal).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.counters.snapshot()
    }

    /// Resets the operation counters to zero (e.g. after a warm-up phase).
    pub fn reset_metrics(&self) {
        self.counters.reset();
    }

    /// Installs new window parameters on **both** windows, returning the
    /// get-window snapshot that took effect. Lock-free and non-blocking
    /// for concurrent enqueues/dequeues: they re-read the descriptors at
    /// every search round and never wait on a retune.
    ///
    /// The put window swings symmetrically (a width shrink stops enqueues
    /// into the retired tail immediately); the get window applies the
    /// high-water rule, keeping dequeues covering the tail until
    /// [`Queue2D::try_commit_shrink`] proves it drained. Concurrent
    /// retunes serialize on an internal mutex so the pair of swings is
    /// atomic with respect to other retunes (the operation hot paths
    /// stay lock-free).
    ///
    /// # Errors
    ///
    /// [`RetuneError::ExceedsCapacity`] if `params.width()` exceeds
    /// [`Queue2D::capacity`].
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Queue2D};
    ///
    /// let q: Queue2D<u32> = Queue2D::builder().params(Params::new(2, 1, 1).unwrap()).elastic_capacity(8).build().unwrap();
    /// let info = q.retune(Params::new(8, 2, 1).unwrap()).unwrap();
    /// assert_eq!(info.width(), 8);
    /// assert!(q.retune(Params::new(9, 1, 1).unwrap()).is_err());
    /// ```
    pub fn retune(&self, params: Params) -> Result<WindowInfo, RetuneError> {
        let capacity = self.subs.len();
        let _serialize = self.retune_lock.lock();
        let (_, put_swung) = self.put.retune_symmetric(params, capacity)?;
        let (info, get_swung) = self.get.retune(params, capacity)?;
        if put_swung || get_swung {
            // One logical retune, however many descriptors swung.
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

    /// Attempts to commit a pending width shrink of the get window: once
    /// the epoch fence proves every pre-shrink operation finished *and* a
    /// sweep observes the retired tail `[width, pop_width)` empty,
    /// dequeues stop covering the tail and the relaxation bound tightens.
    ///
    /// Returns the new get-window snapshot when the commit lands, `None`
    /// when there is nothing to commit or the preconditions do not hold
    /// yet (call again later — e.g. on the next controller tick).
    pub fn try_commit_shrink(&self) -> Option<WindowInfo> {
        let info = self
            .get
            .try_commit_shrink(|tail, guard| self.subs[tail].iter().all(|s| s.is_empty(guard)))?;
        self.counters.retuned();
        if let Some(r) = self.telemetry.recorder() {
            r.shrink_fence(ShrinkPhase::Committed, info);
        }
        Some(info)
    }

    /// Registers a per-thread handle.
    ///
    /// On a queue built with [`Builder::seed`](crate::Builder::seed) the
    /// handle RNG is drawn from the deterministic per-structure sequence;
    /// otherwise from thread entropy.
    pub fn handle(&self) -> QueueHandle<'_, T> {
        self.handle_with(self.seeder.rng())
    }

    /// Registers a handle with a deterministic RNG seed.
    pub fn handle_seeded(&self, seed: u64) -> QueueHandle<'_, T> {
        self.handle_with(HopRng::seeded(seed))
    }

    fn handle_with(&self, rng: HopRng) -> QueueHandle<'_, T> {
        let mut ops = OpState::new(&self.counters, &self.telemetry, rng);
        let last = ops.rng.bounded(self.subs.len());
        QueueHandle { queue: self, last_put: last, last_get: last, ops }
    }

    /// Current value of the put window's `Global` counter (diagnostic).
    #[inline]
    pub fn put_global(&self) -> usize {
        self.put_global.load(Ordering::SeqCst)
    }

    /// Current value of the get window's `Global` counter (diagnostic).
    #[inline]
    pub fn get_global(&self) -> usize {
        self.get_global.load(Ordering::SeqCst)
    }

    /// Approximate number of resident items (enqueues minus dequeues,
    /// summed over the whole capacity so pending-shrink tails count).
    pub fn len(&self) -> usize {
        let enq: usize = self.subs.iter().map(|s| s.put.enq.load(Ordering::Acquire)).sum();
        let deq: usize = self.subs.iter().map(|s| s.get.deq.load(Ordering::Acquire)).sum();
        enq.saturating_sub(deq)
    }

    /// Whether every sub-queue is empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        let guard = epoch::pin();
        self.subs.iter().all(|s| s.is_empty(&guard))
    }

    /// The search enqueues run over the put window.
    fn put_search(&self) -> Search<'_> {
        Search::new(&self.put, &self.put_global, &self.config)
    }

    /// The search dequeues run over the get window.
    fn get_search(&self) -> Search<'_> {
        Search::new(&self.get, &self.get_global, &self.config)
    }

    /// Enqueue through an ephemeral handle.
    pub fn enqueue(&self, value: T) {
        self.handle().enqueue(value);
    }

    /// Dequeue through an ephemeral handle.
    pub fn dequeue(&self) -> Option<T> {
        self.handle().dequeue()
    }
}

impl<T> fmt::Debug for Queue2D<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Queue2D")
            .field("put", &self.put_window())
            .field("get", &self.window())
            .field("len", &self.len())
            .finish()
    }
}

impl<T: Send> ElasticTarget for Queue2D<T> {
    fn window(&self) -> WindowInfo {
        Queue2D::window(self)
    }

    fn capacity(&self) -> usize {
        Queue2D::capacity(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        Queue2D::metrics(self)
    }

    fn retune(&self, params: Params) -> Result<WindowInfo, RetuneError> {
        Queue2D::retune(self, params)
    }

    fn try_commit_shrink(&self) -> Option<WindowInfo> {
        Queue2D::try_commit_shrink(self)
    }

    fn is_elastic(&self) -> bool {
        Queue2D::is_elastic(self)
    }

    fn k_bound_instantaneous(&self) -> usize {
        Queue2D::k_bound_instantaneous(self)
    }

    fn target_name(&self) -> &'static str {
        "2d-queue"
    }

    fn recorder(&self) -> Option<&dyn Recorder> {
        Queue2D::recorder(self)
    }
}

impl<T: Send> OpsHandle<T> for QueueHandle<'_, T> {
    fn produce(&mut self, value: T) {
        self.enqueue(value);
    }

    fn consume(&mut self) -> Option<T> {
        self.dequeue()
    }

    fn produce_n(&mut self, values: Vec<T>) {
        self.enqueue_n(values);
    }

    fn consume_n(&mut self, max: usize) -> Vec<T> {
        self.dequeue_n(max)
    }
}

impl<T: Send> RelaxedOps<T> for Queue2D<T> {
    type Handle<'a>
        = QueueHandle<'a, T>
    where
        T: 'a;

    fn ops_handle(&self) -> Self::Handle<'_> {
        self.handle()
    }

    fn ops_handle_seeded(&self, seed: u64) -> Self::Handle<'_> {
        self.handle_seeded(seed)
    }

    fn name(&self) -> &'static str {
        "2d-queue"
    }

    fn relaxation_bound(&self) -> Option<usize> {
        Some(ElasticTarget::reported_bound(self))
    }
}

/// The put end, as driven by the search engine: a sub-queue is
/// enqueue-valid iff its completed-enqueue count is below the put window's
/// edge.
struct PutEnd<'q, T> {
    subs: &'q [CachePadded<SubQueue<T>>],
    node: Option<Owned<QNode<T>>>,
    /// Remaining values of a batched enqueue, staged one at a time by
    /// [`ProbeTarget::reload`]. Empty for a singular enqueue.
    rest: std::vec::IntoIter<T>,
}

impl<'q, T> PutEnd<'q, T> {
    /// A put end staging `first`, then `rest` in order.
    fn new(subs: &'q [CachePadded<SubQueue<T>>], first: T, rest: std::vec::IntoIter<T>) -> Self {
        PutEnd { subs, node: Some(alloc_qnode(MaybeUninit::new(first))), rest }
    }
}

impl<T> ProbeTarget for PutEnd<'_, T> {
    type Output = ();
    const CONSUMES: bool = false;
    const OP: OpKind = OpKind::Enqueue;

    fn span(&self, w: &WindowDesc) -> usize {
        w.push_width
    }

    fn probe(&mut self, i: usize, _w: &WindowDesc, global: usize, guard: &Guard) -> Probe<()> {
        if self.subs[i].put.enq.load(Ordering::Acquire) < global {
            // archlint: allow(no-panic-in-hot-path) — the engine calls each
            // probe at most once after Done; the node is present by contract.
            let n = self.node.take().expect("enqueue node present");
            match self.subs[i].try_enqueue(n, guard) {
                Ok(()) => Probe::Done(()),
                Err(n) => {
                    self.node = Some(n);
                    Probe::Contended
                }
            }
        } else {
            Probe::Invalid
        }
    }

    fn shift_target(&self, global: usize, live: &WindowDesc) -> Option<usize> {
        // Every covered sub-queue is at the window's edge: raise it
        // (enqueue counts are monotone, so the put window only advances).
        Some(global + live.shift)
    }

    fn reload(&mut self) -> bool {
        debug_assert!(self.node.is_none(), "reload with a node still staged");
        self.node = self.rest.next().map(|v| alloc_qnode(MaybeUninit::new(v)));
        self.node.is_some()
    }
}

/// The get end: a sub-queue is dequeue-valid iff it is non-empty and its
/// completed-dequeue count is below the get window's edge. Dequeues cover
/// the get window's pop span, which exceeds the put span while a width
/// shrink is pending.
struct GetEnd<'q, T> {
    subs: &'q [CachePadded<SubQueue<T>>],
}

impl<T> ProbeTarget for GetEnd<'_, T> {
    type Output = T;
    const CONSUMES: bool = true;
    const OP: OpKind = OpKind::Dequeue;

    fn span(&self, w: &WindowDesc) -> usize {
        w.pop_width
    }

    fn probe(&mut self, i: usize, _w: &WindowDesc, global: usize, guard: &Guard) -> Probe<T> {
        if self.subs[i].is_empty(guard) {
            return Probe::Empty;
        }
        if self.subs[i].get.deq.load(Ordering::Acquire) < global {
            match self.subs[i].try_dequeue(guard) {
                Ok(Some(v)) => Probe::Done(v),
                // Drained between the emptiness check and the dequeue
                // attempt; keep probing (and the verdict stays killed —
                // this probe observed the sub-queue non-empty).
                Ok(None) => Probe::Invalid,
                Err(()) => Probe::Contended,
            }
        } else {
            Probe::Invalid
        }
    }

    fn shift_target(&self, global: usize, live: &WindowDesc) -> Option<usize> {
        // Items exist but every non-empty sub-queue exhausted its get
        // budget: advance the get window (dequeue counts are monotone, so
        // it too only moves forward).
        Some(global + live.shift)
    }
}

/// Per-thread access handle to a [`Queue2D`].
pub struct QueueHandle<'q, T> {
    queue: &'q Queue2D<T>,
    last_put: usize,
    last_get: usize,
    ops: OpState<'q>,
}

impl<T> QueueHandle<'_, T> {
    /// Enqueues `value` on some window-valid sub-queue.
    pub fn enqueue(&mut self, value: T) {
        let q = self.queue;
        let mut end = PutEnd::new(&q.subs, value, Vec::new().into_iter());
        self.ops.drive(q.put_search(), &mut end, 1, false, &mut self.last_put, |()| {});
    }

    /// Enqueues every value in `values`, amortizing the window search:
    /// after one search round wins a sub-queue, up to `depth` items are
    /// appended to that same sub-queue (each re-validated against the live
    /// put `Global`) before searching again. Observably equivalent to
    /// enqueueing the values one by one; the k bound is untouched (see
    /// DESIGN.md §14).
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Queue2D};
    ///
    /// let q = Queue2D::new(Params::default());
    /// q.handle().enqueue_n((0..100).collect());
    /// assert_eq!(q.len(), 100);
    /// ```
    pub fn enqueue_n(&mut self, values: Vec<T>) {
        let n = values.len();
        let mut rest = values.into_iter();
        let Some(first) = rest.next() else { return };
        let q = self.queue;
        let mut end = PutEnd::new(&q.subs, first, rest);
        self.ops.drive(q.put_search(), &mut end, n, true, &mut self.last_put, |()| {});
    }

    /// Dequeues an item; `None` when a covering sweep saw every sub-queue
    /// empty.
    pub fn dequeue(&mut self) -> Option<T> {
        let q = self.queue;
        let mut out = None;
        self.ops.drive(
            q.get_search(),
            &mut GetEnd { subs: &q.subs },
            1,
            false,
            &mut self.last_get,
            |v| {
                out = Some(v);
            },
        );
        out
    }

    /// Dequeues up to `max` items, amortizing the window search: after one
    /// search round wins a sub-queue, up to `depth` items are taken from
    /// that same sub-queue (each re-validated against the live get
    /// `Global`) before searching again. Returns short when a covering
    /// sweep observes every sub-queue empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Queue2D};
    ///
    /// let q = Queue2D::new(Params::default());
    /// q.handle().enqueue_n((0..10).collect());
    /// assert_eq!(q.handle().dequeue_n(64).len(), 10);
    /// ```
    pub fn dequeue_n(&mut self, max: usize) -> Vec<T> {
        let q = self.queue;
        let mut out = Vec::with_capacity(max);
        self.ops.drive(
            q.get_search(),
            &mut GetEnd { subs: &q.subs },
            max,
            true,
            &mut self.last_get,
            |v| {
                out.push(v);
            },
        );
        out
    }
}

impl<T> fmt::Debug for QueueHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueHandle")
            .field("last_put", &self.last_put)
            .field("last_get", &self.last_get)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Arc;
    use std::collections::HashSet;

    fn params(w: usize, d: usize, s: usize) -> Params {
        Params::new(w, d, s).unwrap()
    }

    #[test]
    fn empty_dequeue_returns_none() {
        let q: Queue2D<u32> = Queue2D::new(params(4, 2, 1));
        assert_eq!(q.dequeue(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn single_item_round_trip() {
        let q = Queue2D::new(params(4, 2, 1));
        q.enqueue(7);
        assert_eq!(q.len(), 1);
        assert_eq!(q.dequeue(), Some(7));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn width_one_is_strict_fifo() {
        let q = Queue2D::new(params(1, 1, 1));
        let mut h = q.handle_seeded(1);
        for i in 0..500 {
            h.enqueue(i);
        }
        for i in 0..500 {
            assert_eq!(h.dequeue(), Some(i), "width=1 must be strict FIFO");
        }
    }

    #[test]
    fn all_items_recovered() {
        let q = Queue2D::new(params(4, 3, 2));
        let mut h = q.handle_seeded(5);
        for i in 0..2_000 {
            h.enqueue(i);
        }
        let mut seen = HashSet::new();
        while let Some(v) = h.dequeue() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), 2_000);
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_no_loss_no_duplication() {
        const THREADS: usize = 4;
        const PER: usize = 3_000;
        let q = Arc::new(Queue2D::new(params(4, 2, 1)));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = q.handle_seeded(t as u64 + 1);
                let mut got = Vec::new();
                for i in 0..PER {
                    h.enqueue((t * PER + i) as u64);
                    if i % 3 == 0 {
                        if let Some(v) = h.dequeue() {
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
        let mut h = q.handle_seeded(0);
        while let Some(v) = h.dequeue() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (0..(THREADS * PER) as u64).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_order_is_k_relaxed_single_thread() {
        // Single-threaded, so counter slack is zero and the window bound
        // applies directly: an item dequeued at global order g was enqueued
        // within k of g.
        let p = params(4, 2, 2);
        let q = Queue2D::new(p);
        let mut h = q.handle_seeded(3);
        let n = 1_000usize;
        for i in 0..n {
            h.enqueue(i);
        }
        let k = p.k_bound();
        for pos in 0..n {
            let v = h.dequeue().unwrap();
            let lateness = pos.abs_diff(v);
            assert!(
                lateness <= k,
                "dequeue #{pos} returned {v}: out-of-order distance {lateness} > k={k}"
            );
        }
    }

    #[test]
    fn drop_releases_resident_items() {
        use crate::sync::atomic::AtomicUsize as AU;
        struct Canary(Arc<AU>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AU::new(0));
        {
            let q = Queue2D::new(params(3, 2, 1));
            let mut h = q.handle_seeded(1);
            for _ in 0..40 {
                h.enqueue(Canary(drops.clone()));
            }
            for _ in 0..15 {
                drop(h.dequeue());
            }
        }
        assert_eq!(drops.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn debug_formats() {
        let q: Queue2D<u8> = Queue2D::new(params(2, 1, 1));
        assert!(format!("{q:?}").contains("Queue2D"));
        assert!(format!("{:?}", q.handle()).contains("QueueHandle"));
    }

    /// Regression for the covering-sweep off-by-one: the sweep used to run
    /// `0..=width`, probing the start index at both ends of every round.
    #[test]
    fn covering_sweep_probes_each_subqueue_once() {
        for width in [1usize, 2, 4, 7] {
            let q: Queue2D<u32> = Queue2D::new(params(width, 2, 1));
            // An empty-queue dequeue is exactly one covering sweep under
            // one Global: `width` probes, no more.
            assert_eq!(q.handle_seeded(9).dequeue(), None);
            let m = q.metrics();
            assert_eq!(
                m.probes, width as u64,
                "width {width}: empty dequeue must probe each sub-queue exactly once"
            );
            assert_eq!(m.empty_pops, 1);
        }
    }

    /// Regression for the `all_empty` verdict: step 0 must participate, so
    /// a lone item on the start index is found, not reported as empty.
    #[test]
    fn first_probe_counts_toward_the_empty_verdict() {
        let q: Queue2D<u32> = Queue2D::new(params(4, 2, 1));
        let mut h = q.handle_seeded(2);
        h.enqueue(77);
        // Force the sweep to start exactly on the sub-queue holding the
        // item, whichever it is.
        let holder = (0..4)
            .find(|&i| q.subs[i].residency() == 1)
            .expect("exactly one sub-queue holds the item");
        h.last_get = holder;
        assert_eq!(h.dequeue(), Some(77));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn elastic_grow_spreads_enqueues() {
        let q: Queue2D<u64> =
            Queue2D::builder().params(params(1, 1, 1)).elastic_capacity(8).build().unwrap();
        assert_eq!(q.capacity(), 8);
        let info = q.retune(params(8, 1, 1)).unwrap();
        assert_eq!(info.width(), 8);
        assert_eq!(info.generation(), 1);
        assert_eq!(q.put_window().generation(), 1);
        let mut h = q.handle_seeded(3);
        for i in 0..800 {
            h.enqueue(i);
        }
        let occupied = q.subs.iter().filter(|s| s.residency() > 0).count();
        assert!(occupied > 1, "grow did not spread load");
    }

    #[test]
    fn shrink_is_pending_until_tail_drains_then_commits() {
        let q: Queue2D<u64> =
            Queue2D::builder().params(params(8, 1, 1)).elastic_capacity(8).build().unwrap();
        let mut h = q.handle_seeded(9);
        for i in 0..200 {
            h.enqueue(i);
        }
        let info = q.retune(params(2, 1, 1)).unwrap();
        assert!(info.pending_shrink(), "items in the tail: shrink must be pending");
        assert_eq!(info.width(), 2);
        assert_eq!(info.pop_width(), 8);
        // Enqueues stop entering the tail immediately.
        assert_eq!(q.put_window().pop_width(), 2);
        // The bound stays at the wide value while dequeues cover 8
        // sub-queues.
        assert_eq!(info.k_bound(), params(8, 1, 1).k_bound());
        // Every item is still reachable.
        let mut seen = HashSet::new();
        while let Some(v) = h.dequeue() {
            assert!(seen.insert(v), "duplicate {v}");
        }
        assert_eq!(seen.len(), 200, "no item may be stranded by a shrink");
        let committed = crate::window::retry_until(|| q.try_commit_shrink())
            .expect("drained tail must let the shrink commit");
        assert_eq!(committed.pop_width(), 2);
        assert!(!committed.pending_shrink());
        assert_eq!(q.k_bound(), params(2, 1, 1).k_bound());
    }

    #[test]
    fn commit_shrink_refuses_while_tail_nonempty() {
        let q: Queue2D<u64> =
            Queue2D::builder().params(params(4, 1, 1)).elastic_capacity(4).build().unwrap();
        let mut h = q.handle_seeded(5);
        for i in 0..40 {
            h.enqueue(i);
        }
        q.retune(params(1, 1, 1)).unwrap();
        for _ in 0..64 {
            assert!(q.try_commit_shrink().is_none());
        }
        assert!(q.window().pending_shrink());
    }

    /// Regression for the stale-shift window advance: the get window must
    /// move by the shift of the descriptor in force at the CAS, not the
    /// one read when the search round began.
    #[test]
    fn get_window_advances_by_the_live_shift() {
        let q: Queue2D<u64> =
            Queue2D::builder().params(params(2, 4, 4)).elastic_capacity(2).build().unwrap();
        let mut h = q.handle_seeded(1);
        for i in 0..64 {
            h.enqueue(i);
        }
        // Tighten the shift after the enqueues.
        q.retune(params(2, 4, 1)).unwrap();
        let before = q.get_global();
        // Drain far enough that at least one get shift must happen.
        for _ in 0..64 {
            h.dequeue();
        }
        let advanced = q.get_global() - before;
        let shifts = q.metrics().shifts_down;
        assert!(shifts > 0, "draining 64 items through depth 4 must shift the get window");
        assert_eq!(
            advanced, shifts as usize,
            "every get-window advance must use the retuned shift of 1"
        );
    }

    #[test]
    fn metrics_track_shifts_and_ops() {
        let p = params(2, 1, 1);
        let q = Queue2D::new(p);
        let mut h = q.handle_seeded(1);
        for i in 0..20 {
            h.enqueue(i);
        }
        let m = q.metrics();
        assert_eq!(m.ops, 20);
        // 2 sub-queues × depth 1 = 2 items per window level; 20 enqueues
        // require at least 9 put shifts.
        assert!(m.shifts_up >= 9, "expected many put shifts, got {m}");
        assert!(m.probes >= 20, "every op probes at least once");
        while h.dequeue().is_some() {}
        let m = q.metrics();
        assert!(m.shifts_down > 0, "draining must advance the get window: {m}");
        assert!(m.empty_pops >= 1, "the final dequeue observed empty");
        q.reset_metrics();
        assert_eq!(q.metrics().ops, 0);
    }

    #[test]
    fn retunes_count_in_metrics() {
        let q: Queue2D<u8> =
            Queue2D::builder().params(params(2, 1, 1)).elastic_capacity(4).build().unwrap();
        assert_eq!(q.metrics().retunes, 0);
        q.retune(params(4, 1, 1)).unwrap();
        q.retune(params(4, 2, 2)).unwrap();
        // A no-op retune counts nothing.
        q.retune(params(4, 2, 2)).unwrap();
        assert_eq!(q.metrics().retunes, 2);
    }

    #[test]
    fn instantaneous_bound_counts_residency() {
        let q: Queue2D<u64> =
            Queue2D::builder().params(params(1, 1, 1)).elastic_capacity(8).build().unwrap();
        assert_eq!(q.k_bound_instantaneous(), 0, "width 1 is strict");
        let mut h = q.handle_seeded(7);
        for i in 0..100 {
            h.enqueue(i);
        }
        q.retune(params(8, 1, 1)).unwrap();
        let inst = q.k_bound_instantaneous();
        assert!(inst >= 7 * 100, "transient must cover resident items, got {inst}");
        while h.dequeue().is_some() {}
        assert_eq!(q.k_bound_instantaneous(), 7, "drained: (pop_width-1) * depth");
    }

    #[test]
    fn concurrent_churn_across_retunes_conserves_items() {
        const THREADS: usize = 4;
        const PER: usize = 3_000;
        let q = Arc::new(
            Queue2D::builder().params(params(2, 1, 1)).elastic_capacity(16).build().unwrap(),
        );
        let schedule =
            [params(16, 1, 1), params(4, 2, 2), params(1, 1, 1), params(8, 4, 1), params(2, 1, 1)];
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = q.handle_seeded(t as u64 + 1);
                let mut got = Vec::new();
                for i in 0..PER {
                    h.enqueue((t * PER + i) as u64);
                    if i % 2 == 1 {
                        if let Some(v) = h.dequeue() {
                            got.push(v);
                        }
                    }
                }
                got
            }));
        }
        for _ in 0..40 {
            for p in schedule {
                q.retune(p).unwrap();
                q.try_commit_shrink();
                crate::sync::thread::yield_now();
            }
        }
        let mut all: Vec<u64> = Vec::new();
        for j in joins {
            all.extend(j.join().unwrap());
        }
        let mut h = q.handle_seeded(999);
        while let Some(v) = h.dequeue() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(
            all,
            (0..(THREADS * PER) as u64).collect::<Vec<_>>(),
            "retunes must not lose or duplicate items"
        );
    }
}
