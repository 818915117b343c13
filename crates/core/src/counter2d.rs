//! 2D-Counter — the window design applied to a shared counter (extension).
//!
//! The simplest instance of the paper's §5 generalization: a counter split
//! into `width` cache-padded sub-counters (disjoint access parallelism),
//! with the same `Global`/window mechanism bounding how far any
//! sub-counter may run ahead. Threads increment a window-valid sub-counter
//! and raise the window when none is valid, exactly like the stack's push
//! path; the aggregate value is the sum of the sub-counters.
//!
//! The window gives the counter its quality guarantee: at any quiescent
//! point, `max_i(sub_i) - min_i(sub_i) <= depth + shift` over the active
//! sub-counters, so a scanning read (which sums sub-counters one at a
//! time) is at most `(depth + shift) * (width - 1)` away from a linearized
//! count plus the increments concurrent with the scan. A `width = 1`
//! counter is exact.
//!
//! Increments-only by design (like `fetch_add` statistics counters);
//! [`Counter2D::value`] never decreases between quiescent reads.
//!
//! # Elasticity
//!
//! Since PR 3 the counter shares the stack's elastic machinery
//! (`ElasticWindow`): the sub-counter array is pre-sized at a capacity
//! ([`Builder::elastic_capacity`](crate::Builder::elastic_capacity)) and
//! [`Counter2D::retune`] hot-swaps the descriptor. A width shrink stops
//! increments into the retired tail immediately and *commits*
//! ([`Counter2D::try_commit_shrink`]) once the epoch fence proves every
//! pre-shrink increment finished; the commit **drains** the retired
//! sub-counters — their frozen values move into a side accumulator folded
//! into [`Counter2D::value`] — so a later width grow re-activates them at
//! zero instead of at stale counts, and the active-span spread claim is
//! never polluted by retirement residue.
//!
//! # Search policy
//!
//! Increments search through the unified engine (`engine.rs`), so the full
//! [`SearchConfig`] surface — [`SearchPolicy`], locality,
//! hop-on-contention — applies to the counter exactly as to the stack. The
//! *default* remains the counter's historical plain covering sweep
//! ([`SearchPolicy::RoundRobinOnly`], probe counts pinned by regression
//! tests).

use crate::sync::atomic::{AtomicUsize, Ordering};
use core::fmt;

use crossbeam_epoch as epoch;
use crossbeam_utils::CachePadded;

use crate::builder::Builder;
use crate::engine::{OpState, Probe, ProbeTarget, Search};
use crate::metrics::{CounterHub, MetricsSnapshot};
use crate::params::Params;
use crate::rng::{HandleSeeder, HopRng};
use crate::search::{SearchConfig, SearchPolicy};
use crate::sync::Arc;
use crate::telemetry::{OpKind, Recorder, ShrinkPhase, TelemetryHook};
use crate::traits::{ElasticTarget, OpsHandle, RelaxedOps};
use crate::window::{ElasticWindow, RetuneError, WindowDesc, WindowInfo};

/// A relaxed, window-bounded sharded counter.
///
/// # Examples
///
/// ```
/// use stack2d::{Counter2D, Params};
///
/// let c = Counter2D::new(Params::new(4, 8, 4).unwrap());
/// let mut h = c.handle_seeded(1);
/// for _ in 0..1000 {
///     h.increment();
/// }
/// assert_eq!(c.value(), 1000);
/// ```
pub struct Counter2D {
    /// Sub-counters, allocated once at capacity; increments target the
    /// window's push span.
    subs: Box<[CachePadded<AtomicUsize>]>,
    global: CachePadded<AtomicUsize>,
    /// The live window descriptor, hot-swapped by [`Counter2D::retune`].
    window: ElasticWindow,
    /// Counts folded out of retired sub-counters at shrink commits.
    drained: CachePadded<AtomicUsize>,
    config: SearchConfig,
    counters: CounterHub,
    seeder: HandleSeeder,
    telemetry: TelemetryHook,
}

impl Counter2D {
    /// Starts a validated [`Builder`] — the preferred construction path.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Counter2D;
    ///
    /// let c = Counter2D::builder().width(4).depth(8).shift(4).build().unwrap();
    /// c.increment();
    /// assert_eq!(c.value(), 1);
    /// ```
    pub fn builder() -> Builder<Self> {
        Builder::new()
    }

    /// Creates a counter with the given window parameters, the default
    /// search behaviour (plain covering sweep) and no elastic headroom
    /// (capacity = width).
    pub fn new(params: Params) -> Self {
        Self::with_config(SearchConfig::new(params).search_policy(SearchPolicy::RoundRobinOnly))
    }

    /// Creates a counter with explicit search-policy configuration (used
    /// by the ablation experiments; note that [`SearchConfig::new`]'s
    /// policy default is the *paper's* two-phase search, while
    /// [`Counter2D::new`] and the builder default to the counter's
    /// historical [`SearchPolicy::RoundRobinOnly`] sweep).
    pub fn with_config(config: SearchConfig) -> Self {
        Self::from_builder_parts(config, None)
    }

    pub(crate) fn from_builder_parts(config: SearchConfig, seed: Option<u64>) -> Self {
        let params = config.params();
        let capacity = config.capacity();
        Counter2D {
            subs: (0..capacity).map(|_| CachePadded::new(AtomicUsize::new(0))).collect(),
            global: CachePadded::new(AtomicUsize::new(params.initial_global())),
            window: ElasticWindow::new(params),
            drained: CachePadded::new(AtomicUsize::new(0)),
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

    /// Whether this counter was built with elastic headroom (capacity
    /// beyond the initial width), i.e. is meant to be retuned online.
    #[inline]
    pub fn is_elastic(&self) -> bool {
        self.capacity() > self.config.params().width()
    }

    /// The construction-time configuration (search policy knobs and the
    /// *initial* window parameters; for the live parameters after retunes
    /// see [`Counter2D::window`]).
    #[inline]
    pub fn config(&self) -> SearchConfig {
        self.config
    }

    /// The window parameters currently in force.
    #[inline]
    pub fn params(&self) -> Params {
        self.window.info().params()
    }

    /// Number of sub-counters allocated at construction — the ceiling for
    /// [`Counter2D::retune`]d widths.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.subs.len()
    }

    /// A consistent snapshot of the live window descriptor.
    pub fn window(&self) -> WindowInfo {
        self.window.info()
    }

    /// A snapshot of the counter's operation counters (probes, lost
    /// CASes, window shifts — see [`MetricsSnapshot`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.counters.snapshot()
    }

    /// Resets the operation counters to zero (e.g. after a warm-up phase).
    pub fn reset_metrics(&self) {
        self.counters.reset();
    }

    /// Installs new window parameters, returning the snapshot that took
    /// effect. Lock-free and non-blocking for concurrent increments.
    ///
    /// A width shrink stops increments into the retired tail immediately;
    /// the window reports `pending_shrink` until
    /// [`Counter2D::try_commit_shrink`] folds the retired values away.
    ///
    /// # Errors
    ///
    /// [`RetuneError::ExceedsCapacity`] if `params.width()` exceeds
    /// [`Counter2D::capacity`].
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
    /// proves every pre-shrink increment finished, the retired
    /// sub-counters `[width, pop_width)` are **drained** — their values
    /// move into the side accumulator — and the window closes.
    ///
    /// Returns the new window snapshot when the commit lands, `None` when
    /// there is nothing to commit or the fence has not tripped yet.
    pub fn try_commit_shrink(&self) -> Option<WindowInfo> {
        let info = self.window.try_commit_shrink(|tail, _| {
            for sub in &self.subs[tail] {
                // Take-then-add: a concurrent scanning read may briefly
                // miss the moved count (value() is advisory mid-flight),
                // but nothing is ever lost — the fence guarantees no
                // in-flight increment still targets the tail.
                let v = sub.swap(0, Ordering::AcqRel);
                if v > 0 {
                    self.drained.fetch_add(v, Ordering::AcqRel);
                }
            }
            true
        })?;
        self.counters.retuned();
        if let Some(r) = self.telemetry.recorder() {
            r.shrink_fence(ShrinkPhase::Committed, info);
        }
        Some(info)
    }

    /// The counter's analogue of the Theorem-1 bound: how far a quiescent
    /// scanning read ([`Counter2D::value`]) can sit from a linearized
    /// count, `(depth + shift) * (pop_width - 1)` — each of the other
    /// active sub-counters is within the window spread of the one being
    /// read (see the module docs). Computed over the pop span so it stays
    /// honest while a width shrink is pending. A `width = 1` counter is
    /// exact (`0`).
    pub fn k_bound(&self) -> usize {
        let guard = epoch::pin();
        let w = self.window.load(&guard);
        (w.depth + w.shift) * (w.pop_width - 1)
    }

    /// The *live* read-error bound, sound even across retune transients:
    /// `(pop_width - 1) * max(observed spread, depth + shift)` over the
    /// active span.
    ///
    /// Right after a width **grow**, freshly activated sub-counters sit at
    /// zero while the veterans carry the backlog — the observed spread,
    /// not the configured window, is what bounds a scan's error until the
    /// newcomers catch up. Like the stack and queue variants the value is
    /// advisory under unquiesced concurrency.
    pub fn k_bound_instantaneous(&self) -> usize {
        let guard = epoch::pin();
        let w = self.window.load(&guard);
        if w.pop_width <= 1 {
            return 0;
        }
        let counts = self.subs[..w.pop_width].iter().map(|s| s.load(Ordering::Acquire));
        let (mut min, mut max) = (usize::MAX, 0usize);
        for c in counts {
            min = min.min(c);
            max = max.max(c);
        }
        (w.pop_width - 1) * (max - min).max(w.depth + w.shift)
    }

    /// Registers a per-thread handle.
    ///
    /// On a counter built with [`Builder::seed`](crate::Builder::seed) the
    /// handle RNG is drawn from the deterministic per-structure sequence;
    /// otherwise from thread entropy.
    pub fn handle(&self) -> CounterHandle<'_> {
        self.handle_with(self.seeder.rng())
    }

    /// Registers a handle with a deterministic RNG seed.
    pub fn handle_seeded(&self, seed: u64) -> CounterHandle<'_> {
        self.handle_with(HopRng::seeded(seed))
    }

    fn handle_with(&self, rng: HopRng) -> CounterHandle<'_> {
        let mut ops = OpState::new(&self.counters, &self.telemetry, rng);
        let last = ops.rng.bounded(self.subs.len());
        CounterHandle { counter: self, last, ops }
    }

    /// The search increments run over this counter's window.
    fn search(&self) -> Search<'_> {
        Search::new(&self.window, &self.global, &self.config)
    }

    /// The aggregate count: the sum of all sub-counters plus the values
    /// drained out of retired sub-counters at shrink commits.
    ///
    /// Exact when quiescent; under concurrency the scan may miss or
    /// double-count in-flight increments up to the window bound (see the
    /// module docs).
    pub fn value(&self) -> usize {
        self.drained.load(Ordering::Acquire)
            + self.subs.iter().map(|s| s.load(Ordering::Acquire)).sum::<usize>()
    }

    /// Per-sub-counter values over the active (push) span — the load
    /// profile the window's spread claim speaks about.
    pub fn profile(&self) -> Vec<usize> {
        let guard = epoch::pin();
        let w = self.window.load(&guard);
        self.subs[..w.push_width].iter().map(|s| s.load(Ordering::Acquire)).collect()
    }

    /// The quiescent spread bound: `max - min` over active sub-counters
    /// never exceeds this after all increments complete (modulo retune
    /// transients — a freshly re-activated sub-counter starts at zero and
    /// needs increments to catch up).
    pub fn spread_bound(&self) -> usize {
        let p = self.params();
        p.depth() + p.shift()
    }

    /// Convenience increment through an ephemeral handle.
    pub fn increment(&self) {
        self.handle().increment();
    }
}

impl fmt::Debug for Counter2D {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter2D")
            .field("window", &self.window())
            .field("value", &self.value())
            .finish()
    }
}

impl ElasticTarget for Counter2D {
    fn window(&self) -> WindowInfo {
        Counter2D::window(self)
    }

    fn capacity(&self) -> usize {
        Counter2D::capacity(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        Counter2D::metrics(self)
    }

    fn retune(&self, params: Params) -> Result<WindowInfo, RetuneError> {
        Counter2D::retune(self, params)
    }

    fn try_commit_shrink(&self) -> Option<WindowInfo> {
        Counter2D::try_commit_shrink(self)
    }

    fn is_elastic(&self) -> bool {
        Counter2D::is_elastic(self)
    }

    // The counter's configured bound is its own spread-based formula,
    // not the stack-shaped WindowInfo::k_bound the default would read.
    fn k_bound(&self) -> usize {
        Counter2D::k_bound(self)
    }

    fn k_bound_instantaneous(&self) -> usize {
        Counter2D::k_bound_instantaneous(self)
    }

    fn target_name(&self) -> &'static str {
        "2d-counter"
    }

    fn recorder(&self) -> Option<&dyn Recorder> {
        Counter2D::recorder(self)
    }
}

impl OpsHandle<u64> for CounterHandle<'_> {
    /// A produce is one increment; the produced value is irrelevant to a
    /// statistics counter and is dropped.
    fn produce(&mut self, _value: u64) {
        self.increment();
    }

    /// Counters are increment-only: a consume always reports empty, which
    /// generic drivers tally as an empty pop.
    fn consume(&mut self) -> Option<u64> {
        None
    }

    /// A produce batch is `values.len()` increments through the
    /// search-amortizing [`add_n`](CounterHandle::add_n) path.
    fn produce_n(&mut self, values: Vec<u64>) {
        self.add_n(values.len());
    }
}

impl RelaxedOps<u64> for Counter2D {
    type Handle<'a> = CounterHandle<'a>;

    fn ops_handle(&self) -> Self::Handle<'_> {
        self.handle()
    }

    fn ops_handle_seeded(&self, seed: u64) -> Self::Handle<'_> {
        self.handle_seeded(seed)
    }

    fn name(&self) -> &'static str {
        "2d-counter"
    }

    fn relaxation_bound(&self) -> Option<usize> {
        Some(ElasticTarget::reported_bound(self))
    }
}

/// Per-thread handle to a [`Counter2D`].
pub struct CounterHandle<'c> {
    counter: &'c Counter2D,
    last: usize,
    ops: OpState<'c>,
}

/// The increment side, as driven by the search engine: a sub-counter is
/// valid iff its value is below `Global`; one unit is claimed via CAS so
/// the window check and the increment apply to the same observed value.
struct IncrementSide<'c> {
    subs: &'c [CachePadded<AtomicUsize>],
}

impl ProbeTarget for IncrementSide<'_> {
    type Output = ();
    const CONSUMES: bool = false;
    const OP: OpKind = OpKind::Increment;

    fn span(&self, w: &WindowDesc) -> usize {
        w.push_width
    }

    fn probe(
        &mut self,
        i: usize,
        _w: &WindowDesc,
        global: usize,
        _guard: &epoch::Guard,
    ) -> Probe<()> {
        let v = self.subs[i].load(Ordering::Acquire);
        if v < global {
            if self.subs[i].compare_exchange(v, v + 1, Ordering::AcqRel, Ordering::Acquire).is_ok()
            {
                Probe::Done(())
            } else {
                Probe::Contended
            }
        } else {
            Probe::Invalid
        }
    }

    fn shift_target(&self, global: usize, live: &WindowDesc) -> Option<usize> {
        // Every active sub-counter is at the window's edge: raise it.
        Some(global + live.shift)
    }
}

impl CounterHandle<'_> {
    /// Adds one to the counter on some window-valid sub-counter.
    pub fn increment(&mut self) {
        self.add(1, false);
    }

    /// Adds `n` to the counter, amortizing the window search: after one
    /// search round wins a sub-counter, up to `depth` units are claimed
    /// against it (each CAS re-validated against the live `Global`) before
    /// searching again. Observably equivalent to `n` calls to
    /// [`increment`](CounterHandle::increment); the quiescent spread bound
    /// is untouched (see DESIGN.md §14).
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Counter2D, Params};
    ///
    /// let c = Counter2D::new(Params::default());
    /// c.handle().add_n(1000);
    /// assert_eq!(c.value(), 1000);
    /// ```
    pub fn add_n(&mut self, n: usize) {
        self.add(n, true);
    }

    #[inline(always)]
    fn add(&mut self, n: usize, batched: bool) {
        let c = self.counter;
        self.ops.drive(
            c.search(),
            &mut IncrementSide { subs: &c.subs },
            n,
            batched,
            &mut self.last,
            |()| {},
        );
    }
}

impl fmt::Debug for CounterHandle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CounterHandle").field("last", &self.last).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Arc;

    fn params(w: usize, d: usize, s: usize) -> Params {
        Params::new(w, d, s).unwrap()
    }

    #[test]
    fn starts_at_zero() {
        let c = Counter2D::new(params(4, 2, 1));
        assert_eq!(c.value(), 0);
        assert_eq!(c.profile(), vec![0; 4]);
    }

    #[test]
    fn counts_exactly_single_thread() {
        let c = Counter2D::new(params(4, 3, 2));
        let mut h = c.handle_seeded(7);
        for _ in 0..10_000 {
            h.increment();
        }
        assert_eq!(c.value(), 10_000);
    }

    #[test]
    fn width_one_is_an_exact_counter() {
        let c = Counter2D::new(params(1, 1, 1));
        for _ in 0..100 {
            c.increment();
        }
        assert_eq!(c.value(), 100);
        assert_eq!(c.profile(), vec![100]);
    }

    #[test]
    fn quiescent_spread_respects_window_bound() {
        let p = params(8, 4, 2);
        let c = Counter2D::new(p);
        let mut h = c.handle_seeded(3);
        for _ in 0..5_000 {
            h.increment();
        }
        let profile = c.profile();
        let spread = profile.iter().max().unwrap() - profile.iter().min().unwrap();
        assert!(
            spread <= c.spread_bound(),
            "spread {spread} exceeds bound {} ({profile:?})",
            c.spread_bound()
        );
    }

    #[test]
    fn concurrent_increments_are_all_counted() {
        const THREADS: usize = 4;
        const PER: usize = 25_000;
        let c = Arc::new(Counter2D::new(params(4, 4, 2)));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let c = Arc::clone(&c);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = c.handle_seeded(t as u64 + 1);
                for _ in 0..PER {
                    h.increment();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(c.value(), THREADS * PER, "increments lost or duplicated");
        // Quiescent spread bound holds under concurrency too.
        let profile = c.profile();
        let spread = profile.iter().max().unwrap() - profile.iter().min().unwrap();
        assert!(spread <= c.spread_bound(), "{profile:?}");
    }

    #[test]
    fn debug_formats() {
        let c = Counter2D::new(params(2, 1, 1));
        assert!(format!("{c:?}").contains("Counter2D"));
        assert!(format!("{:?}", c.handle()).contains("CounterHandle"));
    }

    /// Regression for the covering-sweep off-by-one: the second increment
    /// on a width-1, depth-1 counter needs exactly one exhausted sweep
    /// (1 probe) plus one successful probe — the old `0..=width` range
    /// spent an extra probe on the duplicated start index.
    #[test]
    fn covering_sweep_probes_each_subcounter_once() {
        let c = Counter2D::new(params(1, 1, 1));
        c.increment();
        assert_eq!(c.metrics().probes, 1, "first increment: one valid probe");
        c.increment();
        let m = c.metrics();
        assert_eq!(
            m.probes, 3,
            "second increment: one exhausted sweep (1 probe) + a shift + one valid probe"
        );
        assert_eq!(m.shifts_up, 1);
        assert_eq!(m.ops, 2);
    }

    #[test]
    fn elastic_grow_spreads_increments() {
        let c = Counter2D::builder().params(params(1, 1, 1)).elastic_capacity(8).build().unwrap();
        assert_eq!(c.capacity(), 8);
        let info = c.retune(params(8, 2, 1)).unwrap();
        assert_eq!(info.width(), 8);
        let mut h = c.handle_seeded(5);
        for _ in 0..500 {
            h.increment();
        }
        assert_eq!(c.value(), 500);
        let occupied = c.profile().iter().filter(|&&v| v > 0).count();
        assert!(occupied > 1, "grow did not spread increments: {:?}", c.profile());
    }

    #[test]
    fn shrink_drains_retired_subcounters_and_conserves_value() {
        let c = Counter2D::builder().params(params(8, 2, 1)).elastic_capacity(8).build().unwrap();
        let mut h = c.handle_seeded(2);
        for _ in 0..1_000 {
            h.increment();
        }
        let info = c.retune(params(2, 2, 1)).unwrap();
        assert!(info.pending_shrink());
        assert_eq!(c.value(), 1_000, "pending shrink must not lose counts");
        let committed = crate::window::retry_until(|| c.try_commit_shrink())
            .expect("quiescent counter shrink must commit");
        assert!(!committed.pending_shrink());
        assert_eq!(c.value(), 1_000, "drain must conserve the value");
        // Retired sub-counters are zeroed: the active profile carries no
        // retirement residue and re-growing starts them from scratch.
        assert_eq!(c.profile().len(), 2);
        for (i, sub) in c.subs.iter().enumerate().skip(2) {
            assert_eq!(sub.load(Ordering::Acquire), 0, "sub {i} not drained");
        }
        for _ in 0..100 {
            h.increment();
        }
        assert_eq!(c.value(), 1_100);
    }

    #[test]
    fn retunes_count_in_metrics() {
        let c = Counter2D::builder().params(params(2, 1, 1)).elastic_capacity(4).build().unwrap();
        assert_eq!(c.metrics().retunes, 0);
        c.retune(params(4, 1, 1)).unwrap();
        c.retune(params(4, 1, 1)).unwrap(); // no-op
        assert_eq!(c.metrics().retunes, 1);
    }

    #[test]
    fn concurrent_churn_across_retunes_conserves_value() {
        const THREADS: usize = 4;
        const PER: usize = 10_000;
        let c = Arc::new(
            Counter2D::builder().params(params(2, 1, 1)).elastic_capacity(16).build().unwrap(),
        );
        let schedule =
            [params(16, 1, 1), params(4, 2, 2), params(1, 1, 1), params(8, 4, 1), params(2, 1, 1)];
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let c = Arc::clone(&c);
            joins.push(crate::sync::thread::spawn(move || {
                let mut h = c.handle_seeded(t as u64 + 1);
                for _ in 0..PER {
                    h.increment();
                }
            }));
        }
        for _ in 0..40 {
            for p in schedule {
                c.retune(p).unwrap();
                c.try_commit_shrink();
                crate::sync::thread::yield_now();
            }
        }
        for j in joins {
            j.join().unwrap();
        }
        // Settle any pending shrink so drains complete, then count.
        for _ in 0..64 {
            c.try_commit_shrink();
        }
        assert_eq!(c.value(), THREADS * PER, "retunes must not lose or duplicate increments");
    }
}
