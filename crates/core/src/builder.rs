//! Typed, validated builders for the three windowed structures — the
//! unified construction surface of the crate.
//!
//! The paper's point is that **one** 2D-window mechanism serves a stack, a
//! queue and a counter; the construction API should say the same thing
//! once, not three ways. [`Builder`] is that single entry point:
//!
//! ```
//! use stack2d::{Counter2D, Queue2D, Stack2D};
//!
//! # fn main() -> Result<(), stack2d::ParamsError> {
//! // The same builder vocabulary for all three structures.
//! let stack: Stack2D<u64> = Stack2D::builder().for_threads(4).build()?;
//! let queue: Queue2D<u64> = Queue2D::builder().for_bound(60).build()?;
//! let counter = Counter2D::builder().width(8).elastic_capacity(32).build()?;
//! assert_eq!(stack.params().width(), 16);
//! assert!(queue.k_bound() <= 60);
//! assert_eq!(counter.capacity(), 32);
//! # Ok(())
//! # }
//! ```
//!
//! All validation happens at [`Builder::build`] — the paper's constraints
//! (`width >= 1`, `depth >= 1`, `1 <= shift <= depth`) are checked exactly
//! once, so no call site handles a half-validated [`Params`] again. The
//! derived presets [`Builder::for_threads`] and [`Builder::for_bound`]
//! produce always-valid shapes by construction.

use core::fmt;
use core::marker::PhantomData;

use crate::params::{Params, ParamsError};
use crate::search::{SearchConfig, SearchPolicy};
use crate::sync::Arc;
use crate::telemetry::{Recorder, DEFAULT_SAMPLE_EVERY};
use crate::{Counter2D, Queue2D, Stack2D};

mod sealed {
    pub trait Sealed {}
    impl<T> Sealed for crate::Stack2D<T> {}
    impl<T> Sealed for crate::Queue2D<T> {}
    impl Sealed for crate::Counter2D {}
}

/// A structure [`Builder`] can construct: the three windowed structures.
///
/// Sealed — the builder's vocabulary (window parameters, search policy,
/// elastic capacity, handle seed) is specific to the 2D-window design, so
/// outside implementations would have nothing to construct from it.
pub trait Buildable: sealed::Sealed + Sized {
    /// Constructs the structure from validated builder output.
    #[doc(hidden)]
    fn from_builder(config: SearchConfig, seed: Option<u64>) -> Self;

    /// Attaches a telemetry sink to a freshly built structure (the
    /// builder calls this between construction and hand-off, before any
    /// handle exists).
    #[doc(hidden)]
    fn attach_recorder(&mut self, recorder: Arc<dyn Recorder>, sample_every: u32);

    /// The search policy a builder applies when none is set explicitly:
    /// the paper's two-phase default for the stack; the historical plain
    /// covering sweep ([`SearchPolicy::RoundRobinOnly`]) for the queue and
    /// counter, whose default probe counts are pinned by regression tests.
    #[doc(hidden)]
    fn default_policy() -> SearchPolicy {
        SearchPolicy::default()
    }
}

impl<T> Buildable for Stack2D<T> {
    fn from_builder(config: SearchConfig, seed: Option<u64>) -> Self {
        Stack2D::from_builder_parts(config, seed)
    }

    fn attach_recorder(&mut self, recorder: Arc<dyn Recorder>, sample_every: u32) {
        Stack2D::attach_recorder_parts(self, recorder, sample_every);
    }
}

impl<T> Buildable for Queue2D<T> {
    fn from_builder(config: SearchConfig, seed: Option<u64>) -> Self {
        Queue2D::from_builder_parts(config, seed)
    }

    fn attach_recorder(&mut self, recorder: Arc<dyn Recorder>, sample_every: u32) {
        Queue2D::attach_recorder_parts(self, recorder, sample_every);
    }

    fn default_policy() -> SearchPolicy {
        SearchPolicy::RoundRobinOnly
    }
}

impl Buildable for Counter2D {
    fn from_builder(config: SearchConfig, seed: Option<u64>) -> Self {
        Counter2D::from_builder_parts(config, seed)
    }

    fn attach_recorder(&mut self, recorder: Arc<dyn Recorder>, sample_every: u32) {
        Counter2D::attach_recorder_parts(self, recorder, sample_every);
    }

    fn default_policy() -> SearchPolicy {
        SearchPolicy::RoundRobinOnly
    }
}

/// A validated builder for a 2D-window structure (`S` is [`Stack2D`],
/// [`Queue2D`] or [`Counter2D`]).
///
/// Obtain one through [`Stack2D::builder`], [`Queue2D::builder`] or
/// [`Counter2D::builder`]; chain window parameters (or a derived preset),
/// optionally an elastic capacity and a deterministic handle seed, and
/// [`build`](Builder::build). Invalid combinations are reported as a
/// [`ParamsError`] at `build()` — never as a panic, and never earlier.
///
/// # Examples
///
/// ```
/// use stack2d::{ParamsError, Stack2D};
///
/// let stack: Stack2D<u32> = Stack2D::builder().width(8).depth(2).build().unwrap();
/// assert_eq!(stack.params().width(), 8);
///
/// // Validation happens at build(), with the same errors Params::new gives.
/// let err = Stack2D::<u32>::builder().depth(2).shift(5).build().unwrap_err();
/// assert_eq!(err, ParamsError::ShiftExceedsDepth { shift: 5, depth: 2 });
/// ```
#[derive(Clone)]
pub struct Builder<S: Buildable> {
    width: usize,
    depth: usize,
    shift: usize,
    policy: Option<SearchPolicy>,
    hop_on_contention: bool,
    locality: bool,
    capacity: Option<usize>,
    seed: Option<u64>,
    recorder: Option<Arc<dyn Recorder>>,
    sample_every: u32,
    _structure: PhantomData<fn() -> S>,
}

impl<S: Buildable> fmt::Debug for Builder<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Builder")
            .field("width", &self.width)
            .field("depth", &self.depth)
            .field("shift", &self.shift)
            .field("policy", &self.policy)
            .field("hop_on_contention", &self.hop_on_contention)
            .field("locality", &self.locality)
            .field("capacity", &self.capacity)
            .field("seed", &self.seed)
            .field("recorder", &self.recorder.is_some())
            .field("sample_every", &self.sample_every)
            .finish()
    }
}

impl<S: Buildable> Builder<S> {
    /// Starts from the conservative default window ([`Params::default`]:
    /// `width = 4`, `depth = shift = 1`) and the structure's default
    /// search behaviour.
    pub(crate) fn new() -> Self {
        let p = Params::default();
        Builder {
            width: p.width(),
            depth: p.depth(),
            shift: p.shift(),
            policy: None,
            hop_on_contention: true,
            locality: true,
            capacity: None,
            seed: None,
            recorder: None,
            sample_every: DEFAULT_SAMPLE_EVERY,
            _structure: PhantomData,
        }
    }

    /// Sets the number of sub-structures (the *horizontal* dimension).
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Stack2D;
    ///
    /// let s: Stack2D<u8> = Stack2D::builder().width(6).build().unwrap();
    /// assert_eq!(s.params().width(), 6);
    /// ```
    #[must_use]
    pub fn width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    /// Sets the per-sub-structure window slack (the *vertical* dimension).
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Queue2D;
    ///
    /// let q: Queue2D<u8> = Queue2D::builder().depth(3).shift(2).build().unwrap();
    /// assert_eq!(q.params().depth(), 3);
    /// ```
    #[must_use]
    pub fn depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Sets the `Global` step per window shift (`1 <= shift <= depth`,
    /// checked at [`build`](Builder::build)).
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Counter2D;
    ///
    /// let c = Counter2D::builder().depth(4).shift(2).build().unwrap();
    /// assert_eq!(c.params().shift(), 2);
    /// ```
    #[must_use]
    pub fn shift(mut self, shift: usize) -> Self {
        self.shift = shift;
        self
    }

    /// Adopts an already-validated parameter set wholesale (width, depth
    /// and shift at once) — the bridge from code that still carries a
    /// [`Params`].
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Stack2D};
    ///
    /// let p = Params::for_threads(2);
    /// let s: Stack2D<u8> = Stack2D::builder().params(p).build().unwrap();
    /// assert_eq!(s.params(), p);
    /// ```
    #[must_use]
    pub fn params(mut self, params: Params) -> Self {
        self.width = params.width();
        self.depth = params.depth();
        self.shift = params.shift();
        self
    }

    /// Derived preset: the paper's high-throughput configuration for
    /// `threads` concurrent threads — `width = 4 * threads` (§4) with the
    /// tightest window (`depth = shift = 1`). Overrides any previously set
    /// window parameters.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Stack2D;
    ///
    /// let s: Stack2D<u8> = Stack2D::builder().for_threads(8).build().unwrap();
    /// assert_eq!(s.params().width(), 32);
    /// assert_eq!(s.params().depth(), 1);
    /// ```
    #[must_use]
    pub fn for_threads(self, threads: usize) -> Self {
        self.params(Params::for_threads(threads))
    }

    /// Derived preset: inverts the Theorem-1 formula to pick `(width,
    /// depth, shift)` from a relaxation budget — the **maximal width**
    /// whose bound stays within `k`, at the tightest window
    /// (`depth = shift = 1`, where `k = 3 * (width - 1)`). `k = 0` yields
    /// the strict single-sub-structure configuration. Overrides any
    /// previously set window parameters.
    ///
    /// The built structure always satisfies `k_bound() <= k`, and no wider
    /// width could (see the round-trip test in `tests/builder_api.rs`).
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Stack2D;
    ///
    /// let s: Stack2D<u8> = Stack2D::builder().for_bound(30).build().unwrap();
    /// assert_eq!(s.params().width(), 11); // 3 * (11 - 1) = 30 <= 30
    /// assert!(s.k_bound() <= 30);
    ///
    /// let strict: Stack2D<u8> = Stack2D::builder().for_bound(0).build().unwrap();
    /// assert_eq!(strict.k_bound(), 0);
    /// ```
    #[must_use]
    pub fn for_bound(mut self, k: usize) -> Self {
        // depth = shift = 1: k = (2 + 1) * (width - 1), so the maximal
        // affordable width is 1 + k/3.
        self.width = 1 + k / 3;
        self.depth = 1;
        self.shift = 1;
        self
    }

    /// Replaces the window-search policy (how a thread walks the
    /// sub-structure array looking for a valid cell). Defaults to the
    /// structure's historical behaviour: the paper's two-phase search on
    /// [`Stack2D`], the plain covering sweep
    /// ([`SearchPolicy::RoundRobinOnly`]) on [`Queue2D`] and
    /// [`Counter2D`]. All three policies run on all three structures —
    /// the unified search engine is what the ablation experiments toggle.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Queue2D, SearchPolicy};
    ///
    /// // The paper's two-phase search on the queue extension.
    /// let q: Queue2D<u8> = Queue2D::builder()
    ///     .width(4)
    ///     .search_policy(SearchPolicy::TwoPhase { random_hops: 1 })
    ///     .build()
    ///     .unwrap();
    /// q.enqueue(7);
    /// assert_eq!(q.dequeue(), Some(7));
    /// ```
    #[must_use]
    pub fn search_policy(mut self, policy: SearchPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Enables/disables the random hop after a failed CAS (contention
    /// avoidance; default: enabled, on all three structures).
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Counter2D;
    ///
    /// let c = Counter2D::builder().width(4).hop_on_contention(false).build().unwrap();
    /// assert!(!c.config().hops_on_contention());
    /// ```
    #[must_use]
    pub fn hop_on_contention(mut self, enabled: bool) -> Self {
        self.hop_on_contention = enabled;
        self
    }

    /// Enables/disables starting each search at the cell of the last
    /// successful operation (default: enabled, on all three structures).
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Stack2D;
    ///
    /// let s: Stack2D<u8> = Stack2D::builder().width(4).locality(false).build().unwrap();
    /// assert!(!s.config().uses_locality());
    /// ```
    #[must_use]
    pub fn locality(mut self, enabled: bool) -> Self {
        self.locality = enabled;
        self
    }

    /// Pre-sizes the sub-structure array to `capacity`, the hard ceiling
    /// for online retunes (the elastic runtime's
    /// [`retune`](crate::ElasticTarget::retune)). Values below the window
    /// width are clamped up to it at [`build`](Builder::build); without
    /// this call the structure is fixed-width (capacity = width).
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{Params, Stack2D};
    ///
    /// let s: Stack2D<u8> = Stack2D::builder().width(1).elastic_capacity(16).build().unwrap();
    /// assert_eq!(s.capacity(), 16);
    /// s.retune(Params::new(16, 1, 1).unwrap()).unwrap();
    /// assert_eq!(s.window().width(), 16);
    /// ```
    #[must_use]
    pub fn elastic_capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Makes handle registration deterministic: the `n`-th handle draws a
    /// seed derived from `seed` and `n` instead of thread entropy, so two
    /// identically built, identically driven structures behave
    /// identically. Seeded tests and the quality pipeline use this instead
    /// of special-casing per-structure `handle_seeded` constructors.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::Stack2D;
    ///
    /// let mk = || Stack2D::<u32>::builder().width(4).seed(7).build().unwrap();
    /// let (a, b) = (mk(), mk());
    /// let (mut ha, mut hb) = (a.handle(), b.handle());
    /// for i in 0..100 {
    ///     ha.push(i);
    ///     hb.push(i);
    /// }
    /// for _ in 0..100 {
    ///     assert_eq!(ha.pop(), hb.pop());
    /// }
    /// ```
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Attaches a telemetry sink: the structure emits sampled op spans,
    /// window shifts, retunes and shrink-fence transitions through it (see
    /// [`crate::telemetry::Recorder`]), and an elastic driver
    /// managing the structure emits its controller decision spans through
    /// the same sink. Without this call the structure carries no recorder
    /// and the hot path pays a single discriminant check per operation.
    ///
    /// Op spans are sampled 1-in-N per handle
    /// ([`sample_every`](Builder::sample_every), default 64); structural
    /// events are emitted exhaustively.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use stack2d::telemetry::NoopRecorder;
    /// use stack2d::Stack2D;
    ///
    /// let stack: Stack2D<u32> = Stack2D::builder()
    ///     .width(4)
    ///     .recorder(Arc::new(NoopRecorder))
    ///     .sample_every(16)
    ///     .build()
    ///     .unwrap();
    /// stack.push(7);
    /// assert_eq!(stack.pop(), Some(7));
    /// ```
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Sets the op-span sampling period: a handle emits one
    /// [`op_sample`](crate::telemetry::Recorder::op_sample) per `every`
    /// operations (`0` is clamped to 1 — sample everything). Only
    /// meaningful together with [`recorder`](Builder::recorder).
    #[must_use]
    pub fn sample_every(mut self, every: u32) -> Self {
        self.sample_every = every;
        self
    }

    /// Validates the accumulated configuration and constructs the
    /// structure. This is the only place validation happens, and it
    /// accepts exactly the combinations [`Params::new`] accepts.
    ///
    /// # Errors
    ///
    /// The [`ParamsError`] that [`Params::new`] would give for the same
    /// `(width, depth, shift)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{ParamsError, Queue2D};
    ///
    /// let ok: Queue2D<u8> = Queue2D::builder().width(2).build().unwrap();
    /// assert_eq!(ok.params().width(), 2);
    /// let err = Queue2D::<u8>::builder().width(0).build().unwrap_err();
    /// assert_eq!(err, ParamsError::ZeroWidth);
    /// ```
    pub fn build(self) -> Result<S, ParamsError> {
        let params = Params::new(self.width, self.depth, self.shift)?;
        let mut config = SearchConfig::new(params)
            .search_policy(self.policy.unwrap_or_else(S::default_policy))
            .hop_on_contention(self.hop_on_contention)
            .locality(self.locality);
        if let Some(capacity) = self.capacity {
            config = config.max_width(capacity);
        }
        let mut built = S::from_builder(config, self.seed);
        if let Some(recorder) = self.recorder {
            built.attach_recorder(recorder, self.sample_every);
        }
        Ok(built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_params_default() {
        let s: Stack2D<u8> = Stack2D::builder().build().unwrap();
        assert_eq!(s.params(), Params::default());
        assert_eq!(s.capacity(), Params::default().width());
    }

    #[test]
    fn build_rejects_what_params_new_rejects() {
        assert_eq!(Stack2D::<u8>::builder().width(0).build().unwrap_err(), ParamsError::ZeroWidth);
        assert_eq!(Queue2D::<u8>::builder().depth(0).build().unwrap_err(), ParamsError::ZeroDepth);
        assert_eq!(Counter2D::builder().shift(0).build().unwrap_err(), ParamsError::ZeroShift);
        assert_eq!(
            Counter2D::builder().depth(2).shift(3).build().unwrap_err(),
            ParamsError::ShiftExceedsDepth { shift: 3, depth: 2 }
        );
    }

    #[test]
    fn elastic_capacity_clamps_up_to_width() {
        let s: Stack2D<u8> = Stack2D::builder().width(8).elastic_capacity(2).build().unwrap();
        assert_eq!(s.capacity(), 8);
    }

    #[test]
    fn for_bound_is_width_maximal() {
        for k in [0usize, 1, 2, 3, 5, 9, 30, 100, 451, 6_000] {
            let s: Stack2D<u8> = Stack2D::builder().for_bound(k).build().unwrap();
            assert!(s.k_bound() <= k, "k={k}: bound {} over budget", s.k_bound());
            let wider = Params::new(s.params().width() + 1, 1, 1).unwrap();
            assert!(wider.k_bound() > k, "k={k}: width {} not maximal", s.params().width());
        }
    }

    #[test]
    fn presets_override_prior_fields() {
        let s: Stack2D<u8> = Stack2D::builder().depth(5).shift(5).for_threads(2).build().unwrap();
        assert_eq!(s.params(), Params::for_threads(2));
        let s: Stack2D<u8> = Stack2D::builder().depth(5).shift(5).for_bound(9).build().unwrap();
        assert_eq!(s.params().depth(), 1);
    }

    #[test]
    fn all_three_structures_build_elastic_and_seeded() {
        let s: Stack2D<u64> =
            Stack2D::builder().width(1).elastic_capacity(8).seed(1).build().unwrap();
        let q: Queue2D<u64> =
            Queue2D::builder().width(1).elastic_capacity(8).seed(1).build().unwrap();
        let c = Counter2D::builder().width(1).elastic_capacity(8).seed(1).build().unwrap();
        assert_eq!((s.capacity(), q.capacity(), c.capacity()), (8, 8, 8));
        s.push(1);
        assert_eq!(s.pop(), Some(1));
        q.enqueue(1);
        assert_eq!(q.dequeue(), Some(1));
        c.increment();
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn seeded_structures_are_deterministic_per_handle_sequence() {
        let mk = || Queue2D::<u64>::builder().width(4).depth(2).shift(1).seed(99).build().unwrap();
        let (a, b) = (mk(), mk());
        let (mut ha, mut hb) = (a.handle(), b.handle());
        for i in 0..500 {
            ha.enqueue(i);
            hb.enqueue(i);
        }
        for _ in 0..500 {
            assert_eq!(ha.dequeue(), hb.dequeue());
        }
    }
}
