//! Common interfaces: the structure-generic produce/consume contract
//! ([`RelaxedOps`]/[`OpsHandle`]) and the elastic contract shared by every
//! windowed structure ([`ElasticTarget`]).
//!
//! The workload runner, the experiment harness, the quality oracle and the
//! server are generic over [`RelaxedOps`], so the exact same code
//! runs the 2D-Stack, the 2D-Queue, the 2D-Counter and every baseline —
//! only the structure type changes, as in the paper's evaluation. For a
//! stack, `produce` is a push and `consume` a pop. [`ElasticTarget`] plays
//! the same role for the elastic runtime: the `stack2d-adaptive`
//! controllers and runners are generic over it, so one AIMD policy retunes
//! the stack, the queue and the counter alike.

use crate::metrics::MetricsSnapshot;
use crate::params::Params;
use crate::telemetry::Recorder;
use crate::window::{RetuneError, WindowInfo};

/// Per-thread produce/consume operations on a [`RelaxedOps`] structure.
///
/// The names are deliberately structure-neutral: `produce` is a stack push,
/// a queue enqueue or a counter increment; `consume` is a pop, a dequeue —
/// or, for a structure with nothing to consume (the counter), always
/// `None`.
pub trait OpsHandle<T> {
    /// Inserts `value` (push / enqueue / increment).
    fn produce(&mut self, value: T);

    /// Removes an item; `None` when the structure was observed empty (or
    /// does not support consumption).
    fn consume(&mut self) -> Option<T>;

    /// Inserts every value in `values`. The default loops over
    /// [`produce`](OpsHandle::produce); the 2D structures override it with
    /// a batched path that amortizes the window search across the batch
    /// (one search round per won sub-structure instead of one per item).
    /// Object-safe, so `dyn OpsHandle` callers (the server's connection
    /// executor) reach the fast path.
    fn produce_n(&mut self, values: Vec<T>) {
        for v in values {
            self.produce(v);
        }
    }

    /// Removes up to `max` items, stopping early when the structure is
    /// observed empty. The default loops over
    /// [`consume`](OpsHandle::consume); the 2D structures override it with
    /// a batched path.
    fn consume_n(&mut self, max: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(max);
        for _ in 0..max {
            match self.consume() {
                Some(v) => out.push(v),
                None => break,
            }
        }
        out
    }
}

/// A concurrent structure with (possibly relaxed) produce/consume
/// semantics, accessed through per-thread handles — the contract the
/// generic workload runner and the harness registry drive.
///
/// Implemented directly by all three 2D structures
/// ([`Stack2D`](crate::Stack2D), [`Queue2D`](crate::Queue2D),
/// [`Counter2D`](crate::Counter2D)) and by every baseline, so one runner
/// measures the whole family. Handles carry whatever thread-local state
/// the structure needs (the 2D-Stack's locality index and hop RNG, the
/// elimination stack's collision slot, `k-robin`'s cursor); create one
/// per worker thread.
///
/// # Examples
///
/// ```
/// use stack2d::{OpsHandle, Queue2D, RelaxedOps, Stack2D};
///
/// fn churn<S: RelaxedOps<u32>>(s: &S) -> usize {
///     let mut h = s.ops_handle_seeded(7);
///     for i in 0..100 {
///         h.produce(i);
///     }
///     let mut n = 0;
///     while h.consume().is_some() {
///         n += 1;
///     }
///     n
/// }
///
/// let stack: Stack2D<u32> = Stack2D::builder().width(4).build().unwrap();
/// let queue: Queue2D<u32> = Queue2D::builder().width(4).build().unwrap();
/// assert_eq!(churn(&stack), 100);
/// assert_eq!(churn(&queue), 100);
/// ```
pub trait RelaxedOps<T: Send>: Send + Sync {
    /// The per-thread access handle.
    type Handle<'a>: OpsHandle<T>
    where
        Self: 'a,
        T: 'a;

    /// Registers a handle for the calling thread.
    fn ops_handle(&self) -> Self::Handle<'_>;

    /// Registers a handle with a deterministic RNG seed where the
    /// structure supports it; the default ignores the seed and returns
    /// [`ops_handle`](RelaxedOps::ops_handle). Deterministic tests and the
    /// quality pipeline use this instead of special-casing concrete types.
    ///
    /// # Examples
    ///
    /// ```
    /// use stack2d::{OpsHandle, Params, RelaxedOps, Stack2D};
    ///
    /// fn deterministic_drain<S: RelaxedOps<u32>>(s: &S) -> usize {
    ///     let mut h = s.ops_handle_seeded(42);
    ///     let mut n = 0;
    ///     while h.consume().is_some() {
    ///         n += 1;
    ///     }
    ///     n
    /// }
    ///
    /// let s = Stack2D::new(Params::default());
    /// s.push(7);
    /// assert_eq!(deterministic_drain(&s), 1);
    /// ```
    fn ops_handle_seeded(&self, seed: u64) -> Self::Handle<'_> {
        let _ = seed;
        self.ops_handle()
    }

    /// Short structure name for legends, logs and experiment CSVs.
    fn name(&self) -> &'static str;

    /// The deterministic out-of-order bound, if the structure has one.
    ///
    /// `Some(0)` means strict semantics; `None` means no deterministic
    /// bound exists (e.g. the `random` baseline). Elastic structures
    /// report their residency-aware instantaneous bound, which stays
    /// sound through retune transients.
    fn relaxation_bound(&self) -> Option<usize> {
        None
    }
}

/// A structure whose 2D window can be retuned online — what a feedback
/// controller (the `stack2d-adaptive` crate) drives.
///
/// Implemented by all three windowed structures:
/// [`Stack2D`](crate::Stack2D), [`Queue2D`](crate::Queue2D) (whose put
/// *and* get windows are retuned together; the reported window is the
/// get window, the one that governs dequeue quality) and
/// [`Counter2D`](crate::Counter2D). The contract mirrors what PR 2's
/// elastic runtime used directly on `Stack2D`: a metrics delta to derive
/// the window-pressure signal from, a live window snapshot, a hard width
/// ceiling, and the retune / shrink-commit entry points.
///
/// # Examples
///
/// ```
/// use stack2d::{Counter2D, ElasticTarget, Params, Queue2D, Stack2D};
///
/// fn widen<E: ElasticTarget>(target: &E) -> stack2d::WindowInfo {
///     let w = target.window();
///     let p = Params::new(target.capacity(), w.depth(), w.shift()).unwrap();
///     target.retune(p).unwrap()
/// }
///
/// let stack: Stack2D<u8> = Stack2D::builder().width(1).elastic_capacity(4).build().unwrap();
/// let queue: Queue2D<u8> = Queue2D::builder().width(1).elastic_capacity(4).build().unwrap();
/// let counter = Counter2D::builder().width(1).elastic_capacity(4).build().unwrap();
/// assert_eq!(widen(&stack).width(), 4);
/// assert_eq!(widen(&queue).width(), 4);
/// assert_eq!(widen(&counter).width(), 4);
/// ```
pub trait ElasticTarget: Send + Sync {
    /// A consistent snapshot of the live window (for the queue: the get
    /// window, which governs dequeue quality).
    fn window(&self) -> WindowInfo;

    /// Number of sub-structures allocated at construction — the hard
    /// ceiling for retuned widths.
    fn capacity(&self) -> usize;

    /// A snapshot of the operation counters; controllers diff successive
    /// snapshots to derive per-interval pressure.
    fn metrics(&self) -> MetricsSnapshot;

    /// Installs new window parameters (non-blocking for concurrent
    /// operations), returning the snapshot that took effect.
    ///
    /// # Errors
    ///
    /// [`RetuneError::ExceedsCapacity`] if `params.width()` exceeds
    /// [`ElasticTarget::capacity`].
    fn retune(&self, params: Params) -> Result<WindowInfo, RetuneError>;

    /// Attempts to commit a pending width shrink; `None` when there is
    /// nothing to commit or its preconditions do not hold yet.
    fn try_commit_shrink(&self) -> Option<WindowInfo>;

    /// Whether the structure was built with elastic headroom (capacity
    /// beyond its initial width), i.e. is meant to be retuned online.
    fn is_elastic(&self) -> bool;

    /// The *configured* relaxation bound of the live window. The default
    /// reads [`WindowInfo::k_bound`]; the counter overrides it with its
    /// own spread-based formula.
    fn k_bound(&self) -> usize {
        self.window().k_bound()
    }

    /// The residency-derived *live* relaxation bound, sound at every
    /// instant including retune transients (see
    /// [`Stack2D::k_bound_instantaneous`](crate::Stack2D::k_bound_instantaneous)
    /// and its queue/counter analogues). Advisory under unquiesced
    /// concurrency.
    fn k_bound_instantaneous(&self) -> usize;

    /// The bound the ops trait family reports for this structure: the
    /// configured bound on the fixed path, widened by the live residency
    /// bound on the elastic path (where a width-grow transient can
    /// legitimately exceed the static formula until resident items
    /// drain). One rule for all three structures, by construction.
    fn reported_bound(&self) -> usize {
        if self.is_elastic() {
            self.k_bound().max(self.k_bound_instantaneous())
        } else {
            self.k_bound()
        }
    }

    /// Short structure name for logs and experiment CSVs.
    fn target_name(&self) -> &'static str {
        "elastic"
    }

    /// The telemetry sink attached to the structure at build time
    /// ([`Builder::recorder`](crate::Builder::recorder)), if any. Elastic
    /// drivers emit their observation→decision→outcome spans through it so
    /// controller activity lands in the same event stream as the
    /// structure's own shifts and retunes. Defaults to `None`.
    fn recorder(&self) -> Option<&dyn Recorder> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Params, Stack2D};

    // Compile-time checks that the trait is usable generically with scoped
    // threads, which is how the workload runner consumes it.
    fn parallel_sum<S: RelaxedOps<u64>>(s: &S, threads: usize, per: usize) -> u64 {
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for t in 0..threads {
                joins.push(scope.spawn(move || {
                    let mut h = s.ops_handle();
                    for i in 0..per {
                        h.produce((t * per + i) as u64);
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
        });
        let mut h = s.ops_handle();
        let mut sum = 0;
        while let Some(v) = h.consume() {
            sum += v;
        }
        sum
    }

    #[test]
    fn generic_driver_works_over_the_trait() {
        let stack = Stack2D::new(Params::new(4, 2, 1).unwrap());
        let n = 4 * 500u64;
        let expect = n * (n - 1) / 2;
        assert_eq!(parallel_sum(&stack, 4, 500), expect);
    }

    #[test]
    fn default_relaxation_bound_is_none() {
        struct Dummy;
        struct DummyHandle;
        impl OpsHandle<u8> for DummyHandle {
            fn produce(&mut self, _: u8) {}
            fn consume(&mut self) -> Option<u8> {
                None
            }
        }
        impl RelaxedOps<u8> for Dummy {
            type Handle<'a> = DummyHandle;
            fn ops_handle(&self) -> DummyHandle {
                DummyHandle
            }
            fn name(&self) -> &'static str {
                "dummy"
            }
        }
        assert_eq!(Dummy.relaxation_bound(), None);
    }
}
