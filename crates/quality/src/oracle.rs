//! The error-distance oracle — the paper's quality-measurement method (§4).
//!
//! *"A sequential linked list is run alongside the stack; for each Push or
//! Pop a simultaneous insert or delete is performed on the list. ... the
//! delete operation searches for the given item, deletes it and returns its
//! distance from the head (error distance)."*
//!
//! [`SideList`] is that list, for either removal [`Order`]. Items are
//! identified by unique labels; a delete reports how many live labels a
//! strict structure would have removed first: for a stack ([`Oracle`]) the
//! labels inserted *after* it (its rank from the head), for a queue
//! ([`FifoOracle`]) the labels inserted *before* it (how many older items
//! the dequeue overtook). Internally the list is an order-statistics
//! structure (a Fenwick tree over insertion sequence numbers), giving
//! O(log n) deletes instead of the O(n) scan of a literal list.
//! [`NaiveOracle`] is the literal list, kept as the cross-check
//! implementation for property tests.
//!
//! [`Measured`] couples any [`RelaxedOps`] structure with a side list under
//! a single mutex, exactly reproducing the paper's "simultaneous" update
//! semantics. Built with [`Measured::elastic`] over an [`ElasticTarget`]
//! (`Stack2D`, `Queue2D`), it also brackets every removal with the window
//! generation in force, producing the [`SegRecord`]s that
//! [`check_segments`](crate::segmented::check_segments) verifies per
//! generation segment. Quality runs are therefore partially serialized —
//! as they are in the paper's methodology (quality and throughput are
//! separate experiments; see DESIGN.md §3).

use std::collections::HashMap;
use std::marker::PhantomData;

use stack2d::sync::Mutex;
use stack2d::{ElasticTarget, OpsHandle, RelaxedOps};

use crate::fenwick::Fenwick;
use crate::segmented::SegRecord;
use crate::stats::ErrorStats;

/// Unique item label used by the measurement runs.
pub type Label = u64;

/// The removal order a side list measures against.
pub trait Order: Send {
    /// The error distance of removing a live item that has `older` live
    /// items inserted before it and `newer` inserted after it: how many of
    /// them a strict structure would have removed first.
    fn distance(older: usize, newer: usize) -> usize;
}

/// Stack order: a strict pop takes the newest item, so a pop's distance is
/// its rank from the head.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lifo;

/// Queue order: a strict dequeue takes the oldest item, so a dequeue's
/// distance is the number of older items it overtook.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl Order for Lifo {
    fn distance(_older: usize, newer: usize) -> usize {
        newer
    }
}

impl Order for Fifo {
    fn distance(older: usize, _newer: usize) -> usize {
        older
    }
}

/// Order-statistics implementation of the paper's sequential side list.
#[derive(Debug, Default)]
pub struct SideList<O> {
    /// Live labels → insertion sequence number.
    seq_of: HashMap<Label, usize>,
    /// 1 at every live sequence number.
    live: Fenwick,
    next_seq: usize,
    order: PhantomData<O>,
}

/// The stack side list: a delete reports the label's distance from the
/// head.
///
/// # Examples
///
/// ```
/// use stack2d_quality::oracle::Oracle;
///
/// let mut o = Oracle::new();
/// o.insert(10);
/// o.insert(11);
/// // 11 is at the head: distance 0. 10 is one below: distance 1.
/// assert_eq!(o.delete(10), Some(1));
/// assert_eq!(o.delete(11), Some(0));
/// assert_eq!(o.delete(12), None);
/// ```
pub type Oracle = SideList<Lifo>;

/// The queue side list: a delete reports how many older labels are still
/// live (the overtake count).
///
/// # Examples
///
/// ```
/// use stack2d_quality::oracle::FifoOracle;
///
/// let mut o = FifoOracle::new();
/// o.insert(10);
/// o.insert(11);
/// // 10 is the oldest: overtakes nothing. Taking 11 first would overtake
/// // the still-resident 10.
/// assert_eq!(o.delete(11), Some(1));
/// assert_eq!(o.delete(10), Some(0));
/// assert_eq!(o.delete(12), None);
/// ```
pub type FifoOracle = SideList<Fifo>;

impl<O: Order> SideList<O> {
    /// Creates an empty side list.
    pub fn new() -> Self {
        SideList { seq_of: HashMap::new(), live: Fenwick::new(), next_seq: 0, order: PhantomData }
    }

    /// Inserts `label` as the newest live item.
    ///
    /// # Panics
    ///
    /// Panics if `label` is already live (labels must be unique).
    pub fn insert(&mut self, label: Label) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let prev = self.seq_of.insert(label, seq);
        assert!(prev.is_none(), "label {label} inserted twice");
        self.live.add(seq, 1);
    }

    /// Deletes `label`, returning its error distance under `O` (0 = a
    /// perfectly strict removal), or `None` if the label is not live.
    pub fn delete(&mut self, label: Label) -> Option<u32> {
        let seq = self.seq_of.remove(&label)?;
        let newer = self.live.count_above(seq) as usize;
        self.live.add(seq, -1);
        let older = self.seq_of.len() - newer;
        Some(O::distance(older, newer) as u32)
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.seq_of.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.seq_of.is_empty()
    }
}

/// Literal list oracle (a `Vec` in insertion order): O(n) deletes.
///
/// Exists to cross-validate [`SideList`] in tests; behaviourally identical
/// for the same [`Order`].
#[derive(Debug, Default)]
pub struct NaiveOracle<O> {
    /// Oldest first.
    items: Vec<Label>,
    order: PhantomData<O>,
}

impl<O: Order> NaiveOracle<O> {
    /// Creates an empty list.
    pub fn new() -> Self {
        NaiveOracle { items: Vec::new(), order: PhantomData }
    }

    /// Inserts `label` as the newest item.
    pub fn insert(&mut self, label: Label) {
        self.items.push(label);
    }

    /// Deletes `label`, returning its error distance under `O`.
    pub fn delete(&mut self, label: Label) -> Option<u32> {
        let older = self.items.iter().position(|&l| l == label)?;
        self.items.remove(older);
        Some(O::distance(older, self.items.len() - older) as u32)
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A [`RelaxedOps`] structure of labels coupled with a [`SideList`] under
/// one mutex — the paper's instrumented quality-measurement configuration.
///
/// A handle's `push()` produces a fresh unique label and inserts it into
/// the side list; `pop()` consumes a label and records its error distance
/// into [`Measured::take_stats`]. Built with [`Measured::elastic`], every
/// pop also records a [`SegRecord`] — the window generations and live
/// bound observed around it and the item's push-side staleness — into
/// [`Measured::take_records`], so dynamic relaxation stays verifiable.
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Stack2D};
/// use stack2d_quality::segmented::{bounds_map, check_segments};
/// use stack2d_quality::MeasuredStack;
///
/// let stack = Stack2D::builder().params(Params::new(2, 1, 1).unwrap()).elastic_capacity(8).build().unwrap();
/// let initial = stack.window();
/// let measured = MeasuredStack::elastic(&stack);
/// let mut h = measured.handle();
/// for _ in 0..100 {
///     h.push();
/// }
/// let grown = stack.retune(Params::new(8, 1, 1).unwrap()).unwrap();
/// for _ in 0..100 {
///     assert!(h.pop());
/// }
/// let bounds = bounds_map(initial, [(grown.generation(), grown.k_bound())]);
/// let report = check_segments(&measured.take_records(), &bounds).unwrap();
/// assert_eq!(report.pops, 100);
/// assert_eq!(measured.take_stats().len(), 100);
/// ```
pub struct Measured<'s, S, O> {
    target: &'s S,
    /// The target's window, when built with [`Measured::elastic`].
    elastic: Option<&'s dyn ElasticTarget>,
    state: Mutex<State<O>>,
}

/// A [`Measured`] stack: pops are measured against LIFO order.
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Stack2D};
/// use stack2d_quality::oracle::MeasuredStack;
///
/// let stack = Stack2D::new(Params::new(2, 1, 1).unwrap());
/// let measured = MeasuredStack::new(&stack);
/// let mut h = measured.handle();
/// h.push();
/// h.push();
/// assert!(h.pop());
/// let stats = measured.take_stats();
/// assert_eq!(stats.len(), 1);
/// ```
pub type MeasuredStack<'s, S> = Measured<'s, S, Lifo>;

/// A [`Measured`] queue: dequeues are measured against FIFO order.
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Queue2D};
/// use stack2d_quality::segmented::{bounds_map, check_segments};
/// use stack2d_quality::MeasuredQueue;
///
/// let queue = Queue2D::builder().params(Params::new(2, 1, 1).unwrap()).elastic_capacity(8).build().unwrap();
/// let initial = queue.window();
/// let measured = MeasuredQueue::elastic(&queue);
/// let mut h = measured.handle();
/// for _ in 0..100 {
///     h.push();
/// }
/// let grown = queue.retune(Params::new(8, 1, 1).unwrap()).unwrap();
/// for _ in 0..100 {
///     assert!(h.pop());
/// }
/// let bounds = bounds_map(initial, [(grown.generation(), grown.k_bound())]);
/// let report = check_segments(&measured.take_records(), &bounds).unwrap();
/// assert_eq!(report.pops, 100);
/// assert_eq!(measured.take_stats().len(), 100);
/// ```
pub type MeasuredQueue<'s, S> = Measured<'s, S, Fifo>;

struct State<O> {
    list: SideList<O>,
    next_label: Label,
    stats: ErrorStats,
    records: Vec<SegRecord>,
    /// Window generation observed when each live label was pushed (elastic
    /// runs only) — the push side of the staleness analysis
    /// ([`SegRecord::age`]).
    push_gen: HashMap<Label, u64>,
}

impl<'s, S: RelaxedOps<Label>, O: Order> Measured<'s, S, O> {
    /// Wraps `target` for measured runs that record plain error distances.
    pub fn new(target: &'s S) -> Self {
        Self::with_window(target, None)
    }

    /// Wraps an elastic `target` for measured runs that also record a
    /// generation-bracketed [`SegRecord`] per pop.
    pub fn elastic(target: &'s S) -> Self
    where
        S: ElasticTarget,
    {
        Self::with_window(target, Some(target))
    }

    fn with_window(target: &'s S, elastic: Option<&'s dyn ElasticTarget>) -> Self {
        let state = State {
            list: SideList::new(),
            next_label: 0,
            stats: ErrorStats::new(),
            records: Vec::new(),
            push_gen: HashMap::new(),
        };
        Measured { target, elastic, state: Mutex::new(state) }
    }

    /// The wrapped structure.
    pub fn target(&self) -> &'s S {
        self.target
    }

    /// Registers a measuring handle for the calling thread.
    pub fn handle(&self) -> MeasuredHandle<'_, 's, S, O> {
        MeasuredHandle { measured: self, inner: self.target.ops_handle() }
    }

    /// Registers a measuring handle with a deterministic RNG seed —
    /// the trait-level [`RelaxedOps::ops_handle_seeded`] makes this work
    /// for every algorithm without special-casing concrete types.
    pub fn handle_seeded(&self, seed: u64) -> MeasuredHandle<'_, 's, S, O> {
        MeasuredHandle { measured: self, inner: self.target.ops_handle_seeded(seed) }
    }

    /// Pre-fills the structure with `n` labelled items (the paper
    /// initializes every experiment with 32,768 items).
    pub fn prefill(&self, n: usize) {
        let mut h = self.handle();
        for _ in 0..n {
            h.push();
        }
    }

    /// Extracts the recorded error distances, resetting the accumulator.
    pub fn take_stats(&self) -> ErrorStats {
        core::mem::take(&mut self.state.lock().stats)
    }

    /// Extracts the recorded generation-bracketed pops (always empty
    /// unless built with [`Measured::elastic`]), resetting the
    /// accumulator.
    pub fn take_records(&self) -> Vec<SegRecord> {
        core::mem::take(&mut self.state.lock().records)
    }

    /// Number of items the side list currently believes live.
    pub fn oracle_len(&self) -> usize {
        self.state.lock().list.len()
    }
}

/// Per-thread handle performing simultaneous structure + side-list
/// operations.
pub struct MeasuredHandle<'m, 's, S: RelaxedOps<Label>, O> {
    measured: &'m Measured<'s, S, O>,
    inner: S::Handle<'s>,
}

impl<S: RelaxedOps<Label>, O: Order> MeasuredHandle<'_, '_, S, O> {
    /// Pushes a fresh unique label (structure and side list updated
    /// atomically with respect to other measured operations).
    pub fn push(&mut self) {
        let mut g = self.measured.state.lock();
        let label = g.next_label;
        g.next_label += 1;
        // Sample the generation *before* the push: a retune racing the
        // push then over-counts the item's age by one, which is the safe
        // direction for a reported maximum (sampling after would
        // under-count it).
        let generation = self.measured.elastic.map(|w| w.window().generation());
        self.inner.produce(label);
        g.list.insert(label);
        if let Some(generation) = generation {
            g.push_gen.insert(label, generation);
        }
    }

    /// Pops a label and records its error distance — on an elastic run
    /// together with the window generations and live residency bound
    /// observed around the pop, plus the item's push-side staleness;
    /// returns whether an item was obtained.
    pub fn pop(&mut self) -> bool {
        let mut g = self.measured.state.lock();
        let before =
            self.measured.elastic.map(|w| (w.window().generation(), w.k_bound_instantaneous()));
        let Some(label) = self.inner.consume() else { return false };
        let distance = g.list.delete(label).expect("popped label must be live in the side list");
        g.stats.record(distance);
        if let (Some(w), Some((gen_lo, live_before))) = (self.measured.elastic, before) {
            let gen_hi = w.window().generation();
            let live_bound = live_before.max(w.k_bound_instantaneous());
            let pushed_at =
                g.push_gen.remove(&label).expect("popped label must have a push record");
            let age = gen_lo.saturating_sub(pushed_at);
            g.records.push(SegRecord { distance, gen_lo, gen_hi, live_bound, age });
        }
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use stack2d_baselines::{LockedStack, TreiberStack};

    #[test]
    fn oracle_strict_lifo_has_zero_distance() {
        let mut o = Oracle::new();
        for l in 0..100 {
            o.insert(l);
        }
        for l in (0..100).rev() {
            assert_eq!(o.delete(l), Some(0), "strict LIFO pops are always at the head");
        }
        assert!(o.is_empty());
    }

    #[test]
    fn oracle_fifo_has_maximal_distance() {
        let mut o = Oracle::new();
        for l in 0..10 {
            o.insert(l);
        }
        // FIFO removal: item 0 sits at distance 9, then 8, ...
        for (i, l) in (0..10).enumerate() {
            assert_eq!(o.delete(l), Some((9 - i) as u32));
        }
    }

    #[test]
    fn oracle_delete_unknown_is_none() {
        let mut o = Oracle::new();
        o.insert(1);
        assert_eq!(o.delete(99), None);
        assert_eq!(o.len(), 1);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn oracle_duplicate_insert_panics() {
        let mut o = Oracle::new();
        o.insert(1);
        o.insert(1);
    }

    /// Random inserts and deletes: the Fenwick list and the literal list
    /// must report the same distance for every delete.
    pub(crate) fn agree_with_naive<O: Order>(seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fast = SideList::<O>::new();
        let mut naive = NaiveOracle::<O>::new();
        let mut live: Vec<Label> = Vec::new();
        let mut next = 0;
        for _ in 0..5_000 {
            if live.is_empty() || rng.random_bool(0.55) {
                fast.insert(next);
                naive.insert(next);
                live.push(next);
                next += 1;
            } else {
                let idx = rng.random_range(0..live.len());
                let label = live.swap_remove(idx);
                assert_eq!(fast.delete(label), naive.delete(label), "label {label}");
            }
            assert_eq!(fast.len(), naive.len());
        }
    }

    #[test]
    fn naive_and_fenwick_oracles_agree() {
        agree_with_naive::<Lifo>(11);
    }

    #[test]
    fn measured_treiber_is_always_exact() {
        let stack = TreiberStack::new();
        let measured = MeasuredStack::new(&stack);
        let mut h = measured.handle();
        for _ in 0..500 {
            h.push();
        }
        for _ in 0..500 {
            assert!(h.pop());
        }
        let stats = measured.take_stats();
        assert_eq!(stats.len(), 500);
        assert_eq!(stats.max(), 0, "a strict stack must have zero error distance");
        assert!(measured.take_records().is_empty(), "a plain run records no segments");
    }

    #[test]
    fn measured_concurrent_run_keeps_oracle_consistent() {
        let stack = LockedStack::new();
        let measured = MeasuredStack::new(&stack);
        measured.prefill(100);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = &measured;
                s.spawn(move || {
                    let mut h = m.handle();
                    for i in 0..1_000 {
                        if i % 2 == 0 {
                            h.push();
                        } else {
                            h.pop();
                        }
                    }
                });
            }
        });
        // Oracle and stack agree on residency.
        assert_eq!(measured.oracle_len(), stack.len());
    }

    #[test]
    fn measured_pop_on_empty_records_nothing() {
        let stack: TreiberStack<Label> = TreiberStack::new();
        let measured = MeasuredStack::new(&stack);
        let mut h = measured.handle();
        assert!(!h.pop());
        assert!(measured.take_stats().is_empty());
    }

    #[test]
    fn take_stats_resets() {
        let stack = TreiberStack::new();
        let measured = MeasuredStack::new(&stack);
        let mut h = measured.handle();
        h.push();
        h.pop();
        assert_eq!(measured.take_stats().len(), 1);
        assert_eq!(measured.take_stats().len(), 0);
    }
}
