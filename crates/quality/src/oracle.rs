//! The error-distance oracle — the paper's quality-measurement method (§4).
//!
//! *"A sequential linked list is run alongside the stack; for each Push or
//! Pop a simultaneous insert or delete is performed on the list. ... the
//! delete operation searches for the given item, deletes it and returns its
//! distance from the head (error distance)."*
//!
//! [`Oracle`] is that list. Items are identified by unique labels; an insert
//! places the label at the head, a delete reports the label's rank from the
//! head. Internally the list is an order-statistics structure (a Fenwick
//! tree over insertion sequence numbers — head-inserts give newer items
//! higher sequence numbers, so *rank from head = number of live labels with
//! a higher sequence number*), giving O(log n) deletes instead of the O(n)
//! scan of a literal list. [`NaiveOracle`] is the literal list, kept as the
//! cross-check implementation for property tests.
//!
//! [`MeasuredStack`] couples any [`RelaxedOps`] stack with an oracle under a
//! single mutex, exactly reproducing the paper's "simultaneous" update
//! semantics. Quality runs are therefore partially serialized — as they are
//! in the paper's methodology (quality and throughput are separate
//! experiments; see DESIGN.md §3).

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::fenwick::Fenwick;
use crate::stats::ErrorStats;
use stack2d::{OpsHandle, RelaxedOps};

/// Unique item label used by the measurement runs.
pub type Label = u64;

/// Order-statistics implementation of the paper's sequential side list.
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
#[derive(Debug, Default)]
pub struct Oracle {
    /// Live labels → insertion sequence number.
    seq_of: HashMap<Label, usize>,
    /// 1 at every live sequence number.
    live: Fenwick,
    next_seq: usize,
}

impl Oracle {
    /// Creates an empty oracle list.
    pub fn new() -> Self {
        Oracle { seq_of: HashMap::new(), live: Fenwick::new(), next_seq: 0 }
    }

    /// Inserts `label` at the head of the list.
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

    /// Deletes `label`, returning its distance from the head (0 = it *was*
    /// the head, i.e. a perfectly strict pop), or `None` if the label is not
    /// live.
    pub fn delete(&mut self, label: Label) -> Option<u32> {
        let seq = self.seq_of.remove(&label)?;
        // Rank from head = live items inserted more recently than `label`.
        let rank = self.live.count_above(seq);
        self.live.add(seq, -1);
        Some(rank as u32)
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

/// Literal linked-list oracle (a `Vec` with head at the back): O(n) deletes.
///
/// Exists to cross-validate [`Oracle`] in tests; behaviourally identical.
#[derive(Debug, Default)]
pub struct NaiveOracle {
    /// Head is the last element.
    items: Vec<Label>,
}

impl NaiveOracle {
    /// Creates an empty list.
    pub fn new() -> Self {
        NaiveOracle { items: Vec::new() }
    }

    /// Inserts `label` at the head.
    pub fn insert(&mut self, label: Label) {
        self.items.push(label);
    }

    /// Deletes `label`, returning its distance from the head.
    pub fn delete(&mut self, label: Label) -> Option<u32> {
        let pos_from_back = self.items.iter().rev().position(|&l| l == label)?;
        let idx = self.items.len() - 1 - pos_from_back;
        self.items.remove(idx);
        Some(pos_from_back as u32)
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

/// A [`RelaxedOps`] stack of labels coupled with an [`Oracle`] under one
/// mutex — the paper's instrumented quality-measurement configuration.
///
/// `push()` pushes a fresh unique label and inserts it into the oracle;
/// `pop()` pops a label and records its error distance. Use
/// [`MeasuredStack::take_stats`] after the run.
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
pub struct MeasuredStack<'s, S> {
    stack: &'s S,
    inner: Mutex<MeasuredInner>,
}

struct MeasuredInner {
    oracle: Oracle,
    stats: ErrorStats,
    next_label: Label,
}

impl<'s, S: RelaxedOps<Label>> MeasuredStack<'s, S> {
    /// Wraps `stack` for measured runs.
    pub fn new(stack: &'s S) -> Self {
        MeasuredStack {
            stack,
            inner: Mutex::new(MeasuredInner {
                oracle: Oracle::new(),
                stats: ErrorStats::new(),
                next_label: 0,
            }),
        }
    }

    /// The wrapped stack.
    pub fn stack(&self) -> &'s S {
        self.stack
    }

    /// Registers a measuring handle for the calling thread.
    pub fn handle(&self) -> MeasuredHandle<'_, 's, S> {
        MeasuredHandle { measured: self, inner: self.stack.ops_handle() }
    }

    /// Registers a measuring handle with a deterministic RNG seed —
    /// the trait-level [`RelaxedOps::ops_handle_seeded`] makes this work
    /// for every algorithm without special-casing concrete types.
    pub fn handle_seeded(&self, seed: u64) -> MeasuredHandle<'_, 's, S> {
        MeasuredHandle { measured: self, inner: self.stack.ops_handle_seeded(seed) }
    }

    /// Pre-fills the stack with `n` labelled items (the paper initializes
    /// every experiment with 32,768 items).
    pub fn prefill(&self, n: usize) {
        let mut h = self.handle();
        for _ in 0..n {
            h.push();
        }
    }

    /// Extracts the recorded error distances, resetting the accumulator.
    pub fn take_stats(&self) -> ErrorStats {
        core::mem::take(&mut self.inner.lock().stats)
    }

    /// Number of items the oracle currently believes live.
    pub fn oracle_len(&self) -> usize {
        self.inner.lock().oracle.len()
    }
}

impl<S: core::fmt::Debug> core::fmt::Debug for MeasuredStack<'_, S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MeasuredStack").field("stack", &self.stack).finish()
    }
}

/// Per-thread handle performing simultaneous stack + oracle operations.
pub struct MeasuredHandle<'m, 's, S: RelaxedOps<Label>> {
    measured: &'m MeasuredStack<'s, S>,
    inner: S::Handle<'s>,
}

impl<S: RelaxedOps<Label>> MeasuredHandle<'_, '_, S> {
    /// Pushes a fresh unique label (stack and oracle updated atomically
    /// with respect to other measured operations).
    pub fn push(&mut self) {
        let mut g = self.measured.inner.lock();
        let label = g.next_label;
        g.next_label += 1;
        self.inner.produce(label);
        g.oracle.insert(label);
    }

    /// Pops a label and records its error distance; returns whether an item
    /// was obtained.
    pub fn pop(&mut self) -> bool {
        let mut g = self.measured.inner.lock();
        match self.inner.consume() {
            Some(label) => {
                let dist = g.oracle.delete(label).expect("popped label must be live in the oracle");
                g.stats.record(dist);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn naive_and_fenwick_oracles_agree() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut fast = Oracle::new();
        let mut naive = NaiveOracle::new();
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
