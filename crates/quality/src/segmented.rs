//! Per-generation quality verification for elastic (retuned) structures.
//!
//! The static checkers verify one k-bound over a whole run. Under online
//! retuning the bound *changes mid-run*: each descriptor swing starts a new
//! **generation segment**, and the property to verify becomes "every pop's
//! error distance is within the bound that was in force when the pop
//! linearized". The oracle coupler built with
//! [`Measured::elastic`](crate::oracle::Measured::elastic) records, for
//! every pop or dequeue, its error distance *and* the window generation
//! observed immediately before and after it (a [`SegRecord`]): the removal
//! linearized somewhere between the two observations, so the bound in force
//! was one of the generations in `[gen_lo, gen_hi]`. [`check_segments`]
//! verifies each record against a caller-supplied `generation -> k_bound`
//! map (built from the initial window plus the controller's retune log),
//! taking the *maximum* bound over the record's generation range — the
//! tightest claim that is sound without knowing the exact linearization
//! point.

use std::collections::BTreeMap;
use std::fmt;

use stack2d::WindowInfo;

/// One measured pop (or dequeue) under an elastic structure: its error
/// distance, the window generations bracketing it, the live residency
/// bound, and the popped item's push-side staleness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRecord {
    /// Error distance reported by the oracle.
    pub distance: u32,
    /// Window generation observed just before the pop.
    pub gen_lo: u64,
    /// Window generation observed just after the pop (>= `gen_lo`).
    pub gen_hi: u64,
    /// [`ElasticTarget::k_bound_instantaneous`](stack2d::ElasticTarget::k_bound_instantaneous)
    /// observed around the pop — the residency-derived bound that stays
    /// sound through retune transients (a width grow lets items resident at
    /// the swing exceed the static formula until they drain; see DESIGN.md
    /// §6).
    pub live_bound: usize,
    /// Push-side staleness: how many window generations the item survived
    /// between its push and this pop (`gen_lo` minus the generation
    /// observed at push time). The pop-side bound says how far *below the
    /// top* a pop may land; this measures the dual — how long an item can
    /// linger while siblings turn over across retunes.
    pub age: u64,
}

/// A violation found by [`check_segments`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentViolation {
    /// A pop's distance exceeded every bound in force across its
    /// generation range.
    OutOfBound {
        /// Index of the offending record.
        index: usize,
        /// The measured distance.
        distance: u32,
        /// The (maximal) bound in force.
        bound: usize,
        /// Generation observed before the pop.
        gen_lo: u64,
        /// Generation observed after the pop.
        gen_hi: u64,
    },
    /// The bounds map has no entry at or below a record's `gen_lo`.
    MissingBound {
        /// Index of the offending record.
        index: usize,
        /// The generation with no known bound.
        generation: u64,
    },
}

impl fmt::Display for SegmentViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SegmentViolation::OutOfBound { index, distance, bound, gen_lo, gen_hi } => write!(
                f,
                "record {index}: distance {distance} exceeds bound {bound} in force over \
                 generations {gen_lo}..={gen_hi}"
            ),
            SegmentViolation::MissingBound { index, generation } => {
                write!(f, "record {index}: no bound known at or below generation {generation}")
            }
        }
    }
}

impl std::error::Error for SegmentViolation {}

/// Per-generation summary produced by a successful [`check_segments`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Pops attributed to this generation (by their `gen_lo`).
    pub pops: usize,
    /// Largest distance observed.
    pub max_distance: u32,
    /// The configured bound of this generation (from the bounds map).
    pub bound: usize,
    /// Pops whose distance exceeded the configured bound and were covered
    /// by the live residency bound instead (retune transients).
    pub transients: usize,
    /// Push-side staleness: the largest [`SegRecord::age`] among items
    /// popped in this generation — the most generations any surviving
    /// item weathered before surfacing here.
    pub max_age: u64,
}

/// Result of a successful segment check: headline numbers plus a
/// per-generation breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentReport {
    /// Total pops checked.
    pub pops: usize,
    /// Largest distance observed anywhere.
    pub max_distance: u32,
    /// Largest push-side staleness (in generations) observed anywhere.
    pub max_age: u64,
    /// Per-generation statistics, keyed by `gen_lo`.
    pub segments: BTreeMap<u64, SegmentStats>,
}

/// The bound in force over `[gen_lo, gen_hi]`: the maximum mapped bound
/// among the floor entry at-or-below `gen_lo` and every entry inside the
/// range. `None` when no entry exists at or below `gen_lo`.
fn bound_over(bounds: &BTreeMap<u64, usize>, gen_lo: u64, gen_hi: u64) -> Option<usize> {
    let floor = bounds.range(..=gen_lo).next_back().map(|(_, &b)| b)?;
    let inside = if gen_hi > gen_lo {
        bounds.range(gen_lo + 1..=gen_hi).map(|(_, &b)| b).max()
    } else {
        None
    };
    Some(inside.map_or(floor, |m| m.max(floor)))
}

/// Verifies every record's distance against the instantaneous bound of
/// its generation range: the **maximum** of the configured bound in force
/// across `[gen_lo, gen_hi]` and the record's live residency bound.
///
/// The configured bound is the steady-state guarantee; the live bound
/// ([`SegRecord::live_bound`]) covers retune transients, where items
/// resident at a width-grow legitimately exceed the static formula until
/// they drain (DESIGN.md §6). Pops needing the live bound are tallied as
/// `transients` per segment, so reports make the transient volume visible
/// instead of hiding it.
///
/// `bounds` maps each generation to the configured `k_bound` of the
/// descriptor that took effect there — generation 0 (the initial window)
/// plus one entry per retune/commit event ([`bounds_map`]). Gaps are
/// filled with the nearest bound at a lower generation.
///
/// Alongside the pop-side bound check, the report aggregates the **push
/// side**: each record's [`SegRecord::age`] (generations survived between
/// push and pop) rolls up into per-generation and global `max_age` — the
/// tightness analysis of how *stale* a surviving item can get while the
/// window retunes around it. Staleness is reported, not checked: no finite
/// bound on it exists (an item parked in a sub-structure below every later
/// window survives arbitrarily many generations), which is exactly why the
/// number is worth surfacing next to the bounded distances.
///
/// # Errors
///
/// The first [`SegmentViolation`] found.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
/// use stack2d_quality::segmented::{check_segments, SegRecord};
///
/// let bounds = BTreeMap::from([(0, 9), (1, 93)]);
/// let records = [
///     SegRecord { distance: 9, gen_lo: 0, gen_hi: 0, live_bound: 0, age: 0 },
///     // Linearized across the retune: the wide bound applies.
///     SegRecord { distance: 40, gen_lo: 0, gen_hi: 1, live_bound: 0, age: 0 },
///     // Pushed at generation 0, popped at 1: one generation stale.
///     SegRecord { distance: 93, gen_lo: 1, gen_hi: 1, live_bound: 0, age: 1 },
/// ];
/// let report = check_segments(&records, &bounds).unwrap();
/// assert_eq!(report.pops, 3);
/// assert_eq!(report.max_distance, 93);
/// assert_eq!(report.max_age, 1);
/// let out_of_bound = SegRecord { distance: 10, gen_lo: 0, gen_hi: 0, live_bound: 0, age: 0 };
/// assert!(check_segments(&[out_of_bound], &bounds).is_err());
/// ```
pub fn check_segments(
    records: &[SegRecord],
    bounds: &BTreeMap<u64, usize>,
) -> Result<SegmentReport, SegmentViolation> {
    let mut report = SegmentReport::default();
    for (index, r) in records.iter().enumerate() {
        let configured = bound_over(bounds, r.gen_lo, r.gen_hi)
            .ok_or(SegmentViolation::MissingBound { index, generation: r.gen_lo })?;
        let bound = configured.max(r.live_bound);
        if r.distance as usize > bound {
            return Err(SegmentViolation::OutOfBound {
                index,
                distance: r.distance,
                bound,
                gen_lo: r.gen_lo,
                gen_hi: r.gen_hi,
            });
        }
        report.pops += 1;
        report.max_distance = report.max_distance.max(r.distance);
        report.max_age = report.max_age.max(r.age);
        let seg = report.segments.entry(r.gen_lo).or_default();
        seg.pops += 1;
        seg.max_distance = seg.max_distance.max(r.distance);
        seg.bound = seg.bound.max(configured);
        seg.max_age = seg.max_age.max(r.age);
        if r.distance as usize > configured {
            seg.transients += 1;
        }
    }
    Ok(report)
}

/// Builds the `generation -> k_bound` map [`check_segments`] consumes from
/// the initial window plus an iterator of `(generation, k_bound)` pairs
/// (e.g. the adaptive crate's retune events).
pub fn bounds_map(
    initial: WindowInfo,
    events: impl IntoIterator<Item = (u64, usize)>,
) -> BTreeMap<u64, usize> {
    let mut map = BTreeMap::from([(initial.generation(), initial.k_bound())]);
    for (generation, k_bound) in events {
        map.insert(generation, k_bound);
    }
    map
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::oracle::{Label, Measured, MeasuredStack, Order};
    use stack2d::{ElasticTarget, Params, RelaxedOps, Stack2D};

    pub(crate) fn p(w: usize, d: usize, s: usize) -> Params {
        Params::new(w, d, s).unwrap()
    }

    fn elastic_stack(params: Params, capacity: usize) -> Stack2D<Label> {
        Stack2D::builder().params(params).elastic_capacity(capacity).build().unwrap()
    }

    #[test]
    fn bound_over_uses_floor_and_range_max() {
        let bounds = BTreeMap::from([(0u64, 9usize), (3, 93), (5, 0)]);
        assert_eq!(bound_over(&bounds, 0, 0), Some(9));
        assert_eq!(bound_over(&bounds, 1, 2), Some(9)); // gap: floor at 0
        assert_eq!(bound_over(&bounds, 2, 3), Some(93)); // crosses the widen
        assert_eq!(bound_over(&bounds, 5, 5), Some(0));
        assert_eq!(bound_over(&bounds, 4, 6), Some(93)); // max over range
    }

    #[test]
    fn missing_floor_is_reported() {
        let bounds = BTreeMap::from([(4u64, 9usize)]);
        let rec = SegRecord { distance: 0, gen_lo: 2, gen_hi: 2, live_bound: 0, age: 0 };
        let err = check_segments(&[rec], &bounds).unwrap_err();
        assert_eq!(err, SegmentViolation::MissingBound { index: 0, generation: 2 });
    }

    #[test]
    fn report_groups_by_generation() {
        let bounds = BTreeMap::from([(0u64, 10usize), (1, 50)]);
        let records = [
            SegRecord { distance: 4, gen_lo: 0, gen_hi: 0, live_bound: 0, age: 0 },
            SegRecord { distance: 7, gen_lo: 0, gen_hi: 1, live_bound: 0, age: 0 },
            SegRecord { distance: 33, gen_lo: 1, gen_hi: 1, live_bound: 0, age: 1 },
        ];
        let report = check_segments(&records, &bounds).unwrap();
        assert_eq!(report.pops, 3);
        assert_eq!(report.max_distance, 33);
        assert_eq!(report.segments[&0].pops, 2);
        assert_eq!(report.segments[&1].max_distance, 33);
        assert_eq!(report.segments[&1].bound, 50);
        assert_eq!(report.segments[&1].transients, 0);
    }

    #[test]
    fn live_bound_covers_transients_and_is_tallied() {
        let bounds = BTreeMap::from([(0u64, 10usize)]);
        // Distance beyond the configured bound but within the residency
        // bound observed at the pop: a retune transient, not a violation.
        let transient = SegRecord { distance: 40, gen_lo: 0, gen_hi: 0, live_bound: 64, age: 0 };
        let report = check_segments(&[transient], &bounds).unwrap();
        assert_eq!(report.segments[&0].transients, 1);
        // Beyond both bounds: a real violation.
        let bad = SegRecord { distance: 99, gen_lo: 0, gen_hi: 0, live_bound: 64, age: 0 };
        let err = check_segments(&[bad], &bounds).unwrap_err();
        assert!(matches!(err, SegmentViolation::OutOfBound { bound: 64, .. }), "{err}");
    }

    #[test]
    fn violation_display_is_informative() {
        let v =
            SegmentViolation::OutOfBound { index: 3, distance: 11, bound: 9, gen_lo: 1, gen_hi: 2 };
        let s = v.to_string();
        assert!(s.contains("11") && s.contains("9") && s.contains("1..=2"));
    }

    // The coupler checks below are shared with the queue rows in
    // `segmented_queue`: each runs over a `Stack2D` (LIFO distances) here
    // and over a `Queue2D` (FIFO overtakes) there.

    /// Width 1 => k = 0 in every generation; distances must all be 0.
    pub(crate) fn strict_is_exact_per_segment<S, O>(m: &Measured<'_, S, O>)
    where
        S: RelaxedOps<Label> + ElasticTarget,
        O: Order,
    {
        let initial = m.target().window();
        let mut h = m.handle();
        for _ in 0..50 {
            h.push();
        }
        let e1 = m.target().retune(p(1, 3, 2)).unwrap(); // vertical retune, still width 1
        for _ in 0..50 {
            assert!(h.pop());
        }
        let bounds = bounds_map(initial, [(e1.generation(), e1.k_bound())]);
        let report = check_segments(&m.take_records(), &bounds).unwrap();
        assert_eq!(report.pops, 50);
        assert_eq!(
            report.max_distance,
            0,
            "{}: width-1 segments must be strict",
            m.target().name()
        );
    }

    pub(crate) fn single_thread_respects_segment_bounds<S, O>(m: &Measured<'_, S, O>)
    where
        S: RelaxedOps<Label> + ElasticTarget,
        O: Order,
    {
        let target = m.target();
        let initial = target.window();
        let mut events = Vec::new();
        let mut h = m.handle();
        for width in [16, 4, 8, 2] {
            for _ in 0..200 {
                h.push();
            }
            for _ in 0..150 {
                h.pop();
            }
            let info = target.retune(p(width, 1, 1)).unwrap();
            events.push((info.generation(), info.k_bound()));
            if let Some(info) = target.try_commit_shrink() {
                events.push((info.generation(), info.k_bound()));
            }
        }
        while h.pop() {}
        let bounds = bounds_map(initial, events);
        let report = check_segments(&m.take_records(), &bounds).unwrap();
        assert_eq!(report.pops, 800, "{}", target.name());
        assert_eq!(m.oracle_len(), 0);
        assert!(report.segments.len() > 1, "multiple generations must appear");
    }

    /// Prefills 100 labels and removes 30; returns the side list's count.
    pub(crate) fn churn<S: RelaxedOps<Label>, O: Order>(m: &Measured<'_, S, O>) -> usize {
        m.prefill(100);
        let mut h = m.handle();
        for _ in 0..30 {
            h.pop();
        }
        m.oracle_len()
    }

    #[test]
    fn measured_elastic_strict_stack_is_exact_per_segment() {
        strict_is_exact_per_segment(&MeasuredStack::elastic(&elastic_stack(p(1, 1, 1), 4)));
    }

    #[test]
    fn measured_elastic_single_thread_respects_segment_bounds() {
        single_thread_respects_segment_bounds(&MeasuredStack::elastic(&elastic_stack(
            p(2, 1, 1),
            16,
        )));
    }

    #[test]
    fn oracle_and_stack_agree_on_residency() {
        let stack = elastic_stack(p(4, 2, 1), 8);
        assert_eq!(churn(&MeasuredStack::elastic(&stack)), 70);
        assert_eq!(stack.len(), 70);
    }

    #[test]
    fn push_side_staleness_counts_survived_generations() {
        // Items pushed at generation 0 survive three vertical retunes
        // before being popped: their age must reflect every swing.
        let stack = elastic_stack(p(1, 1, 1), 4);
        let initial = stack.window();
        let measured = MeasuredStack::elastic(&stack);
        let mut h = measured.handle();
        for _ in 0..10 {
            h.push();
        }
        let mut events = Vec::new();
        for depth in [2, 3, 4] {
            let info = stack.retune(p(1, depth, 1)).unwrap();
            events.push((info.generation(), info.k_bound()));
        }
        // Fresh pushes at the latest generation have age 0 when popped now.
        for _ in 0..5 {
            h.push();
        }
        while h.pop() {}
        let bounds = bounds_map(initial, events);
        let report = check_segments(&measured.take_records(), &bounds).unwrap();
        assert_eq!(report.pops, 15);
        assert_eq!(report.max_age, 3, "gen-0 survivors weathered three retunes");
        // All pops happened in the final generation; its segment carries
        // both the stale veterans and the fresh age-0 items.
        let seg = report.segments[&3];
        assert_eq!(seg.max_age, 3);
        assert_eq!(seg.pops, 15);
    }

    #[test]
    fn fresh_items_have_zero_age() {
        let stack = elastic_stack(p(2, 1, 1), 4);
        let initial = stack.window();
        let measured = MeasuredStack::elastic(&stack);
        let mut h = measured.handle();
        for _ in 0..50 {
            h.push();
        }
        while h.pop() {}
        let report = check_segments(&measured.take_records(), &bounds_map(initial, [])).unwrap();
        assert_eq!(report.max_age, 0, "no retune happened: nothing can be stale");
    }
}
