//! Trace recording and replay.
//!
//! The offline checker ([`crate::checker`]) consumes operation traces; this
//! module produces them. [`TraceRecorder`] wraps any stack's
//! [`OpsHandle`] and logs every operation with fresh unique labels, and
//! [`replay`] re-executes a trace's schedule against any other stack to
//! compare behaviours. Traces live in memory only: no serializer exists
//! for them.

use crate::checker::{check_k_out_of_order, TraceOp, TraceReport, Violation};
use crate::oracle::Label;
use stack2d::OpsHandle;

/// A recorded single-threaded operation trace.
///
/// # Examples
///
/// ```
/// use stack2d::{Params, Stack2D};
/// use stack2d_quality::trace::TraceRecorder;
///
/// let stack = Stack2D::new(Params::new(2, 1, 1).unwrap());
/// let mut rec = TraceRecorder::new(stack.handle());
/// rec.push();
/// rec.push();
/// rec.pop();
/// let trace = rec.finish();
/// assert_eq!(trace.len(), 3);
/// assert!(trace.verify_k(stack.k_bound()).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    ops: Vec<TraceOp>,
}

impl Trace {
    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The trace as checker input.
    pub fn to_ops(&self) -> Vec<TraceOp> {
        self.ops.clone()
    }

    /// Verifies the trace against a k-out-of-order bound.
    ///
    /// # Errors
    ///
    /// The first [`Violation`] found.
    pub fn verify_k(&self, k: usize) -> Result<TraceReport, Violation> {
        check_k_out_of_order(&self.ops, k)
    }

    /// The tightest bound this trace satisfies (binary search over the
    /// checker); `None` if the trace violates stack semantics at every k
    /// (e.g. pops an unknown label).
    pub fn tightest_k(&self) -> Option<usize> {
        let ops = &self.ops;
        // The error distance is bounded by trace length.
        let mut hi = self.ops.len();
        check_k_out_of_order(ops, hi).ok()?;
        let mut lo = 0usize;
        if check_k_out_of_order(ops, 0).is_ok() {
            return Some(0);
        }
        // Invariant: lo fails, hi passes.
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if check_k_out_of_order(ops, mid).is_ok() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}

/// Records operations performed through a wrapped stack handle.
#[derive(Debug)]
pub struct TraceRecorder<H> {
    handle: H,
    trace: Trace,
    next_label: Label,
}

impl<H: OpsHandle<Label>> TraceRecorder<H> {
    /// Wraps `handle` with an empty trace.
    pub fn new(handle: H) -> Self {
        TraceRecorder { handle, trace: Trace::default(), next_label: 0 }
    }

    /// Pushes a fresh unique label and records it.
    pub fn push(&mut self) {
        let label = self.next_label;
        self.next_label += 1;
        self.handle.produce(label);
        self.trace.ops.push(TraceOp::Push(label));
    }

    /// Pops and records the outcome; returns the label if one was popped.
    pub fn pop(&mut self) -> Option<Label> {
        match self.handle.consume() {
            Some(l) => {
                self.trace.ops.push(TraceOp::Pop(l));
                Some(l)
            }
            None => {
                self.trace.ops.push(TraceOp::PopEmpty);
                None
            }
        }
    }

    /// Finishes recording, returning the trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

/// Outcome of replaying a trace's *schedule* (its push/pop pattern) against
/// another stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Operations replayed.
    pub ops: usize,
    /// Pops that returned a different label than the original run.
    pub divergences: usize,
    /// Pops whose emptiness outcome differed.
    pub empty_mismatches: usize,
}

/// Replays the push/pop *schedule* of `trace` against `handle`, comparing
/// outcomes op by op. Relaxed stacks legitimately diverge in labels; strict
/// stacks replaying a strict trace must not.
pub fn replay<H: OpsHandle<Label>>(trace: &Trace, handle: &mut H) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    for op in &trace.ops {
        out.ops += 1;
        match *op {
            TraceOp::Push(label) => handle.produce(label),
            TraceOp::Pop(expected) => match handle.consume() {
                Some(got) if got == expected => {}
                Some(_) => out.divergences += 1,
                None => out.empty_mismatches += 1,
            },
            TraceOp::PopEmpty => {
                if handle.consume().is_some() {
                    out.empty_mismatches += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack2d::{Params, RelaxedOps, Stack2D};
    use stack2d_baselines::TreiberStack;

    fn record_on_treiber(plan: &[bool]) -> Trace {
        let stack: TreiberStack<Label> = TreiberStack::new();
        let mut rec = TraceRecorder::new(stack.ops_handle());
        for &p in plan {
            if p {
                rec.push();
            } else {
                rec.pop();
            }
        }
        rec.finish()
    }

    #[test]
    fn strict_trace_has_tightest_k_zero() {
        let trace = record_on_treiber(&[true, true, false, false, false]);
        assert_eq!(trace.tightest_k(), Some(0));
        assert!(trace.verify_k(0).is_ok());
    }

    #[test]
    fn relaxed_trace_tightest_k_matches_checker() {
        let stack = Stack2D::new(Params::new(4, 2, 2).unwrap());
        let mut rec = TraceRecorder::new(stack.handle());
        for _ in 0..500 {
            rec.push();
        }
        for _ in 0..500 {
            rec.pop();
        }
        let trace = rec.finish();
        let k = trace.tightest_k().expect("trace must satisfy some k");
        assert!(k <= stack.k_bound(), "tightest k {k} above Theorem 1 bound");
        assert!(trace.verify_k(k).is_ok());
        if k > 0 {
            assert!(trace.verify_k(k - 1).is_err(), "k not tight");
        }
    }

    #[test]
    fn replay_of_strict_trace_on_strict_stack_is_exact() {
        let plan: Vec<bool> = (0..200).map(|i| i % 3 != 2).collect();
        let trace = record_on_treiber(&plan);
        let stack: TreiberStack<Label> = TreiberStack::new();
        let mut h = stack.ops_handle();
        let out = replay(&trace, &mut h);
        assert_eq!(out.ops, trace.len());
        assert_eq!(out.divergences, 0);
        assert_eq!(out.empty_mismatches, 0);
    }

    #[test]
    fn replay_on_relaxed_stack_may_diverge_but_not_mismatch_empty() {
        let plan: Vec<bool> = (0..400).map(|i| i < 200).collect();
        let trace = record_on_treiber(&plan);
        let stack = Stack2D::new(Params::new(4, 2, 1).unwrap());
        let mut h = stack.handle();
        let out = replay(&trace, &mut h);
        // Same schedule, same residency: single-threaded emptiness agrees.
        assert_eq!(out.empty_mismatches, 0);
    }

    #[test]
    fn empty_trace_roundtrip() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.tightest_k(), Some(0));
    }

    #[test]
    fn pop_empty_is_recorded() {
        let trace = record_on_treiber(&[false]);
        assert_eq!(trace.to_ops(), vec![TraceOp::PopEmpty]);
    }
}
