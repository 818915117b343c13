//! # stack2d-quality — relaxation-quality measurement substrate
//!
//! The 2D-Stack paper plots two quantities per experiment: throughput and
//! **accuracy** ("quality"), the latter *"measured in terms of error
//! distance from the LIFO semantics"* using a sequential list run alongside
//! the stack (§4). This crate is that measurement apparatus plus offline
//! semantic checkers:
//!
//! * [`oracle`] — the side list and its coupler: [`oracle::SideList`]
//!   (Fenwick-backed order statistics, O(log n) per delete; [`Oracle`]
//!   measures stack pops by rank from the head, [`FifoOracle`] queue
//!   dequeues by overtake count), [`oracle::NaiveOracle`] (literal list
//!   cross-check) and [`oracle::Measured`] (couples any
//!   [`RelaxedOps`](stack2d::RelaxedOps) structure with a side list under
//!   one mutex, the paper's "simultaneous insert/delete"; built over an
//!   elastic `Stack2D` or `Queue2D` it also records generation-bracketed
//!   [`SegRecord`]s);
//! * [`stats`] — error-distance aggregation (mean = the paper's expected
//!   error distance, plus percentiles/max);
//! * [`checker`] — [`checker::check_k_out_of_order`] verifies Theorem 1's
//!   bound on single-threaded traces, and [`checker::Conservation`] does
//!   no-loss/no-duplication item accounting for concurrent runs;
//! * [`segmented`] — the elastic extension: [`segmented::check_segments`]
//!   verifies each recorded error distance against the *instantaneous*
//!   `k_bound()` per generation segment, so online retuning
//!   (`stack2d-adaptive`) stays verifiable;
//! * [`fenwick`] — the order-statistics tree underneath the oracles.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checker;
pub mod fenwick;
pub mod linearize;
pub mod oracle;
pub mod segmented;
#[cfg(test)]
#[path = "fifo_tests.rs"]
mod segmented_queue;
pub mod stats;
pub mod trace;

pub use checker::{check_k_out_of_order, Conservation, TraceOp, TraceReport, Violation};
pub use linearize::{merge_histories, History, HistoryRecorder, SharedClock};
pub use oracle::{
    Fifo, FifoOracle, Label, Lifo, Measured, MeasuredQueue, MeasuredStack, NaiveOracle, Oracle,
    Order, SideList,
};
pub use segmented::{bounds_map, check_segments, SegRecord, SegmentReport, SegmentViolation};
pub use stats::{ErrorStats, ErrorSummary};
pub use trace::{replay, ReplayOutcome, Trace, TraceRecorder};
