//! # stack2d-quality — relaxation-quality measurement substrate
//!
//! The 2D-Stack paper plots two quantities per experiment: throughput and
//! **accuracy** ("quality"), the latter *"measured in terms of error
//! distance from the LIFO semantics"* using a sequential list run alongside
//! the stack (§4). This crate is that measurement apparatus plus offline
//! semantic checkers:
//!
//! * [`oracle`] — the side list: [`oracle::Oracle`] (Fenwick-backed order
//!   statistics, O(log n) per delete), [`oracle::NaiveOracle`] (literal list
//!   cross-check) and [`oracle::MeasuredStack`] (couples any
//!   [`RelaxedOps`](stack2d::RelaxedOps) stack with the oracle under one
//!   mutex, the paper's "simultaneous insert/delete");
//! * [`stats`] — error-distance aggregation (mean = the paper's expected
//!   error distance, plus percentiles/max);
//! * [`checker`] — [`checker::check_k_out_of_order`] verifies Theorem 1's
//!   bound on single-threaded traces, and [`checker::Conservation`] does
//!   no-loss/no-duplication item accounting for concurrent runs;
//! * [`segmented`] — the elastic extension: [`segmented::MeasuredElastic`]
//!   brackets every pop with the window generation in force, and
//!   [`segmented::check_segments`] verifies the measured error distance
//!   against the *instantaneous* `k_bound()` per generation segment, so
//!   online retuning (`stack2d-adaptive`) stays verifiable;
//! * [`segmented_queue`] — the FIFO mirror for the elastic 2D-Queue:
//!   [`segmented_queue::FifoOracle`] reports how many older items a
//!   dequeue overtook, and [`segmented_queue::MeasuredElasticQueue`]
//!   produces the same per-generation records `check_segments` consumes;
//! * [`fenwick`] — the order-statistics tree underneath the oracles.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checker;
pub mod fenwick;
pub mod linearize;
pub mod oracle;
pub mod segmented;
pub mod segmented_queue;
pub mod stats;
pub mod trace;

pub use checker::{check_k_out_of_order, Conservation, TraceOp, TraceReport, Violation};
pub use linearize::{merge_histories, History, HistoryRecorder, SharedClock};
pub use oracle::{Label, MeasuredStack, NaiveOracle, Oracle};
pub use segmented::{
    bounds_map, check_segments, MeasuredElastic, SegRecord, SegmentReport, SegmentViolation,
};
pub use segmented_queue::{FifoOracle, MeasuredElasticQueue};
pub use stats::{ErrorStats, ErrorSummary};
pub use trace::{replay, ReplayOutcome, Trace, TraceRecorder};
