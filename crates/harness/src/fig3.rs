//! Figure 3 — the structure-generic sweep: throughput and quality for the
//! queue/counter corner of the [`AnyRelaxed`] registry.
//!
//! Figures 1 and 2 reproduce the paper's stack evaluation; this sweep is
//! the analogous pair of figures for the §5 extension structures, enabled
//! by PR 4's [`RelaxedOps`](stack2d::RelaxedOps) family (one runner drives
//! everything) and this PR's unified search engine (one hot loop produces
//! the numbers being compared):
//!
//! * **throughput** (the Figure 2 analogue): thread-scalability of the
//!   2D-Queue against the strict locked-queue baseline, the 2D-Counter,
//!   and the 2D-Stack as the reference point, every structure in its
//!   high-throughput configuration;
//! * **queue quality** (the Figure 1 analogue): dequeue FIFO-overtake
//!   distances as the relaxation budget `k` grows, verified against the
//!   window bound;
//! * **counter quality**: the observed quiescent spread across
//!   sub-counters against the `depth + shift` window claim, plus value
//!   exactness (no increment lost or duplicated).

use serde::{Deserialize, Serialize};

use stack2d::sync::Arc;
use stack2d::{Counter2D, Params, Queue2D, Recorder};
use stack2d_quality::{ErrorSummary, MeasuredQueue};
use stack2d_workload::{run_fixed_ops, OpMix};

use crate::algorithms::{Algorithm, AnyRelaxed, BuildSpec, StructureKind};
use crate::experiment::{measure_relaxed, DataPoint, Settings};
use crate::quality_run::{run_quality, QualityConfig};
use crate::report::{fmt_ops, Table};

/// Parameters of the Figure 3 sweeps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fig3Spec {
    /// Thread count for the quality sweeps.
    pub threads: usize,
    /// Thread counts for the throughput sweep.
    pub thread_grid: Vec<usize>,
    /// The relaxation-budget grid for the queue quality sweep.
    pub k_grid: Vec<usize>,
}

impl Fig3Spec {
    /// Quality at `threads`, throughput over powers of two up to
    /// `max_threads`, and a log-spaced `k` grid.
    pub fn new(threads: usize, max_threads: usize) -> Self {
        let mut grid = Vec::new();
        let mut p = 1;
        while p <= max_threads.max(1) {
            grid.push(p);
            p *= 2;
        }
        Fig3Spec { threads: threads.max(1), thread_grid: grid, k_grid: vec![0, 3, 27, 243, 2_187] }
    }

    /// The structures in the throughput sweep: the queue/counter corner of
    /// [`StructureKind::ALL`] plus the 2D-Stack as the reference point.
    pub fn structures() -> [StructureKind; 4] {
        [
            StructureKind::Stack(Algorithm::TwoD),
            StructureKind::Queue2D,
            StructureKind::LockedQueue,
            StructureKind::Counter2D,
        ]
    }
}

/// Runs the thread-scalability throughput sweep over the registry.
pub fn run_throughput(spec: &Fig3Spec, settings: &Settings) -> Vec<DataPoint> {
    let mut points = Vec::new();
    for &threads in &spec.thread_grid {
        for kind in Fig3Spec::structures() {
            points.push(measure_relaxed(
                kind.name(),
                || AnyRelaxed::build(kind, BuildSpec::high_throughput(threads)),
                threads,
                settings,
                OpMix::symmetric(),
            ));
        }
    }
    points
}

/// Renders the throughput sweep.
pub fn throughput_table(points: &[DataPoint]) -> Table {
    let mut t = Table::new(["threads", "structure", "bound", "throughput", "ops/s"]);
    for p in points {
        t.push_row([
            p.threads.to_string(),
            p.algo.clone(),
            p.k_bound.map(|k| k.to_string()).unwrap_or_else(|| "-".into()),
            fmt_ops(p.throughput),
            format!("{:.0}", p.throughput),
        ]);
    }
    t
}

/// One point of the queue quality sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueQualityPoint {
    /// The relaxation budget handed to [`stack2d::Builder::for_bound`].
    pub k: usize,
    /// The window bound of the built queue (<= `k`).
    pub bound: usize,
    /// Overtake-distance summary of the measured run.
    pub quality: ErrorSummary,
}

/// Runs the queue quality sweep: overtake distances as `k` grows.
pub fn run_queue_quality(spec: &Fig3Spec, settings: &Settings) -> Vec<QueueQualityPoint> {
    run_queue_quality_with_recorder(spec, settings, None)
}

/// [`run_queue_quality`] with an optional telemetry recorder attached to
/// every queue in the sweep (one shared scope; sampled op spans and
/// window shifts flow into it).
pub fn run_queue_quality_with_recorder(
    spec: &Fig3Spec,
    settings: &Settings,
    recorder: Option<&Arc<dyn Recorder>>,
) -> Vec<QueueQualityPoint> {
    spec.k_grid
        .iter()
        .map(|&k| {
            let mut builder = Queue2D::builder().for_bound(k);
            if let Some(r) = recorder {
                builder = builder.recorder(Arc::clone(r));
            }
            let queue: Queue2D<u64> = builder.build().expect("for_bound params are valid");
            let bound = queue.k_bound();
            let quality = run_quality(
                &MeasuredQueue::new(&queue),
                &QualityConfig {
                    threads: spec.threads,
                    ops_per_thread: settings.quality_ops / spec.threads.max(1),
                    mix: OpMix::symmetric(),
                    prefill: settings.prefill,
                    seed: 0xF163,
                },
            )
            .summary();
            QueueQualityPoint { k, bound, quality }
        })
        .collect()
}

/// Renders the queue quality sweep.
pub fn queue_quality_table(points: &[QueueQualityPoint]) -> Table {
    let mut t = Table::new(["k", "bound", "pops", "mean-err", "p99-err", "max-err"]);
    for p in points {
        t.push_row([
            p.k.to_string(),
            p.bound.to_string(),
            p.quality.pops.to_string(),
            format!("{:.2}", p.quality.mean),
            p.quality.p99.to_string(),
            p.quality.max.to_string(),
        ]);
    }
    t
}

/// One point of the counter quality sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterQualityPoint {
    /// Thread count of the run.
    pub threads: usize,
    /// Counter width (`4P`, the high-throughput shape).
    pub width: usize,
    /// Observed quiescent spread `max - min` over the sub-counters.
    pub spread: usize,
    /// The window's spread claim (`depth + shift`).
    pub bound: usize,
    /// Final counter value.
    pub value: usize,
    /// Increments performed (the value must match exactly).
    pub expected: usize,
}

/// Runs the counter quality sweep: quiescent spread and exactness per
/// thread count.
pub fn run_counter_quality(spec: &Fig3Spec, settings: &Settings) -> Vec<CounterQualityPoint> {
    run_counter_quality_with_recorder(spec, settings, None)
}

/// [`run_counter_quality`] with an optional telemetry recorder attached
/// to every counter in the sweep (one shared scope).
pub fn run_counter_quality_with_recorder(
    spec: &Fig3Spec,
    settings: &Settings,
    recorder: Option<&Arc<dyn Recorder>>,
) -> Vec<CounterQualityPoint> {
    spec.thread_grid
        .iter()
        .map(|&threads| {
            let params = Params::for_threads(threads);
            let mut builder = Counter2D::builder().params(params);
            if let Some(r) = recorder {
                builder = builder.recorder(Arc::clone(r));
            }
            let counter = builder.build().expect("valid");
            let ops_per_thread = (settings.quality_ops / threads.max(1)).max(1);
            // All-produce mix: every op is an increment.
            let r = run_fixed_ops(&counter, threads, ops_per_thread, OpMix::new(1_000), 0xC0);
            let profile = counter.profile();
            let spread = profile.iter().max().unwrap_or(&0) - profile.iter().min().unwrap_or(&0);
            CounterQualityPoint {
                threads,
                width: params.width(),
                spread,
                bound: counter.spread_bound(),
                value: counter.value(),
                expected: r.pushes as usize,
            }
        })
        .collect()
}

/// Renders the counter quality sweep.
pub fn counter_quality_table(points: &[CounterQualityPoint]) -> Table {
    let mut t = Table::new(["threads", "width", "spread", "bound", "value", "expected", "exact"]);
    for p in points {
        t.push_row([
            p.threads.to_string(),
            p.width.to_string(),
            p.spread.to_string(),
            p.bound.to_string(),
            p.value.to_string(),
            p.expected.to_string(),
            (p.value == p.expected).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig3Spec {
        Fig3Spec { threads: 2, thread_grid: vec![1, 2], k_grid: vec![0, 9] }
    }

    #[test]
    fn throughput_sweep_covers_the_registry_corner() {
        let points = run_throughput(&tiny(), &Settings::smoke());
        assert_eq!(points.len(), 2 * Fig3Spec::structures().len());
        for p in &points {
            assert!(p.throughput > 0.0, "{} @ {}: zero throughput", p.algo, p.threads);
        }
        let text = throughput_table(&points).to_text();
        assert!(text.contains("2d-queue"));
        assert!(text.contains("locked-queue"));
        assert!(text.contains("2d-counter"));
    }

    #[test]
    fn queue_quality_respects_each_bound_and_k_zero_is_strict() {
        let points = run_queue_quality(&tiny(), &Settings::smoke());
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.bound <= p.k, "k={}: built bound {} over budget", p.k, p.bound);
            assert!(p.quality.pops > 0, "k={}: no dequeues measured", p.k);
        }
        assert_eq!(points[0].quality.max, 0, "k=0 must measure strict FIFO");
    }

    #[test]
    fn counter_quality_is_exact_and_within_spread_bound() {
        let points = run_counter_quality(&tiny(), &Settings::smoke());
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.value, p.expected, "P={}: increments lost", p.threads);
            assert!(
                p.spread <= p.bound,
                "P={}: spread {} > bound {}",
                p.threads,
                p.spread,
                p.bound
            );
        }
    }

    #[test]
    fn default_grids_are_sane() {
        let spec = Fig3Spec::new(4, 8);
        assert_eq!(spec.thread_grid, vec![1, 2, 4, 8]);
        assert!(spec.k_grid.windows(2).all(|w| w[0] < w[1]));
    }
}
