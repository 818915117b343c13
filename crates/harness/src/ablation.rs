//! Ablation experiment — which 2D window-search mechanism buys what.
//!
//! The paper motivates three mechanisms (§3–4): contention-avoiding random
//! hops on a failed CAS, the two-phase (random + round-robin) search, and
//! locality (start at the last successful sub-stack; increasingly valuable
//! as `depth` grows). This experiment measures the full design against
//! variants with one mechanism removed — the evidence behind DESIGN.md's
//! design-choice claims — plus the horizontal-vs-vertical split of a fixed
//! relaxation budget.
//!
//! Since the unified search engine, every mechanism exists on all three
//! structures, so the sweep runs on the **queue** and **counter** too
//! ([`run_queue_mechanisms`], [`run_counter_mechanisms`]): the same
//! [`AblationVariant`] grid, driven through the structure-generic
//! [`RelaxedOps`](stack2d::RelaxedOps) runner, with the queue's quality
//! measured as FIFO overtake distances. This is what "ablation results
//! transfer across structures" means operationally — one config grid, one
//! engine, three data sets.

use serde::{Deserialize, Serialize};

use stack2d::sync::Arc;
use stack2d::{Counter2D, Params, Queue2D, Recorder, Stack2D};
use stack2d_workload::OpMix;

use crate::algorithms::{AblationVariant, AnyRelaxed};
use crate::experiment::{measure_relaxed, measure_stack, DataPoint, Settings};
use crate::quality_run::{run_queue_overtakes, QualityConfig};
use crate::report::{fmt_ops, Table};

/// Parameters of the ablation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AblationSpec {
    /// Thread count.
    pub threads: usize,
    /// Window parameters used for the mechanism ablations.
    pub width: usize,
    /// Window depth.
    pub depth: usize,
    /// Window shift.
    pub shift: usize,
}

impl AblationSpec {
    /// Default: the high-throughput configuration for `threads`, with a
    /// deeper window so locality matters.
    pub fn new(threads: usize) -> Self {
        AblationSpec { threads, width: 4 * threads.max(1), depth: 4, shift: 2 }
    }

    fn params(&self) -> Params {
        Params::new(self.width, self.depth, self.shift).expect("valid ablation params")
    }
}

/// Measures every [`AblationVariant`] under `spec`.
pub fn run_mechanisms(spec: &AblationSpec, settings: &Settings) -> Vec<DataPoint> {
    let params = spec.params();
    AblationVariant::ALL
        .iter()
        .map(|v| {
            measure_stack(
                v.name(),
                || AnyRelaxed::two_d_with_config(v.config(params)),
                spec.threads,
                settings,
                OpMix::symmetric(),
            )
        })
        .collect()
}

/// Measures every [`AblationVariant`] on the **2D-Queue** under `spec`:
/// throughput through the generic runner plus dequeue overtake quality
/// (mean/max FIFO overtake distance) through the
/// [`FifoOracle`](stack2d_quality::segmented_queue::FifoOracle).
pub fn run_queue_mechanisms(spec: &AblationSpec, settings: &Settings) -> Vec<DataPoint> {
    let params = spec.params();
    AblationVariant::ALL
        .iter()
        .map(|v| {
            let mut point = measure_relaxed(
                v.name(),
                || Queue2D::<u64>::with_config(v.config(params)),
                spec.threads,
                settings,
                OpMix::symmetric(),
            );
            let queue = Queue2D::with_config(v.config(params));
            point.quality = run_queue_overtakes(
                &queue,
                &QualityConfig {
                    threads: spec.threads,
                    ops_per_thread: settings.quality_ops / spec.threads.max(1),
                    mix: OpMix::symmetric(),
                    prefill: settings.prefill,
                    seed: 0xFACE,
                },
            )
            .summary();
            point
        })
        .collect()
}

/// Measures every [`AblationVariant`] on the **2D-Counter** under `spec`:
/// throughput through the generic runner (a counter consume reports
/// empty, so the symmetric mix degenerates to increments plus accounted
/// empty-pops — the same for every variant, hence comparable).
pub fn run_counter_mechanisms(spec: &AblationSpec, settings: &Settings) -> Vec<DataPoint> {
    let params = spec.params();
    AblationVariant::ALL
        .iter()
        .map(|v| {
            measure_relaxed(
                v.name(),
                || Counter2D::with_config(v.config(params)),
                spec.threads,
                settings,
                OpMix::symmetric(),
            )
        })
        .collect()
}

/// The queue/counter twin of [`run_mechanism_metrics`]: per-variant event
/// rates (probes per op, contention, window shifts) explaining *why* each
/// mechanism matters on the extension structures.
pub fn run_relaxed_mechanism_metrics<S: stack2d::RelaxedOps<u64>>(
    build: impl Fn(stack2d::SearchConfig) -> S,
    metrics_of: impl Fn(&S) -> stack2d::MetricsSnapshot,
    spec: &AblationSpec,
    ops_per_thread: usize,
) -> Table {
    use stack2d_workload::{prefill, run_fixed_ops};
    let params = spec.params();
    let mut t =
        Table::new(["variant", "probes/op", "cas-fail/op", "shifts/op", "restarts", "empty-pops"]);
    for v in AblationVariant::ALL {
        let structure = build(v.config(params));
        prefill(&structure, 1_024);
        let before = metrics_of(&structure);
        run_fixed_ops(&structure, spec.threads, ops_per_thread, OpMix::symmetric(), 3);
        let m = metrics_of(&structure).delta_since(&before);
        t.push_row([
            v.name().to_string(),
            format!("{:.2}", m.probes_per_op()),
            format!("{:.4}", m.contention_rate()),
            format!("{:.4}", m.shift_rate()),
            m.global_restarts.to_string(),
            m.empty_pops.to_string(),
        ]);
    }
    t
}

/// Splits a fixed relaxation budget `k` between the horizontal and vertical
/// dimensions: from all-width (`depth=1`) to all-depth (`width` small), the
/// trade-off behind Figure 1's "switches from horizontal to vertical"
/// observation.
pub fn run_dimension_split(k: usize, threads: usize, settings: &Settings) -> Vec<DataPoint> {
    // Candidate (width, depth, shift=depth) combos with k_bound <= k.
    let mut combos: Vec<Params> = Vec::new();
    let mut width = 2usize;
    while width <= 8 * threads.max(1) {
        // k = 3 d (w - 1)  =>  d = k / (3 (w - 1))
        let d = (k / (3 * (width - 1))).max(1);
        if let Ok(p) = Params::new(width, d, d) {
            if p.k_bound() <= k {
                combos.push(p);
            }
        }
        width *= 2;
    }
    combos
        .into_iter()
        .map(|p| {
            measure_stack(
                &format!("w{}d{}", p.width(), p.depth()),
                move || Stack2D::new(p),
                threads,
                settings,
                OpMix::symmetric(),
            )
        })
        .collect()
}

/// Explains the mechanism ablation with the core's operation counters:
/// runs a fixed workload per variant and reports probes/op, contention and
/// window-shift rates (the event frequencies the paper's §3 reasons
/// about).
pub fn run_mechanism_metrics(spec: &AblationSpec, ops_per_thread: usize) -> Table {
    use stack2d_workload::{prefill, run_fixed_ops, OpMix};
    let params = spec.params();
    let mut t =
        Table::new(["variant", "probes/op", "cas-fail/op", "shifts/op", "restarts", "empty-pops"]);
    for v in AblationVariant::ALL {
        let stack = Stack2D::with_config(v.config(params));
        prefill(&stack, 1_024);
        stack.reset_metrics();
        run_fixed_ops(&stack, spec.threads, ops_per_thread, OpMix::symmetric(), 3);
        let m = stack.metrics();
        t.push_row([
            v.name().to_string(),
            format!("{:.2}", m.probes_per_op()),
            format!("{:.4}", m.contention_rate()),
            format!("{:.4}", m.shift_rate()),
            m.global_restarts.to_string(),
            m.empty_pops.to_string(),
        ]);
    }
    t
}

/// The telemetry pass: the full-mechanism baseline of every structure run
/// once more with a `stack2d-telemetry` recorder attached (scopes
/// `ablation-stack` / `ablation-queue` / `ablation-counter`), so the
/// ablation's event-rate tables come with a stamped event stream and
/// latency quantiles to drill into. Returns a small per-structure summary
/// table; the real output is what the session writes on `finish`.
pub fn run_instrumented_pass(
    spec: &AblationSpec,
    ops_per_thread: usize,
    recorder_for: &dyn Fn(&str) -> Arc<dyn Recorder>,
) -> Table {
    use stack2d_workload::{prefill, run_fixed_ops};
    let params = spec.params();
    let mut t = Table::new(["structure", "scope", "ops", "k-bound"]);
    {
        let stack: Stack2D<u64> = Stack2D::builder()
            .params(params)
            .recorder(recorder_for("ablation-stack"))
            .build()
            .expect("valid ablation params");
        prefill(&stack, 1_024);
        let r = run_fixed_ops(&stack, spec.threads, ops_per_thread, OpMix::symmetric(), 3);
        t.push_row([
            "2d-stack".to_string(),
            "ablation-stack".to_string(),
            (r.pushes + r.pops).to_string(),
            stack.k_bound().to_string(),
        ]);
    }
    {
        let queue: Queue2D<u64> = Queue2D::builder()
            .params(params)
            .recorder(recorder_for("ablation-queue"))
            .build()
            .expect("valid ablation params");
        prefill(&queue, 1_024);
        let r = run_fixed_ops(&queue, spec.threads, ops_per_thread, OpMix::symmetric(), 3);
        t.push_row([
            "2d-queue".to_string(),
            "ablation-queue".to_string(),
            (r.pushes + r.pops).to_string(),
            queue.k_bound().to_string(),
        ]);
    }
    {
        let counter = Counter2D::builder()
            .params(params)
            .recorder(recorder_for("ablation-counter"))
            .build()
            .expect("valid ablation params");
        // All-produce mix: every counter op is an increment.
        let r = run_fixed_ops(&counter, spec.threads, ops_per_thread, OpMix::new(1_000), 3);
        t.push_row([
            "2d-counter".to_string(),
            "ablation-counter".to_string(),
            (r.pushes + r.pops).to_string(),
            counter.spread_bound().to_string(),
        ]);
    }
    t
}

/// Renders ablation points.
pub fn to_table(points: &[DataPoint]) -> Table {
    let mut t = Table::new(["variant", "bound", "throughput", "ops/s", "mean-err", "max-err"]);
    for p in points {
        t.push_row([
            p.algo.clone(),
            p.k_bound.map(|k| k.to_string()).unwrap_or_else(|| "-".into()),
            fmt_ops(p.throughput),
            format!("{:.0}", p.throughput),
            format!("{:.2}", p.quality.mean),
            p.quality.max.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_ablation_covers_all_variants() {
        let spec = AblationSpec { threads: 2, width: 4, depth: 2, shift: 1 };
        let points = run_mechanisms(&spec, &Settings::smoke());
        assert_eq!(points.len(), AblationVariant::ALL.len());
        let names: Vec<&str> = points.iter().map(|p| p.algo.as_str()).collect();
        assert!(names.contains(&"full"));
        assert!(names.contains(&"no-locality"));
        for p in &points {
            assert!(p.throughput > 0.0, "{}: zero throughput", p.algo);
        }
    }

    #[test]
    fn queue_mechanism_ablation_covers_all_variants() {
        let spec = AblationSpec { threads: 2, width: 4, depth: 2, shift: 1 };
        let points = run_queue_mechanisms(&spec, &Settings::smoke());
        assert_eq!(points.len(), AblationVariant::ALL.len());
        for p in &points {
            assert!(p.throughput > 0.0, "{}: zero throughput", p.algo);
            assert!(p.quality.pops > 0, "{}: no overtake samples", p.algo);
        }
    }

    #[test]
    fn counter_mechanism_ablation_covers_all_variants() {
        let spec = AblationSpec { threads: 2, width: 4, depth: 2, shift: 1 };
        let points = run_counter_mechanisms(&spec, &Settings::smoke());
        assert_eq!(points.len(), AblationVariant::ALL.len());
        for p in &points {
            assert!(p.throughput > 0.0, "{}: zero throughput", p.algo);
        }
    }

    #[test]
    fn relaxed_mechanism_metrics_cover_queue_and_counter() {
        use stack2d::{Counter2D, Queue2D};
        let spec = AblationSpec { threads: 2, width: 4, depth: 2, shift: 1 };
        let q = run_relaxed_mechanism_metrics(
            Queue2D::<u64>::with_config,
            Queue2D::metrics,
            &spec,
            2_000,
        );
        assert_eq!(q.len(), AblationVariant::ALL.len());
        assert!(q.to_text().contains("probes/op"));
        let c =
            run_relaxed_mechanism_metrics(Counter2D::with_config, Counter2D::metrics, &spec, 2_000);
        assert_eq!(c.len(), AblationVariant::ALL.len());
    }

    #[test]
    fn dimension_split_respects_budget() {
        let points = run_dimension_split(300, 2, &Settings::smoke());
        assert!(!points.is_empty());
        for p in &points {
            assert!(p.k_bound.unwrap() <= 300, "{}: bound exceeds budget", p.algo);
            assert!(p.algo.starts_with('w'));
        }
    }

    #[test]
    fn mechanism_metrics_table_has_all_variants() {
        let spec = AblationSpec { threads: 2, width: 4, depth: 2, shift: 1 };
        let t = run_mechanism_metrics(&spec, 2_000);
        assert_eq!(t.len(), super::AblationVariant::ALL.len());
        assert!(t.to_text().contains("probes/op"));
    }

    #[test]
    fn table_renders() {
        let spec = AblationSpec { threads: 1, width: 2, depth: 1, shift: 1 };
        let points = run_mechanisms(&spec, &Settings::smoke());
        let text = to_table(&points).to_text();
        assert!(text.contains("full"));
    }
}
