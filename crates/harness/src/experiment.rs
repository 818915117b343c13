//! Shared experiment plumbing: environment-scaled settings and
//! repeat-and-average measurement, matching the paper's methodology
//! ("run for five seconds obtaining an average of five repeats").
//!
//! Full paper-scale runs are expensive on a CI container, so every binary
//! reads its scale from environment variables with tractable defaults:
//!
//! | variable | meaning | default | paper value |
//! |----------|---------|---------|-------------|
//! | `STACK2D_DURATION_MS` | timed-run window | 200 | 5000 |
//! | `STACK2D_REPEATS`     | repeats averaged | 3   | 5 |
//! | `STACK2D_PREFILL`     | initial items    | 4096 | 32768 |
//! | `STACK2D_MAX_THREADS` | scalability sweep top | 8 | 16 |
//! | `STACK2D_QUALITY_OPS` | ops/thread in quality runs | 20000 | (5 s worth) |

use std::time::Duration;

use serde::{Deserialize, Serialize};

use stack2d::RelaxedOps;
use stack2d_quality::{ErrorSummary, MeasuredStack};
use stack2d_workload::{run_throughput, OpMix, RunConfig};

use crate::algorithms::{Algorithm, AnyRelaxed, BuildSpec, StructureKind};
use crate::quality_run::{run_quality, QualityConfig};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Scale settings for a harness invocation (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Settings {
    /// Timed-run window.
    pub duration_ms: usize,
    /// Number of repeats averaged per point.
    pub repeats: usize,
    /// Items pre-filled before each run.
    pub prefill: usize,
    /// Top of the thread sweep (Figure 2).
    pub max_threads: usize,
    /// Operations per thread in quality runs.
    pub quality_ops: usize,
}

impl Settings {
    /// Reads settings from the environment (defaults per the module docs).
    pub fn from_env() -> Self {
        Settings {
            duration_ms: env_usize("STACK2D_DURATION_MS", 200),
            repeats: env_usize("STACK2D_REPEATS", 3),
            prefill: env_usize("STACK2D_PREFILL", 4_096),
            max_threads: env_usize("STACK2D_MAX_THREADS", 8),
            quality_ops: env_usize("STACK2D_QUALITY_OPS", 20_000),
        }
    }

    /// The paper's full-scale settings (5 s × 5 repeats, 32,768 prefill,
    /// 16 threads).
    pub fn paper_scale() -> Self {
        Settings {
            duration_ms: 5_000,
            repeats: 5,
            prefill: 32_768,
            max_threads: 16,
            quality_ops: 200_000,
        }
    }

    /// A minimal smoke-test scale used by integration tests.
    pub fn smoke() -> Self {
        Settings { duration_ms: 30, repeats: 1, prefill: 512, max_threads: 2, quality_ops: 2_000 }
    }
}

/// One measured point: an algorithm at a configuration, with throughput and
/// quality averaged over repeats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataPoint {
    /// Algorithm legend name.
    pub algo: String,
    /// Thread count.
    pub threads: usize,
    /// Relaxation budget used to configure the algorithm (if any).
    pub k_budget: Option<usize>,
    /// Deterministic relaxation bound of the built instance (if any).
    pub k_bound: Option<usize>,
    /// Mean throughput over repeats, ops/s.
    pub throughput: f64,
    /// Error-distance summary from the quality run.
    pub quality: ErrorSummary,
}

/// Measures one algorithm configuration: `repeats` timed throughput runs
/// (averaged) plus one quality run — [`measure_stack`] over the registry
/// stack built from `spec`, labelled with the budget it was built for.
pub fn measure(algo: Algorithm, spec: BuildSpec, settings: &Settings, mix: OpMix) -> DataPoint {
    let build = || AnyRelaxed::build(StructureKind::Stack(algo), spec);
    let point = measure_stack(algo.name(), build, spec.threads, settings, mix);
    DataPoint { k_budget: spec.k, ..point }
}

/// Measures a stack built by `build` (registry stacks, ablation configs),
/// same protocol as [`measure`]: the generic throughput pass of
/// [`measure_relaxed`] plus the stack quality oracle.
pub fn measure_stack<S: RelaxedOps<u64>>(
    label: &str,
    build: impl Fn() -> S,
    threads: usize,
    settings: &Settings,
    mix: OpMix,
) -> DataPoint {
    let mut point = measure_relaxed(label, &build, threads, settings, mix);
    let stack = build();
    point.quality = run_quality(
        &MeasuredStack::new(&stack),
        &QualityConfig {
            threads,
            ops_per_thread: settings.quality_ops / threads.max(1),
            mix,
            prefill: settings.prefill,
            seed: 0xFACE,
        },
    )
    .summary();
    point
}

/// Measures any [`RelaxedOps`] structure — the queue/counter twin of
/// [`measure_stack`]: `repeats` timed throughput runs averaged. Quality is
/// structure-specific (FIFO overtakes for queues, spread for counters), so
/// the returned point carries an empty [`ErrorSummary`]; callers with a
/// quality oracle overwrite it (e.g. via
/// [`run_quality`] over a [`MeasuredQueue`](stack2d_quality::MeasuredQueue)).
pub fn measure_relaxed<S: RelaxedOps<u64>>(
    label: &str,
    build: impl Fn() -> S,
    threads: usize,
    settings: &Settings,
    mix: OpMix,
) -> DataPoint {
    let mut throughputs = Vec::with_capacity(settings.repeats);
    let mut k_bound = None;
    for rep in 0..settings.repeats.max(1) {
        let structure = build();
        k_bound = RelaxedOps::relaxation_bound(&structure);
        let cfg = RunConfig {
            threads,
            duration: Duration::from_millis(settings.duration_ms as u64),
            mix,
            prefill: settings.prefill,
            seed: 0xBEEF + rep as u64,
            think_work: 0,
        };
        throughputs.push(run_throughput(&structure, &cfg).throughput());
    }
    let throughput = throughputs.iter().sum::<f64>() / throughputs.len() as f64;
    DataPoint {
        algo: label.to_string(),
        threads,
        k_budget: None,
        k_bound,
        throughput,
        quality: ErrorSummary::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_defaults_are_tractable() {
        // Don't read the real environment in tests; check the documented
        // defaults via a cleared lookup.
        let s = Settings::from_env();
        assert!(s.duration_ms >= 1);
        assert!(s.repeats >= 1);
    }

    #[test]
    fn paper_scale_matches_paper() {
        let s = Settings::paper_scale();
        assert_eq!(s.duration_ms, 5_000);
        assert_eq!(s.repeats, 5);
        assert_eq!(s.prefill, 32_768);
        assert_eq!(s.max_threads, 16);
    }

    #[test]
    fn measure_produces_sane_point() {
        let p = measure(
            Algorithm::Treiber,
            BuildSpec::high_throughput(1),
            &Settings::smoke(),
            OpMix::symmetric(),
        );
        assert_eq!(p.algo, "treiber");
        assert!(p.throughput > 0.0);
        assert_eq!(p.k_bound, Some(0));
        assert_eq!(p.quality.max, 0, "single-thread treiber is strict");
    }

    #[test]
    fn measure_stack_produces_labelled_point() {
        use stack2d::{Params, Stack2D};
        let p = measure_stack(
            "custom",
            || Stack2D::new(Params::new(4, 1, 1).unwrap()),
            1,
            &Settings::smoke(),
            OpMix::symmetric(),
        );
        assert_eq!(p.algo, "custom");
        assert!(p.throughput > 0.0);
        assert_eq!(p.k_bound, Some(9));
    }
}
