//! # stack2d-bench — Criterion benchmarks for the 2D-Stack reproduction
//!
//! One bench target per paper artefact (see DESIGN.md §4):
//!
//! * `fig1_relaxation` — Figure 1's relaxation sweep (k-bounded algorithms);
//! * `fig2_scalability` — Figure 2's thread sweep (all seven algorithms);
//! * `ablation_search` — search-policy/locality/hop ablations;
//! * `micro_ops` — per-operation costs of the building blocks;
//! * `elastic_adapt` — static presets vs the elastic (online-retuned)
//!   stack on a bursty workload, plus the raw descriptor-swing cost.
//!
//! Benchmarks measure *time per fixed batch of operations* with
//! `Throughput::Elements`, so Criterion reports ops/s directly — the
//! paper's throughput metric. Scale knobs (threads, ops per batch) follow
//! `STACK2D_BENCH_*` environment variables with container-sized defaults.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use stack2d_harness::{Algorithm, AnyRelaxed, BuildSpec, StructureKind};
use stack2d_workload::prefill;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Scale of a bench invocation.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Worker threads used by the workload batches.
    pub threads: usize,
    /// Operations per thread per measured batch.
    pub ops: usize,
    /// Items pre-filled into each fresh stack.
    pub prefill: usize,
}

impl BenchScale {
    /// Reads `STACK2D_BENCH_THREADS` / `_OPS` / `_PREFILL` (defaults 2 /
    /// 4096 / 1024).
    pub fn from_env() -> Self {
        BenchScale {
            threads: env_usize("STACK2D_BENCH_THREADS", 2),
            ops: env_usize("STACK2D_BENCH_OPS", 4_096),
            prefill: env_usize("STACK2D_BENCH_PREFILL", 1_024),
        }
    }
}

/// Builds a pre-filled stack for one measured batch.
pub fn fresh_stack(algo: Algorithm, spec: BuildSpec, prefill_items: usize) -> AnyRelaxed {
    let stack = AnyRelaxed::build(StructureKind::Stack(algo), spec);
    prefill(&stack, prefill_items);
    stack
}
