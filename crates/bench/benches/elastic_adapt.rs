//! Elastic-adaptation bench: time to push a bursty phased batch through
//! static window presets vs an elastic stack driven by the AIMD
//! controller.
//!
//! Criterion reports ops/s per configuration; the elastic series should
//! sit between the presets on any single phase mix and track the better
//! preset across the alternating mixes, with the retune machinery's
//! overhead (descriptor re-reads, controller thread) visible as the gap
//! to the best static preset on a stationary workload.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use stack2d::{Params, Stack2D};
use stack2d_adaptive::{AimdController, ElasticRunner};
use stack2d_bench::BenchScale;
use stack2d_workload::phases::{run_phased, Workload};

/// The alternating burst workload (push-heavy, then pop-heavy).
fn bursty(scale: &BenchScale) -> Workload {
    Workload::bursty(4, scale.ops / 4)
}

fn bench_static(c: &mut Criterion, scale: &BenchScale) {
    let workload = bursty(scale);
    let mut group = c.benchmark_group("elastic_adapt");
    group
        .throughput(Throughput::Elements((scale.threads * workload.total_ops_per_thread()) as u64));
    for (label, params) in [
        ("static-narrow", Params::new(1, 1, 1).unwrap()),
        ("static-4p", Params::for_threads(scale.threads)),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || Stack2D::<u64>::new(params),
                |stack| run_phased(&stack, scale.threads, &workload, 7),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_elastic(c: &mut Criterion, scale: &BenchScale) {
    let workload = bursty(scale);
    let wide = Params::for_threads(scale.threads);
    let mut group = c.benchmark_group("elastic_adapt");
    group
        .throughput(Throughput::Elements((scale.threads * workload.total_ops_per_thread()) as u64));
    group.bench_function("elastic-aimd", |b| {
        b.iter_batched(
            || {
                let stack = Arc::new(
                    Stack2D::<u64>::builder()
                        .params(Params::new(1, 1, 1).unwrap())
                        .elastic_capacity(wide.width())
                        .build()
                        .unwrap(),
                );
                let runner = ElasticRunner::spawn_with_budget(
                    Arc::clone(&stack),
                    AimdController::new(wide.k_bound()),
                    Duration::from_micros(500),
                    wide.k_bound(),
                );
                (stack, runner)
            },
            // The runner is handed back so its drop — the controller
            // thread join, up to one 500 µs cadence — falls outside the
            // timed routine.
            |(stack, runner)| (run_phased(stack.as_ref(), scale.threads, &workload, 7), runner),
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_retune_op(c: &mut Criterion, scale: &BenchScale) {
    // The raw cost of a descriptor swing on an otherwise idle stack —
    // the price a controller tick pays.
    let stack: Stack2D<u64> = Stack2D::builder()
        .params(Params::new(1, 1, 1).unwrap())
        .elastic_capacity(64)
        .build()
        .unwrap();
    let grid = [
        Params::new(64, 1, 1).unwrap(),
        Params::new(32, 2, 1).unwrap(),
        Params::new(1, 1, 1).unwrap(),
    ];
    let mut group = c.benchmark_group("elastic_adapt");
    group.throughput(Throughput::Elements(grid.len() as u64));
    group.bench_function("retune-swing", |b| {
        b.iter(|| {
            for p in grid {
                stack.retune(p).unwrap();
            }
            stack.try_commit_shrink()
        });
    });
    group.finish();
    let _ = scale;
}

fn benches_entry(c: &mut Criterion) {
    let scale = BenchScale::from_env();
    bench_static(c, &scale);
    bench_elastic(c, &scale);
    bench_retune_op(c, &scale);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_millis(1_500))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    targets = benches_entry
}
criterion_main!(benches);
