//! Hot-path memory benchmarks: the uncontended op pair on the (always
//! pooled) allocation path, and the batched-ops (`push_n`/`pop_n`,
//! `enqueue_n`/`dequeue_n`, `add_n`) amortization curve at batch sizes 1,
//! 8 and 64.
//!
//! All times are per *element*, so the batch curve reads directly as the
//! amortization factor: `batch64` should sit well below `batch1` because
//! one search round is shared by up to `depth` items.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use stack2d::{Counter2D, Params, Queue2D, Stack2D};

/// Deep window so a batch of 64 can drain against one won sub-structure:
/// the per-slot cap is `depth`, and the batch curve is only informative
/// when the cap is not the bottleneck.
fn deep_params() -> Params {
    Params::new(8, 64, 4).expect("static params are valid")
}

/// The singular op pair per structure. The ids keep their `-pooled`
/// suffix so they stay comparable with snapshots taken while a boxed
/// allocation path still existed beside the pool.
fn bench_pool_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("mem_batch/pair");
    group.throughput(Throughput::Elements(1));

    let stack: Stack2D<u64> = Stack2D::builder().params(deep_params()).build().unwrap();
    let mut h = stack.handle_seeded(1);
    group.bench_function("2D-stack-pooled", |b| {
        b.iter(|| {
            h.push(1);
            h.pop()
        });
    });

    let queue: Queue2D<u64> = Queue2D::builder().params(deep_params()).build().unwrap();
    let mut h = queue.handle_seeded(1);
    group.bench_function("2D-queue-pooled", |b| {
        b.iter(|| {
            h.enqueue(1);
            h.dequeue()
        });
    });

    // The counter allocates nothing per op: the allocation-free control.
    let counter = Counter2D::builder().params(deep_params()).build().unwrap();
    let mut h = counter.handle_seeded(1);
    group.bench_function("2D-counter-pooled", |b| {
        b.iter(|| h.increment());
    });
    group.finish();
}

fn bench_batched_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("mem_batch/batch");
    for n in [1usize, 8, 64] {
        group.throughput(Throughput::Elements(n as u64));

        let stack: Stack2D<u64> = Stack2D::builder().params(deep_params()).build().unwrap();
        let mut h = stack.handle_seeded(1);
        group.bench_function(format!("2D-stack/{n}"), |b| {
            b.iter(|| {
                h.push_n((0..n as u64).collect());
                h.pop_n(n)
            });
        });

        let queue: Queue2D<u64> = Queue2D::builder().params(deep_params()).build().unwrap();
        let mut h = queue.handle_seeded(1);
        group.bench_function(format!("2D-queue/{n}"), |b| {
            b.iter(|| {
                h.enqueue_n((0..n as u64).collect());
                h.dequeue_n(n)
            });
        });

        let counter = Counter2D::builder().params(deep_params()).build().unwrap();
        let mut h = counter.handle_seeded(1);
        group.bench_function(format!("2D-counter/{n}"), |b| {
            b.iter(|| h.add_n(n));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_millis(1_000))
        .warm_up_time(Duration::from_millis(200))
        .sample_size(20);
    targets = bench_pool_pair, bench_batched_ops
}
criterion_main!(benches);
