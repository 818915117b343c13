//! Micro-benchmarks of the building blocks: uncontended per-operation cost
//! of every stack, the count-in-node sub-stack primitives, parameter
//! derivation, and the quality oracle — context for interpreting the
//! figure-level numbers.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use stack2d::rng::HopRng;
use stack2d::substack::SubStack;
use stack2d::{ConcurrentStack, Params, StackHandle};
use stack2d_harness::{Algorithm, AnyStack, BuildSpec};
use stack2d_quality::Oracle;

fn bench_single_thread_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/push_pop_pair");
    group.throughput(Throughput::Elements(1));
    for algo in Algorithm::ALL {
        let stack = AnyStack::build(algo, BuildSpec::high_throughput(1));
        let mut h = stack.handle();
        group.bench_function(algo.name(), |b| {
            b.iter(|| {
                h.push(1);
                h.pop()
            });
        });
    }
    group.finish();
}

fn bench_substack_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/substack");
    group.throughput(Throughput::Elements(1));
    let sub: SubStack<u64> = SubStack::new();
    group.bench_function("push_pop", |b| {
        b.iter(|| {
            sub.push(1);
            sub.pop()
        });
    });
    group.bench_function("view", |b| {
        let guard = crossbeam_epoch::pin();
        b.iter(|| sub.view(&guard).count());
    });
    group.finish();
}

fn bench_params(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/params");
    group.bench_function("for_k", |b| {
        let mut k = 0usize;
        b.iter(|| {
            k = (k + 97) % 10_000;
            Params::for_k(k, 8)
        });
    });
    group.finish();
}

fn bench_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/oracle");
    group.throughput(Throughput::Elements(1));
    group.bench_function("insert_delete_resident_32768", |b| {
        b.iter_batched(
            || {
                let mut o = Oracle::new();
                for l in 0..32_768 {
                    o.insert(l);
                }
                o
            },
            |mut o| {
                o.insert(40_000);
                o.delete(40_000)
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_hop_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/rng");
    group.throughput(Throughput::Elements(1));
    group.bench_function("bounded", |b| {
        let mut rng = HopRng::seeded(1);
        b.iter(|| rng.bounded(32));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_millis(1_000))
        .warm_up_time(Duration::from_millis(200))
        .sample_size(20);
    targets = bench_single_thread_ops, bench_substack_primitives, bench_params, bench_oracle, bench_hop_rng
}
criterion_main!(benches);
