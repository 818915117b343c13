//! Ablation bench: each 2D-Stack mechanism toggled off in turn
//! (two-phase search vs pure round-robin vs pure random, hop-on-contention,
//! locality) — the measured backing for the design-choice claims in
//! DESIGN.md and the paper's §3–4 discussion.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use stack2d::Params;
use stack2d_bench::BenchScale;
use stack2d_harness::{AblationVariant, AnyRelaxed};
use stack2d_workload::{prefill, run_fixed_ops, OpMix};

fn bench_ablation(c: &mut Criterion) {
    let scale = BenchScale::from_env();
    let params = Params::new(4 * scale.threads.max(1), 4, 2).expect("valid params");
    let mut group = c.benchmark_group("ablation_search");
    group.throughput(Throughput::Elements((scale.threads * scale.ops) as u64));
    for variant in AblationVariant::ALL {
        group.bench_function(variant.name(), |b| {
            b.iter_batched(
                || {
                    let stack = AnyRelaxed::two_d_with_config(variant.config(params));
                    prefill(&stack, scale.prefill);
                    stack
                },
                |stack| run_fixed_ops(&stack, scale.threads, scale.ops, OpMix::symmetric(), 7),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_millis(1_500))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    targets = bench_ablation
}
criterion_main!(benches);
