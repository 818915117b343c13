//! Figure 1 bench: throughput of the k-bounded algorithms as the
//! relaxation budget k grows.
//!
//! Criterion prints ops/s per `algo/k` pair: each k-bounded algorithm is
//! built for the same budget k (`BuildSpec::with_k`) and runs a symmetric
//! push/pop mix over a prefilled stack. No committed snapshot shows the
//! paper's "2D-stack on top at every k"; whether equal budgets mean equal
//! relaxation, and what the ranking then is, is ROADMAP direction 5's
//! verdict table. Error-distance (the figure's second axis) is measured by the
//! harness binary (`cargo run -p stack2d-harness --bin fig1`), not here:
//! Criterion is a timing harness.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use stack2d_bench::{fresh_stack, BenchScale};
use stack2d_harness::{Algorithm, BuildSpec};
use stack2d_workload::{run_fixed_ops, OpMix};

fn bench_fig1(c: &mut Criterion) {
    let scale = BenchScale::from_env();
    let mut group = c.benchmark_group("fig1_relaxation");
    group.throughput(Throughput::Elements((scale.threads * scale.ops) as u64));
    for k in [1usize, 9, 81, 729, 6_561] {
        for algo in Algorithm::K_BOUNDED {
            group.bench_function(format!("{algo}/k={k}", algo = algo.name()), |b| {
                b.iter_batched(
                    || fresh_stack(algo, BuildSpec::with_k(scale.threads, k), scale.prefill),
                    |stack| run_fixed_ops(&stack, scale.threads, scale.ops, OpMix::symmetric(), 7),
                    BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_millis(1_500))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    targets = bench_fig1
}
criterion_main!(benches);
