//! Telemetry overhead on the hot path: what the disabled hook, a
//! discarding recorder and 1-in-64 sampling into a live registry scope
//! each cost on top of the bare op pair. BENCH_10 measured `noop_recorder`
//! at +9.3% and `sampled_64` at +11.5% over `disabled` (180.6 and 184.2
//! against 165.2 ns per pair).
//!
//! Four points on the same single-thread push/pop pair:
//!
//! * `disabled` — no recorder attached (the `TelemetryHook::none()`
//!   fast path every uninstrumented structure takes);
//! * `noop_recorder` — a recorder attached but discarding everything
//!   (isolates the hook dispatch + clock cost at the sampling rate);
//! * `sampled_64` — a real registry scope at the default 1-in-64
//!   sampling (the deployment configuration);
//! * `sampled_1` — every operation sampled (the worst case, priced so
//!   the default's discount is visible).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use stack2d::sync::Arc;
use stack2d::telemetry::Recorder;
use stack2d::{NoopRecorder, Params, Stack2D};
use stack2d_telemetry::Registry;

fn pair_bench(c: &mut Criterion, name: &str, recorder: Option<Arc<dyn Recorder>>, every: u32) {
    let mut group = c.benchmark_group("telemetry");
    group.throughput(Throughput::Elements(1));
    let mut builder = Stack2D::<u64>::builder().params(Params::for_threads(1));
    if let Some(r) = recorder {
        builder = builder.recorder(r).sample_every(every);
    }
    let stack = builder.build().expect("valid params");
    let mut h = stack.handle();
    group.bench_function(name, |b| {
        b.iter(|| {
            h.push(1);
            h.pop()
        });
    });
    group.finish();
}

fn bench_disabled(c: &mut Criterion) {
    pair_bench(c, "disabled", None, 64);
}

fn bench_noop_recorder(c: &mut Criterion) {
    pair_bench(c, "noop_recorder", Some(Arc::new(NoopRecorder)), 64);
}

fn bench_sampled_64(c: &mut Criterion) {
    let registry = Registry::new();
    pair_bench(c, "sampled_64", Some(registry.scope("bench")), 64);
}

fn bench_sampled_1(c: &mut Criterion) {
    let registry = Registry::new();
    pair_bench(c, "sampled_1", Some(registry.scope("bench")), 1);
}

criterion_group!(benches, bench_disabled, bench_noop_recorder, bench_sampled_64, bench_sampled_1);
criterion_main!(benches);
