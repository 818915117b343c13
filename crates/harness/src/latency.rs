//! Supplementary experiment: per-operation latency distributions.
//!
//! The paper reports throughput; tail latency is the other side of the
//! same coin and is what a downstream adopter of a relaxed stack usually
//! asks about next ("does the window shift stall my pops?"). Each worker
//! times every operation with a monotonic clock and feeds a log-scale
//! histogram; push and pop are reported separately.

use std::time::Instant;

use stack2d::rng::HopRng;
use stack2d::{OpsHandle, RelaxedOps};
use stack2d_workload::{prefill, LatencyHistogram, OpMix};

use crate::report::Table;

/// Configuration of a latency run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySpec {
    /// Worker threads.
    pub threads: usize,
    /// Timed operations per thread.
    pub ops_per_thread: usize,
    /// Items pre-filled before measurement.
    pub prefill: usize,
    /// Push/pop ratio.
    pub mix: OpMix,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for LatencySpec {
    fn default() -> Self {
        LatencySpec {
            threads: 2,
            ops_per_thread: 50_000,
            prefill: 4_096,
            mix: OpMix::symmetric(),
            seed: 0x7A7,
        }
    }
}

/// Push- and pop-side latency histograms from one run.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Latencies of push operations, nanoseconds.
    pub push: LatencyHistogram,
    /// Latencies of pop operations (including empty pops), nanoseconds.
    pub pop: LatencyHistogram,
}

/// Runs the latency workload against `stack`.
pub fn run_latency<S: RelaxedOps<u64>>(stack: &S, spec: &LatencySpec) -> LatencyResult {
    assert!(spec.threads > 0, "at least one thread required");
    prefill(stack, spec.prefill);
    let per_thread: Vec<(LatencyHistogram, LatencyHistogram)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..spec.threads {
            joins.push(scope.spawn(move || {
                let mut h = stack.ops_handle_seeded(spec.seed.wrapping_add(t as u64 + 1));
                // XOR decorrelates the mix stream from the handle RNG,
                // which is seeded with the same per-thread value.
                let mut rng =
                    HopRng::seeded(spec.seed.wrapping_add(t as u64 + 1) ^ 0x5851_F42D_4C95_7F2D);
                let mut push_h = LatencyHistogram::new();
                let mut pop_h = LatencyHistogram::new();
                let mut value = (t as u64) << 48;
                for _ in 0..spec.ops_per_thread {
                    if spec.mix.next_is_push(&mut rng) {
                        let t0 = Instant::now();
                        h.produce(value);
                        push_h.record(t0.elapsed().as_nanos() as u64);
                        value += 1;
                    } else {
                        let t0 = Instant::now();
                        let _ = h.consume();
                        pop_h.record(t0.elapsed().as_nanos() as u64);
                    }
                }
                (push_h, pop_h)
            }));
        }
        joins.into_iter().map(|j| j.join().expect("latency worker panicked")).collect()
    });
    let mut push = LatencyHistogram::new();
    let mut pop = LatencyHistogram::new();
    for (p, q) in &per_thread {
        push.merge(p);
        pop.merge(q);
    }
    LatencyResult { push, pop }
}

/// Renders latency results for several algorithms into one table.
pub fn to_table(rows: &[(String, LatencyResult)]) -> Table {
    let mut t = Table::new(["algo", "op", "count", "mean-ns", "p50-ns", "p99-ns", "max-ns"]);
    for (name, r) in rows {
        for (op, h) in [("push", &r.push), ("pop", &r.pop)] {
            t.push_row([
                name.clone(),
                op.to_string(),
                h.count().to_string(),
                format!("{:.0}", h.mean()),
                h.quantile(0.5).to_string(),
                h.quantile(0.99).to_string(),
                h.max().to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Algorithm, AnyRelaxed, BuildSpec, StructureKind};

    fn stack(algo: Algorithm, spec: BuildSpec) -> AnyRelaxed {
        AnyRelaxed::build(StructureKind::Stack(algo), spec)
    }

    #[test]
    fn latency_run_counts_every_operation() {
        let stack = stack(Algorithm::TwoD, BuildSpec::high_throughput(2));
        let spec =
            LatencySpec { threads: 2, ops_per_thread: 2_000, prefill: 256, ..Default::default() };
        let r = run_latency(&stack, &spec);
        assert_eq!(r.push.count() + r.pop.count(), 4_000);
        assert!(r.push.mean() > 0.0);
        assert!(r.pop.quantile(0.99) >= r.pop.quantile(0.5));
    }

    #[test]
    fn table_has_two_rows_per_algorithm() {
        let stack = stack(Algorithm::Treiber, BuildSpec::high_throughput(1));
        let spec =
            LatencySpec { threads: 1, ops_per_thread: 500, prefill: 64, ..Default::default() };
        let r = run_latency(&stack, &spec);
        let t = to_table(&[("treiber".into(), r)]);
        assert_eq!(t.len(), 2);
        assert!(t.to_text().contains("p99-ns"));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let stack = stack(Algorithm::Treiber, BuildSpec::high_throughput(1));
        run_latency(&stack, &LatencySpec { threads: 0, ..Default::default() });
    }
}
