//! The in-process workloads: `stack-churn` and `queue-batch`.
//!
//! Both run two worker threads on a structure built with
//! `Builder::for_threads(2).seed(seed)` and prefilled with 32768 items, and
//! drive it through `RelaxedOps`/`OpsHandle`:
//!
//! * `stack-churn` is the paper's §4 loop on `Stack2D`: a uniformly random
//!   50/50 mix of single pushes and pops with no think time;
//! * `queue-batch` has each worker alternate `enqueue_n(8)` and
//!   `dequeue_n(8)` on `Queue2D`, so occupancy stays at the prefill and
//!   every call takes the batched engine path.
//!
//! A run is: set-up (build, prefill, fixed warm-up) several times, a timed
//! phase, a drain with the conservation check, and an oracle phase that
//! measures the rank error of the same structure shape under the same seed
//! with `stack2d-quality`. The traced run splits the timed phase into an
//! untraced half and a half with a span around every structure call.

use std::time::{Duration, Instant};

use stack2d::rng::HopRng;
use stack2d::{ElasticTarget, MetricsSnapshot, OpsHandle, Queue2D, RelaxedOps, Stack2D};
use stack2d_quality::{ErrorStats, FifoOracle, Label, MeasuredStack};

use crate::ledger::Flow;
use crate::measure::{
    derive_seed, in_threads, in_threads_sampling_rss, summarize, timed_loop, traced_loop, Clock,
};
use crate::report::{central_mean, median, ratio, Metrics};
use crate::sysstat::{rss_peak_mib, ProcStat};
use crate::trace::{timer_pair_ns, Tracer};
use crate::{Outcome, RunArgs};

const THREADS: usize = 2;
const PREFILL: u64 = 32_768;
const SETUP_REPEATS: usize = 7;
const CHUNK: Duration = Duration::from_millis(100);
/// Operations (stack) or batch calls (queue) of the oracle phase.
const ORACLE_STEPS: usize = 400_000;

/// How a worker turns steps into structure calls.
#[derive(Debug, Clone, Copy)]
enum Mix {
    /// One push or pop per step, chosen by a fair coin.
    Singular,
    /// Alternating `produce_n(n)` and `consume_n(n)` calls.
    Batched(usize),
}

/// What distinguishes the two in-process workloads.
struct Spec {
    mix: Mix,
    /// One step in this many is timed for the latency percentiles. Odd
    /// and prime, so the timed step neither always lands on the same side
    /// of the queue's produce/consume alternation nor keeps step with the
    /// power-of-two periods of the structures' own housekeeping.
    sample_every: u32,
    /// Steps per worker in the set-up warm-up.
    warmup_steps: u64,
    /// Span names of the produce and consume calls, and the metrics that
    /// report their mean self time.
    produce_span: (&'static str, &'static str),
    consume_span: (&'static str, &'static str),
}

const STACK_CHURN: Spec = Spec {
    mix: Mix::Singular,
    sample_every: 1021,
    warmup_steps: 200_000,
    produce_span: ("stack.push", "stack.push_ns"),
    consume_span: ("stack.pop", "stack.pop_ns"),
};

const QUEUE_BATCH: Spec = Spec {
    mix: Mix::Batched(8),
    sample_every: 127,
    warmup_steps: 25_000,
    produce_span: ("queue.enqueue_n", "queue.enqueue_n_ns"),
    consume_span: ("queue.dequeue_n", "queue.dequeue_n_ns"),
};

/// One worker's handle and bookkeeping.
struct Worker<H> {
    handle: H,
    mix: Mix,
    rng: HopRng,
    produce_next: bool,
    next_value: u64,
    flow: Flow,
    consumes: u64,
    empty: u64,
}

impl<H: OpsHandle<u64>> Worker<H> {
    /// A worker whose values carry `tag` in their top bits, so values of
    /// different workers and phases never collide.
    fn new(handle: H, mix: Mix, seed: u64, tag: u64) -> Self {
        Worker {
            handle,
            mix,
            rng: HopRng::seeded(seed),
            produce_next: true,
            next_value: tag << 40,
            flow: Flow::default(),
            consumes: 0,
            empty: 0,
        }
    }

    /// Whether the next step produces.
    #[inline]
    fn next_is_produce(&mut self) -> bool {
        match self.mix {
            Mix::Singular => self.rng.next_u64() >> 63 == 0,
            Mix::Batched(_) => {
                self.produce_next = !self.produce_next;
                !self.produce_next
            }
        }
    }

    #[inline]
    fn values(&mut self, n: usize) -> Vec<u64> {
        let start = self.next_value;
        self.next_value += n as u64;
        let values: Vec<u64> = (start..start + n as u64).collect();
        values.iter().for_each(|&v| self.flow.produced.add(v));
        values
    }

    #[inline]
    fn produce(&mut self) -> u64 {
        match self.mix {
            Mix::Singular => {
                let v = self.next_value;
                self.next_value += 1;
                self.handle.produce(v);
                self.flow.produced.add(v);
                1
            }
            Mix::Batched(n) => {
                let values = self.values(n);
                self.handle.produce_n(values);
                n as u64
            }
        }
    }

    #[inline]
    fn consume(&mut self) -> u64 {
        let (asked, got) = match self.mix {
            Mix::Singular => match self.handle.consume() {
                Some(v) => {
                    self.flow.consumed.add(v);
                    (1, 1)
                }
                None => (1, 0),
            },
            Mix::Batched(n) => {
                let got = self.handle.consume_n(n);
                got.iter().for_each(|&v| self.flow.consumed.add(v));
                (n as u64, got.len() as u64)
            }
        };
        self.consumes += asked;
        self.empty += asked - got;
        // An empty singular pop is still an operation; a short batch
        // counts the items it moved.
        if matches!(self.mix, Mix::Singular) {
            1
        } else {
            got
        }
    }

    #[inline]
    fn step(&mut self) -> u64 {
        if self.next_is_produce() {
            self.produce()
        } else {
            self.consume()
        }
    }

    fn step_traced(&mut self, tracer: &mut Tracer, spec: &Spec) -> u64 {
        let request = self.next_value;
        if self.next_is_produce() {
            tracer.span(spec.produce_span.0, request, || self.produce())
        } else {
            tracer.span(spec.consume_span.0, request, || self.consume())
        }
    }
}

/// Runs `stack-churn`.
pub fn stack_churn(args: &RunArgs) -> Outcome {
    let mut outcome = run(&STACK_CHURN, args, |seed| {
        Stack2D::builder().for_threads(THREADS).seed(seed).build().expect("valid stack preset")
    });
    stack_oracle(args.seed, &mut outcome);
    outcome
}

/// Runs `queue-batch`.
pub fn queue_batch(args: &RunArgs) -> Outcome {
    let mut outcome = run(&QUEUE_BATCH, args, |seed| {
        Queue2D::builder().for_threads(THREADS).seed(seed).build().expect("valid queue preset")
    });
    queue_oracle(args.seed, &mut outcome);
    outcome
}

/// A worker on `s` whose handle and coin are seeded from `(seed, stream)`
/// and whose values are tagged with `stream`.
fn new_worker<S: RelaxedOps<u64>>(
    s: &S,
    mix: Mix,
    seed: u64,
    stream: u64,
) -> Worker<S::Handle<'_>> {
    let handle = s.ops_handle_seeded(derive_seed(seed, stream));
    Worker::new(handle, mix, derive_seed(seed, stream + 64), stream)
}

/// Set-up, timed phase and drain, shared by both workloads.
fn run<S>(spec: &Spec, args: &RunArgs, build: impl Fn(u64) -> S) -> Outcome
where
    S: RelaxedOps<u64> + ElasticTarget,
{
    let seed = args.seed;
    let mut outcome = Outcome::default();

    // Set-up, several times; the last structure is the one measured.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<(S, Flow)> = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t0 = Instant::now();
        let s = build(seed);
        let mut flow = Flow::default();
        let mut filler = new_worker(&s, spec.mix, seed, 1);
        let mut filled = 0;
        while filled < PREFILL {
            filled += filler.produce();
        }
        flow.merge(&filler.flow);
        drop(filler);
        for f in in_threads(THREADS, |t| {
            let mut w = new_worker(&s, spec.mix, seed, 2 + t as u64);
            (0..spec.warmup_steps).for_each(|_| {
                w.step();
            });
            w.flow
        }) {
            flow.merge(&f);
        }
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some((s, flow));
    }
    let (s, mut flow) = kept.expect("at least one set-up");

    // Timed phase (the first half of it when tracing).
    let timed_secs = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let before = ElasticTarget::metrics(&s);
    let proc0 = ProcStat::now();
    let clock = Clock::for_seconds(timed_secs, CHUNK);
    let (results, rss) = in_threads_sampling_rss(THREADS, CHUNK, |t| {
        let mut w = new_worker(&s, spec.mix, seed, 4 + t as u64);
        let log = timed_loop(&clock, spec.sample_every, || w.step());
        (log, w.flow, w.consumes, w.empty)
    });
    let delta = ElasticTarget::metrics(&s).delta_since(&before);
    let proc = ProcStat::now().since(&proc0);
    let mut logs = Vec::new();
    let (mut consumes, mut empty) = (0, 0);
    for (log, f, c, e) in results {
        logs.push(log);
        flow.merge(&f);
        consumes += c;
        empty += e;
    }
    let phase = summarize(&clock, &logs);

    let m = &mut outcome.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("ops_per_s", phase.ops_per_s);
    m.insert("latency_p50_us", phase.p50_us);
    m.insert("latency.p99_us", phase.p99_us);
    m.insert("os.rss_mib", central_mean(&rss));
    m.insert("os.rss_peak_mib", rss_peak_mib());
    m.insert("latency.samples", phase.samples as f64);
    engine_metrics(m, &delta);
    m.insert("workload.empty_rate", ratio(empty as f64, consumes as f64));
    let mops = delta.ops as f64 / 1e6;
    m.insert("os.user_cpu_s_per_mop", ratio(proc.user_s, mops));
    m.insert("os.sys_cpu_s_per_mop", ratio(proc.sys_s, mops));
    m.insert("os.invol_csw", proc.invol_csw as f64);
    outcome.checks.attempted += delta.ops;
    outcome.summary.push(format!(
        "timed phase: {:.0} ops/s over {} chunks of {:?} ({:.0} ops/s raw), {} latency samples",
        phase.ops_per_s,
        clock.chunks() - 1,
        CHUNK,
        phase.raw_ops_per_s,
        phase.samples
    ));
    outcome.summary.push(format!("structure counters: {delta}"));

    if args.trace {
        let origin = Instant::now();
        let traced = in_threads(THREADS, |t| {
            let mut w = new_worker(&s, spec.mix, seed, 6 + t as u64);
            let mut tracer = Tracer::new(origin);
            let (ops, elapsed) =
                traced_loop(Duration::from_secs_f64(timed_secs), &mut tracer, |tr| {
                    w.step_traced(tr, spec)
                });
            (tracer, w.flow, ops, elapsed)
        });
        let mut tracer = Tracer::new(origin);
        let mut traced_rate = 0.0;
        for (tr, f, ops, elapsed) in traced {
            tracer.merge(tr);
            flow.merge(&f);
            traced_rate += ops as f64 / elapsed.as_secs_f64();
        }
        let untraced_rate = phase.raw_ops_per_s;
        let m = &mut outcome.metrics;
        for (span, metric) in [spec.produce_span, spec.consume_span] {
            m.insert(metric, tracer.totals(span).mean_self_ns());
        }
        m.insert("trace.overhead", ratio(untraced_rate, traced_rate) - 1.0);
        m.insert("trace.timer_ns", timer_pair_ns());
        m.insert("trace.spans", tracer.span_count() as f64);
        outcome.summary.push(format!(
            "traced phase: {traced_rate:.0} ops/s against {untraced_rate:.0} untraced"
        ));
        outcome.spans = tracer.spans().to_vec();
    }

    // Drain and check conservation.
    let mut drainer = new_worker(&s, spec.mix, seed, 8);
    while let Some(v) = drainer.handle.consume() {
        flow.consumed.add(v);
    }
    drop(drainer);
    if let Err(e) = flow.check() {
        outcome.checks.failures.push(e);
    }
    outcome.summary.push(format!(
        "conservation: {} produced, {} consumed",
        flow.produced.count(),
        flow.consumed.count()
    ));
    outcome
}

/// The engine, sub-structure and window counters of a phase.
fn engine_metrics(m: &mut Metrics, d: &MetricsSnapshot) {
    let ops = d.ops as f64;
    m.insert("engine.probes_per_op", ratio(d.probes as f64, ops));
    m.insert("engine.search_rounds_per_op", ratio(d.search_rounds as f64, ops));
    m.insert("engine.items_per_round", ratio(ops, d.search_rounds as f64));
    m.insert("engine.restarts_per_kop", ratio(1e3 * d.global_restarts as f64, ops));
    m.insert("substack.cas_fail_per_op", ratio(d.cas_failures as f64, ops));
    m.insert("window.shifts_per_kop", ratio(1e3 * (d.shifts_up + d.shifts_down) as f64, ops));
}

/// Records the rank-error metrics and checks the maximum against the
/// structure's bound.
fn quality_metrics(outcome: &mut Outcome, stats: &ErrorStats, bound: usize) {
    let m = &mut outcome.metrics;
    m.insert("rank_error_mean", stats.mean());
    m.insert("quality.rank_error_max", f64::from(stats.max()));
    m.insert("quality.rank_error_p99", f64::from(stats.quantile(0.99)));
    m.insert("quality.k_bound", bound as f64);
    outcome.checks.attempted += stats.len() as u64;
    outcome.checks.expect(stats.max() as usize <= bound, || {
        format!("rank error {} exceeds the reported bound {bound}", stats.max())
    });
    outcome.summary.push(format!(
        "oracle phase: {} removals, mean rank error {:.4}, max {} (bound {bound})",
        stats.len(),
        stats.mean(),
        stats.max()
    ));
}

/// Picks which of two handles acts next, and whether it produces.
fn oracle_schedule(seed: u64) -> impl FnMut() -> (usize, bool) {
    let mut rng = HopRng::seeded(derive_seed(seed, 900));
    move || {
        let r = rng.next_u64();
        ((r >> 63) as usize, (r >> 62) & 1 == 0)
    }
}

/// Rank error of `Stack2D` under the paper's oracle: two seeded handles
/// take turns in a seeded order, each push and pop mirrored in the
/// sequential side list of `MeasuredStack`.
fn stack_oracle(seed: u64, outcome: &mut Outcome) {
    let stack: Stack2D<Label> =
        Stack2D::builder().for_threads(THREADS).seed(seed).build().expect("valid stack preset");
    let measured = MeasuredStack::new(&stack);
    measured.prefill(PREFILL as usize);
    let mut handles = [
        measured.handle_seeded(derive_seed(seed, 901)),
        measured.handle_seeded(derive_seed(seed, 902)),
    ];
    let mut next = oracle_schedule(seed);
    for _ in 0..ORACLE_STEPS {
        let (who, push) = next();
        if push {
            handles[who].push();
        } else {
            handles[who].pop();
        }
    }
    drop(handles);
    let stats = measured.take_stats();
    quality_metrics(outcome, &stats, stack.k_bound());
}

/// Rank error of `Queue2D` on the batched path: two seeded handles take
/// turns, each alternating `produce_n(8)` and `consume_n(8)`; every
/// dequeued label is looked up in the FIFO side list in the order the
/// batch returned it.
fn queue_oracle(seed: u64, outcome: &mut Outcome) {
    let Mix::Batched(n) = QUEUE_BATCH.mix else { unreachable!("queue-batch is batched") };
    let queue: Queue2D<Label> =
        Queue2D::builder().for_threads(THREADS).seed(seed).build().expect("valid queue preset");
    let mut fifo = FifoOracle::new();
    let mut stats = ErrorStats::new();
    let mut unknown = 0u64;
    let mut next_label: Label = 0;
    let mut produce = |h: &mut dyn OpsHandle<Label>, fifo: &mut FifoOracle, count: usize| {
        let labels: Vec<Label> = (next_label..next_label + count as u64).collect();
        next_label += count as u64;
        labels.iter().for_each(|&l| fifo.insert(l));
        h.produce_n(labels);
    };
    let mut handles = [
        queue.ops_handle_seeded(derive_seed(seed, 901)),
        queue.ops_handle_seeded(derive_seed(seed, 902)),
    ];
    for _ in 0..PREFILL as usize / n {
        produce(&mut handles[0], &mut fifo, n);
    }
    let mut produce_next = [true, true];
    let mut schedule = oracle_schedule(seed);
    for _ in 0..ORACLE_STEPS {
        let (who, _) = schedule();
        produce_next[who] = !produce_next[who];
        if !produce_next[who] {
            produce(&mut handles[who], &mut fifo, n);
        } else {
            for label in handles[who].consume_n(n) {
                match fifo.delete(label) {
                    Some(d) => stats.record(d),
                    None => unknown += 1,
                }
            }
        }
    }
    // Drain: every remaining label must still be live in the side list.
    loop {
        let got = handles[0].consume_n(64);
        if got.is_empty() {
            break;
        }
        unknown += got.into_iter().filter(|&l| fifo.delete(l).is_none()).count() as u64;
    }
    outcome.checks.failed_ops += unknown;
    outcome.checks.expect(unknown == 0 && fifo.is_empty(), || {
        format!("queue oracle: {unknown} unknown labels, {} never dequeued", fifo.len())
    });
    quality_metrics(outcome, &stats, queue.k_bound());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rank_error_over_the_bound_fails_the_run() {
        let mut stats = ErrorStats::new();
        [0, 3, 21].into_iter().for_each(|d| stats.record(d));
        let mut within = Outcome::default();
        quality_metrics(&mut within, &stats, 21);
        assert!(within.checks.correct());
        assert_eq!(within.metrics["quality.rank_error_max"], 21.0);
        let mut over = Outcome::default();
        quality_metrics(&mut over, &stats, 20);
        assert!(!over.checks.correct(), "a removal 21 positions out of order breaks k = 20");
    }

    #[test]
    fn batched_workers_alternate_and_conserve() {
        let queue: Queue2D<u64> = Queue2D::builder().width(2).seed(1).build().unwrap();
        let mut w = new_worker(&queue, Mix::Batched(8), 1, 3);
        let moved: Vec<u64> = (0..6).map(|_| w.step()).collect();
        assert_eq!(moved, [8, 8, 8, 8, 8, 8], "produce 8, consume the 8 back, and so on");
        assert_eq!(w.empty, 0);
        assert!(w.flow.check().is_ok());
    }
}
