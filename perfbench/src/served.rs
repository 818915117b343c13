//! The `served-mix` workload: an in-process `relaxed2d-server` on loopback
//! and one client connection in a closed loop.
//!
//! Nine tenants (three object-pools, three task-queues, three
//! rate-limiters, each under the server's default AIMD controller) receive
//! frames of 32 requests made of same-verb runs of 4. A run picks a
//! personality uniformly and a tenant of it by a seeded zipf draw. Pool and
//! queue tenants alternate produce runs and consume runs, so their
//! occupancy stays near the 1024-item wire prefill; limiter runs are
//! `Acquire`s of cost 1. The frame cycle is generated from the seed before
//! any timing and replayed in order.
//!
//! Every response is checked against its request index by index, every
//! produced value must come back exactly once (the final drain goes over
//! the wire too), and the oracle phase measures the rank error clients see
//! on pools (LIFO) and queues (FIFO).
//!
//! The traced run times the client's encode, write, wait, read and decode
//! over a real socket, then replays the same frames in process through the
//! server's public pieces (`decode_request_batch`, `TenantMap::get`,
//! `Tenant::ops_handle`, `produce_n`/`consume_n`, `encode_response_batch`)
//! to split the server's share of the wait by layer.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use relaxed2d_server::frame::{read_frame, write_frame, FrameEvent, DEFAULT_MAX_FRAME_LEN};
use relaxed2d_server::protocol::{
    decode_request_batch, decode_response_batch, encode_request_batch, encode_response_batch,
};
use relaxed2d_server::tenant::{Tenant, TenantMap};
use relaxed2d_server::{
    Client, Personality, Request, Response, Server, ServerConfig, ServerHandle, TenantConfig,
};
use stack2d::rng::HopRng;
use stack2d::OpsHandle;
use stack2d_quality::{ErrorStats, FifoOracle, Oracle};

use crate::ledger::Flow;
use crate::measure::{derive_seed, summarize, Clock, ThreadLog};
use crate::report::{central_mean, median, ratio, Checks};
use crate::sysstat::{rss_mib, rss_peak_mib, ProcStat};
use crate::trace::{timer_pair_ns, Tracer};
use crate::{Outcome, RunArgs};

const PER_KIND: usize = 3;
const KINDS: [Personality; 3] =
    [Personality::ObjectPool, Personality::TaskQueue, Personality::RateLimiter];
const DEPTH: usize = 32;
const RUN: usize = 4;
const ZIPF_S: f64 = 0.9;
/// Items put into each pool and queue tenant over the wire at set-up.
const PREFILL: usize = 1024;
/// Frames in the generated cycle the timed phase replays.
const CYCLE_FRAMES: usize = 4096;
const WARMUP_FRAMES: usize = 3000;
const SETUP_REPEATS: usize = 5;
const CHUNK: Duration = Duration::from_millis(250);
/// Oracle-phase frames run before rank errors are recorded. Items put in
/// by the produce-only prefill come out first with rank errors tens of
/// times the steady level; the warm-in keeps them out of the mean.
const ORACLE_WARMUP_FRAMES: usize = 4000;
const ORACLE_FRAMES: usize = 16_000;
const REPLAY_FRAMES: usize = 20_000;
/// Drain frames after which a tenant that still returns items fails the
/// run; a tenant holds about the prefill plus a few hundred items of cycle
/// drift, some fifty frames' worth.
const MAX_DRAIN_FRAMES: usize = 10_000;
/// Rate-limiter allowance: every acquire is admitted.
const LIMIT: u64 = u64::MAX;
/// Relaxation budget of every tenant's controller: the bound of the
/// in-process workloads' `for_threads(2)` window, `(2 + 1) * (8 - 1)`.
/// Under the default budget (1024) the window a tenant settles in depends
/// on controller history, and the rank error clients see varies several
/// fold between runs; at this budget the controllers still run but settle
/// at the same window every time.
const K_BUDGET: usize = 21;

/// The tenant configuration: the server's defaults but for the budget.
fn tenant_config() -> TenantConfig {
    TenantConfig { k_budget: K_BUDGET, ..TenantConfig::default() }
}

/// One generated frame and the tenant index of each request.
struct Frame {
    reqs: Vec<Request>,
    tenants: Vec<usize>,
}

/// The nine tenants: `(personality, name)`, index = kind * 3 + rank.
fn tenant_list() -> Vec<(Personality, String)> {
    KINDS
        .iter()
        .flat_map(|&p| (0..PER_KIND).map(move |i| (p, format!("{}-{i}", p.name()))))
        .collect()
}

fn holds_items(p: Personality) -> bool {
    p != Personality::RateLimiter
}

/// Generates `n` frames from `seed`. Produced values are `tag << 40`
/// plus a counter, so values of different streams never collide.
fn generate(seed: u64, stream: u64, n: usize) -> Vec<Frame> {
    let tenants = tenant_list();
    let mut rng = HopRng::seeded(derive_seed(seed, stream));
    let weights: Vec<f64> = (1..=PER_KIND).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let zipf = |u: f64| {
        let mut acc = 0.0;
        weights.iter().position(|w| {
            acc += w / total;
            u < acc
        })
    };
    let mut produce_next = vec![true; tenants.len()];
    let mut next_value = stream << 40;
    (0..n)
        .map(|_| {
            let mut frame = Frame { reqs: Vec::with_capacity(DEPTH), tenants: Vec::new() };
            for _ in 0..DEPTH / RUN {
                let kind = rng.bounded(KINDS.len());
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let t = kind * PER_KIND + zipf(u).unwrap_or(PER_KIND - 1);
                let (personality, name) = &tenants[t];
                let produce = produce_next[t];
                produce_next[t] = !produce;
                for _ in 0..RUN {
                    frame.tenants.push(t);
                    frame.reqs.push(match (personality, produce) {
                        (Personality::RateLimiter, _) => {
                            Request::Acquire { tenant: name.clone(), cost: 1 }
                        }
                        (&p, true) => {
                            next_value += 1;
                            Request::Produce {
                                personality: p,
                                tenant: name.clone(),
                                value: next_value,
                            }
                        }
                        (&p, false) => Request::Consume { personality: p, tenant: name.clone() },
                    });
                }
            }
            frame
        })
        .collect()
}

/// Frames of `Produce` requests putting `values` into tenant `t`.
fn fill_frames(t: usize, values: &[u64]) -> Vec<Frame> {
    let (p, name) = tenant_list().swap_remove(t);
    values
        .chunks(DEPTH)
        .map(|chunk| Frame {
            reqs: chunk
                .iter()
                .map(|&value| Request::Produce { personality: p, tenant: name.clone(), value })
                .collect(),
            tenants: vec![t; chunk.len()],
        })
        .collect()
}

/// A frame of `DEPTH` consumes on tenant `t`.
fn drain_frame(t: usize) -> Frame {
    let (p, name) = tenant_list().swap_remove(t);
    Frame {
        reqs: vec![Request::Consume { personality: p, tenant: name }; DEPTH],
        tenants: vec![t; DEPTH],
    }
}

/// Client-side accounting of the responses seen.
#[derive(Debug, Default)]
struct Tally {
    flows: Vec<Flow>,
    requests: u64,
    items: u64,
    empty: u64,
    /// Typed `Error` responses.
    errors: u64,
    /// Responses of the wrong kind for their request, or missing.
    mismatches: u64,
}

impl Tally {
    fn new() -> Self {
        Tally { flows: vec![Flow::default(); KINDS.len() * PER_KIND], ..Tally::default() }
    }

    /// Checks that `resps` answers `frame` index by index, books every
    /// produced and consumed value, and hands each of them, in request
    /// order, to `each`.
    fn check(&mut self, frame: &Frame, resps: &[Response], mut each: impl FnMut(usize, Op)) {
        self.requests += frame.reqs.len() as u64;
        if resps.len() != frame.reqs.len() {
            self.mismatches += frame.reqs.len() as u64;
            return;
        }
        for ((req, resp), &t) in frame.reqs.iter().zip(resps).zip(&frame.tenants) {
            match (req, resp) {
                (Request::Produce { value, .. }, Response::Done) => {
                    self.flows[t].produced.add(*value);
                    each(t, Op::Produced(*value));
                }
                (Request::Consume { .. }, Response::Item { value }) => {
                    self.items += 1;
                    self.flows[t].consumed.add(*value);
                    each(t, Op::Consumed(*value));
                }
                (Request::Consume { .. }, Response::Empty) => self.empty += 1,
                (Request::Acquire { .. }, Response::Decision { .. }) => {}
                (_, Response::Error { .. }) => self.errors += 1,
                _ => self.mismatches += 1,
            }
        }
    }

    fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }
}

/// A value a checked response moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Produced(u64),
    Consumed(u64),
}

/// A running server with the benchmark's connection and tenants.
struct Served {
    handle: ServerHandle,
    client: Client,
    tally: Tally,
}

impl Served {
    /// Sends one frame and checks the answer.
    fn call(&mut self, frame: &Frame, each: impl FnMut(usize, Op)) -> Result<(), String> {
        let resps = self.client.call(&frame.reqs).map_err(|e| format!("client call: {e}"))?;
        self.tally.check(frame, &resps, each);
        Ok(())
    }

    /// Consumes every item left in each pool and queue tenant.
    fn drain(&mut self, mut each: impl FnMut(usize, Op)) -> Result<(), String> {
        for (t, (p, _)) in tenant_list().into_iter().enumerate() {
            if !holds_items(p) {
                continue;
            }
            let frame = drain_frame(t);
            let mut drained = false;
            for _ in 0..MAX_DRAIN_FRAMES {
                let empty = self.tally.empty;
                self.call(&frame, &mut each)?;
                if self.tally.empty - empty == DEPTH as u64 {
                    drained = true;
                    break;
                }
            }
            if !drained {
                return Err(format!(
                    "tenant {t} still answers items after {MAX_DRAIN_FRAMES} frames"
                ));
            }
        }
        Ok(())
    }

    /// The live `Stats` answer of every tenant.
    fn stats(&mut self) -> Result<Vec<Response>, String> {
        let reqs: Vec<Request> = tenant_list()
            .into_iter()
            .map(|(personality, tenant)| Request::Stats { personality, tenant })
            .collect();
        self.client.call(&reqs).map_err(|e| format!("stats call: {e}"))
    }

    fn shutdown(self) {
        drop(self.client);
        if let Err(e) = self.handle.shutdown() {
            eprintln!("perfbench: server shutdown: {e}");
        }
    }
}

/// Spawns the server, connects, creates the tenants, prefills them over
/// the wire and runs the warm-up frames.
fn set_up(warmup: &[Frame]) -> Result<Served, String> {
    let handle =
        Server::spawn(ServerConfig { tenants: tenant_config(), ..ServerConfig::default() })
            .map_err(|e| format!("spawn: {e}"))?;
    let client = Client::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut served = Served { handle, client, tally: Tally::new() };
    let creates: Vec<Request> = tenant_list()
        .into_iter()
        .map(|(personality, tenant)| Request::Create { personality, tenant, limit: LIMIT })
        .collect();
    let created = served.client.call(&creates).map_err(|e| format!("create: {e}"))?;
    if created.iter().any(|r| !matches!(r, Response::Created { .. })) {
        return Err(format!("tenant creation refused: {created:?}"));
    }
    for (t, (p, _)) in tenant_list().into_iter().enumerate() {
        if holds_items(p) {
            let values: Vec<u64> =
                (0..PREFILL as u64).map(|i| (2 << 40) | (t as u64) << 32 | i).collect();
            for frame in fill_frames(t, &values) {
                served.call(&frame, |_, _| ())?;
            }
        }
    }
    for frame in warmup {
        served.call(frame, |_, _| ())?;
    }
    Ok(served)
}

/// Runs `served-mix`.
pub fn served_mix(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    if let Err(e) = run(args, &mut outcome) {
        outcome.checks.failures.push(e);
    }
    outcome
}

fn run(args: &RunArgs, outcome: &mut Outcome) -> Result<(), String> {
    let seed = args.seed;
    let cycle = generate(seed, 1, CYCLE_FRAMES);

    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = served.take() {
            Served::shutdown(s);
        }
        let t0 = Instant::now();
        served = Some(set_up(&cycle[..WARMUP_FRAMES])?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut served = served.expect("at least one set-up");

    // Timed closed loop (the first half of it when tracing).
    let timed_secs = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let proc0 = ProcStat::now();
    let (items0, empty0) = (served.tally.items, served.tally.empty);
    let clock = Clock::for_seconds(timed_secs, CHUNK);
    let mut log = ThreadLog { chunk_ops: vec![0; clock.chunks()], latencies: Vec::new() };
    let mut frames = 0u64;
    let mut rtt_ns = 0u64;
    let mut bytes = 0u64;
    let mut rss = Vec::new();
    for frame in cycle.iter().cycle() {
        let t0 = Instant::now();
        let resps = served.client.call(&frame.reqs).map_err(|e| format!("client call: {e}"))?;
        let t1 = Instant::now();
        served.tally.check(frame, &resps, |_, _| ());
        let Some(c) = clock.chunk_of(t1) else { break };
        if rss.len() < c {
            rss.push(rss_mib());
        }
        let ns = t1.duration_since(t0).as_nanos() as u64;
        log.chunk_ops[c] += frame.reqs.len() as u64;
        log.latencies.push((c as u32, u32::try_from(ns).unwrap_or(u32::MAX)));
        frames += 1;
        rtt_ns += ns;
        if frames <= 64 {
            bytes += 8
                + encode_request_batch(&frame.reqs).len() as u64
                + encode_response_batch(&resps).len() as u64;
        }
    }
    let proc = ProcStat::now().since(&proc0);
    let phase = summarize(&clock, std::slice::from_ref(&log));
    let untraced_rtt = rtt_ns as f64 / frames.max(1) as f64;

    let m = &mut outcome.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("ops_per_s", phase.ops_per_s);
    m.insert("latency_p50_us", phase.p50_us);
    m.insert("latency.p99_us", phase.p99_us);
    m.insert("os.rss_mib", central_mean(&rss));
    m.insert("os.rss_peak_mib", rss_peak_mib());
    m.insert("latency.samples", phase.samples as f64);
    m.insert("frame.bytes", bytes as f64 / frames.clamp(1, 64) as f64);
    let mreq = (frames * DEPTH as u64) as f64 / 1e6;
    m.insert("os.user_cpu_s_per_mop", ratio(proc.user_s, mreq));
    m.insert("os.sys_cpu_s_per_mop", ratio(proc.sys_s, mreq));
    m.insert("os.vol_csw_per_kframe", ratio(1e3 * proc.vol_csw as f64, frames as f64));
    m.insert("os.invol_csw", proc.invol_csw as f64);
    let empty = (served.tally.empty - empty0) as f64;
    m.insert("workload.empty_rate", ratio(empty, (served.tally.items - items0) as f64 + empty));
    outcome.summary.push(format!(
        "timed phase: {:.0} requests/s in {frames} frames, round trip p50 {:.2} us p99 {:.2} us ({} samples)",
        phase.ops_per_s, phase.p50_us, phase.p99_us, phase.samples
    ));

    if args.trace {
        let traced_rtt = traced_client(&mut served, &cycle, timed_secs, outcome)?;
        outcome.metrics.insert("trace.overhead", traced_rtt / untraced_rtt - 1.0);
        outcome.metrics.insert("trace.timer_ns", timer_pair_ns());
        outcome.summary.push(format!(
            "traced round trip {traced_rtt:.0} ns against {untraced_rtt:.0} ns untraced"
        ));
    }

    served.drain(|_, _| ())?;
    conservation(&served.tally, &mut outcome.checks);
    oracle_phase(seed, &mut served, outcome)?;

    let stats = served.stats()?;
    let pools_and_queues = tenant_list().iter().map(|(p, _)| holds_items(*p)).collect::<Vec<_>>();
    let (mut retunes, mut widths, mut k_bound) = (0u64, Vec::new(), 0u64);
    for (resp, &holds) in stats.iter().zip(&pools_and_queues) {
        match resp {
            Response::Stats { width, k_bound: k, retunes: r, .. } => {
                retunes += r;
                widths.push(f64::from(*width));
                if holds {
                    k_bound = k_bound.max(*k);
                }
            }
            other => return Err(format!("stats answered {other:?}")),
        }
    }
    let m = &mut outcome.metrics;
    m.insert("adaptive.retunes", retunes as f64);
    m.insert("adaptive.final_width", widths.iter().sum::<f64>() / widths.len().max(1) as f64);
    m.insert("quality.k_bound", k_bound as f64);
    outcome.summary.push(format!("controllers: {retunes} retunes, final widths {widths:?}"));

    if args.trace {
        replay(seed, &cycle, outcome)?;
    }

    let tally = &served.tally;
    outcome.checks.attempted += tally.requests;
    outcome.checks.failed_ops += tally.failed();
    outcome.summary.push(format!(
        "responses: {} requests, {} items, {} empty, {} typed errors, {} mismatched",
        tally.requests, tally.items, tally.empty, tally.errors, tally.mismatches
    ));
    served.shutdown();
    Ok(())
}

/// Checks that every pool and queue tenant gave back exactly what it took.
fn conservation(tally: &Tally, checks: &mut Checks) {
    for (t, flow) in tally.flows.iter().enumerate() {
        if let Err(e) = flow.check() {
            checks.failures.push(format!("tenant {t}: {e}"));
        }
    }
}

/// Rank error seen by the client: fresh labels through the same frame
/// shape, each pool mirrored in a LIFO side list and each queue in a FIFO
/// one, updated in request order (the order the server executes a frame).
fn oracle_phase(seed: u64, served: &mut Served, outcome: &mut Outcome) -> Result<(), String> {
    let tenants = tenant_list();
    let mut lifo: Vec<Oracle> = tenants.iter().map(|_| Oracle::new()).collect();
    let mut fifo: Vec<FifoOracle> = tenants.iter().map(|_| FifoOracle::new()).collect();
    let mut stats = ErrorStats::new();
    let mut unknown = 0u64;
    let mut apply = |t: usize, op: Op, record: bool| {
        let pool = tenants[t].0 == Personality::ObjectPool;
        match op {
            Op::Produced(v) if pool => lifo[t].insert(v),
            Op::Produced(v) => fifo[t].insert(v),
            Op::Consumed(v) => {
                let d = if pool { lifo[t].delete(v) } else { fifo[t].delete(v) };
                match d {
                    Some(d) if record => stats.record(d),
                    Some(_) => {}
                    None => unknown += 1,
                }
            }
        }
    };
    for (t, (p, _)) in tenants.iter().enumerate() {
        if holds_items(*p) {
            let labels: Vec<u64> =
                (0..PREFILL as u64).map(|i| (3 << 40) | (t as u64) << 32 | i).collect();
            for frame in fill_frames(t, &labels) {
                served.call(&frame, |t, op| apply(t, op, false))?;
            }
        }
    }
    for (i, frame) in generate(seed, 4, ORACLE_WARMUP_FRAMES + ORACLE_FRAMES).iter().enumerate() {
        let record = i >= ORACLE_WARMUP_FRAMES;
        served.call(frame, |t, op| apply(t, op, record))?;
    }
    served.drain(|t, op| apply(t, op, false))?;
    let left: usize = lifo.iter().map(Oracle::len).chain(fifo.iter().map(FifoOracle::len)).sum();
    outcome.checks.failed_ops += unknown;
    outcome.checks.expect(unknown == 0 && left == 0, || {
        format!("oracle phase: {unknown} unknown items, {left} never returned")
    });
    outcome.checks.attempted += stats.len() as u64;
    let m = &mut outcome.metrics;
    m.insert("rank_error_mean", stats.mean());
    m.insert("quality.rank_error_max", f64::from(stats.max()));
    m.insert("quality.rank_error_p99", f64::from(stats.quantile(0.99)));
    outcome.summary.push(format!(
        "oracle phase: {} items, mean rank error {:.4}, max {}",
        stats.len(),
        stats.mean(),
        stats.max()
    ));
    Ok(())
}

/// The traced client: the same frames over a fresh raw connection, with a
/// span around encode, write, wait for the first reply byte, read and
/// decode. Returns the mean traced round trip in nanoseconds.
fn traced_client(
    served: &mut Served,
    cycle: &[Frame],
    secs: f64,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let mut stream = TcpStream::connect(served.handle.local_addr())
        .map_err(|e| format!("traced connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let mut tracer = Tracer::new(Instant::now());
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut frames = 0u64;
    for (i, frame) in cycle.iter().cycle().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let id = i as u64;
        tracer.begin("client.frame", id);
        let body = tracer.span("protocol.client_encode", id, || encode_request_batch(&frame.reqs));
        tracer
            .span("frame.write", id, || write_frame(&mut stream, &body))
            .map_err(|e| format!("traced write: {e}"))?;
        tracer
            .span("frame.wait", id, || stream.peek(&mut [0u8; 1]))
            .map_err(|e| format!("traced wait: {e}"))?;
        let event = tracer
            .span("frame.read", id, || read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN))
            .map_err(|e| format!("traced read: {e}"))?;
        let FrameEvent::Frame(reply) = event else {
            return Err(format!("traced read: {event:?}"));
        };
        let resps = tracer
            .span("protocol.client_decode", id, || decode_response_batch(&reply))
            .map_err(|e| format!("traced decode: {e}"))?;
        tracer.end();
        served.tally.check(frame, &resps, |_, _| ());
        frames += 1;
    }
    let m = &mut outcome.metrics;
    for (span, metric) in [
        ("protocol.client_encode", "protocol.client_encode_ns"),
        ("frame.write", "frame.write_ns"),
        ("frame.wait", "frame.wait_ns"),
        ("frame.read", "frame.read_ns"),
        ("protocol.client_decode", "protocol.client_decode_ns"),
    ] {
        m.insert(metric, tracer.totals(span).mean_self_ns());
    }
    let rtt = tracer.totals("client.frame");
    outcome.summary.push(format!("traced client: {frames} frames"));
    let traced_rtt = ratio(rtt.total_ns as f64, rtt.calls as f64);
    outcome.spans.extend_from_slice(tracer.spans());
    outcome.metrics.insert("trace.spans", tracer.span_count() as f64);
    Ok(traced_rtt)
}

/// Replays the frames through the server's public pieces in process, with
/// a span per layer call, and books what the client's wait does not
/// explain.
fn replay(seed: u64, cycle: &[Frame], outcome: &mut Outcome) -> Result<(), String> {
    let map = TenantMap::new(tenant_config(), None);
    let tenants = tenant_list();
    for (t, (p, name)) in tenants.iter().enumerate() {
        let (tenant, _) = map.get_or_create(*p, name, LIMIT).map_err(|e| format!("{e:?}"))?;
        if holds_items(*p) {
            let values = (0..PREFILL as u64).map(|i| (5 << 40) | (t as u64) << 32 | i).collect();
            tenant.ops_handle(derive_seed(seed, 60)).produce_n(values);
        }
    }
    let bodies: Vec<Vec<u8>> = cycle.iter().map(|f| encode_request_batch(&f.reqs)).collect();
    let mut tracer = Tracer::new(Instant::now());
    let mut tally = Tally::new();
    let mut runs = 0u64;
    for i in 0..REPLAY_FRAMES {
        let id = i as u64;
        let frame = &cycle[i % cycle.len()];
        tracer.begin("server.frame", id);
        let reqs = tracer
            .span("protocol.server_decode", id, || decode_request_batch(&bodies[i % bodies.len()]))
            .map_err(|e| format!("replay decode: {e}"))?;
        let resolved: Vec<Option<Arc<Tenant>>> = reqs
            .iter()
            .map(|req| {
                let key = match req {
                    Request::Produce { personality, tenant, .. }
                    | Request::Consume { personality, tenant } => Some((*personality, tenant)),
                    Request::Acquire { tenant, .. } => Some((Personality::RateLimiter, tenant)),
                    _ => None,
                };
                key.and_then(|(p, name)| tracer.span("tenant.resolve", id, || map.get(p, name)))
            })
            .collect();
        let (resps, frame_runs) = execute(&reqs, &resolved, &mut tracer, id, seed);
        runs += frame_runs;
        let reply = tracer.span("protocol.server_encode", id, || encode_response_batch(&resps));
        tracer.end();
        std::hint::black_box(reply);
        tally.check(frame, &resps, |_, _| ());
    }
    outcome.checks.attempted += tally.requests;
    outcome.checks.failed_ops += tally.failed();
    let m = &mut outcome.metrics;
    for (span, metric) in [
        ("protocol.server_decode", "protocol.server_decode_ns"),
        ("protocol.server_encode", "protocol.server_encode_ns"),
        ("tenant.resolve", "tenant.resolve_ns"),
        ("tenant.handle", "tenant.handle_ns"),
        ("ops.produce_n", "ops.produce_n_ns"),
        ("ops.consume_n", "ops.consume_n_ns"),
        ("ops.acquire", "ops.acquire_ns"),
    ] {
        m.insert(metric, tracer.totals(span).mean_self_ns());
    }
    let server = tracer.totals("server.frame");
    let server_ns = ratio(server.total_ns as f64, server.calls as f64);
    let wait_ns = m.get("frame.wait_ns").copied().unwrap_or(0.0);
    m.insert("ledger.unexplained_ns", wait_ns - server_ns);
    m.insert("conn.runs_per_frame", runs as f64 / REPLAY_FRAMES as f64);
    let spans = m.get("trace.spans").copied().unwrap_or(0.0) + tracer.span_count() as f64;
    m.insert("trace.spans", spans);
    outcome.summary.push(format!(
        "replay: {REPLAY_FRAMES} frames, server work {server_ns:.0} ns per frame against a {wait_ns:.0} ns client wait"
    ));
    outcome.spans.extend_from_slice(tracer.spans());
    Ok(())
}

/// Executes one resolved frame the way a server connection does: one
/// seeded handle per tenant per frame, and adjacent same-tenant runs of a
/// verb coalesced into one `produce_n`/`consume_n` call. Returns the
/// responses and the number of structure calls.
fn execute(
    reqs: &[Request],
    resolved: &[Option<Arc<Tenant>>],
    tracer: &mut Tracer,
    id: u64,
    seed: u64,
) -> (Vec<Response>, u64) {
    let mut handles: HashMap<*const Tenant, Box<dyn OpsHandle<u64> + '_>> = HashMap::new();
    let mut out = Vec::with_capacity(reqs.len());
    let mut runs = 0u64;
    let mut i = 0;
    while i < reqs.len() {
        let Some(tenant) = &resolved[i] else {
            out.push(Response::Error {
                code: relaxed2d_server::ErrorCode::UnknownTenant,
                detail: String::new(),
            });
            i += 1;
            continue;
        };
        let same = |j: usize| resolved[j].as_ref().is_some_and(|o| Arc::ptr_eq(o, tenant));
        let run_len = 1
            + (i + 1..reqs.len())
                .take_while(|&j| {
                    same(j) && std::mem::discriminant(&reqs[j]) == std::mem::discriminant(&reqs[i])
                })
                .count();
        let h = handles
            .entry(Arc::as_ptr(tenant))
            .or_insert_with(|| tracer.span("tenant.handle", id, || tenant.ops_handle(seed)));
        runs += 1;
        match &reqs[i] {
            Request::Produce { .. } => {
                let values: Vec<u64> = reqs[i..i + run_len]
                    .iter()
                    .filter_map(|r| match r {
                        Request::Produce { value, .. } => Some(*value),
                        _ => None,
                    })
                    .collect();
                tracer.span("ops.produce_n", id, || h.produce_n(values));
                out.extend(std::iter::repeat_n(Response::Done, run_len));
            }
            Request::Consume { .. } => {
                let got = tracer.span("ops.consume_n", id, || h.consume_n(run_len));
                let misses = run_len - got.len();
                out.extend(got.into_iter().map(|value| Response::Item { value }));
                out.extend(std::iter::repeat_n(Response::Empty, misses));
            }
            Request::Acquire { cost, .. } => {
                // Acquires are not coalesced: each counts and decides.
                let decision = tracer.span("ops.acquire", id, || {
                    (0..*cost).for_each(|_| h.produce(1));
                    tenant.limiter_decision()
                });
                out.push(decision.unwrap_or(Response::Empty));
                i += 1;
                continue;
            }
            _ => out.extend(std::iter::repeat_n(Response::Pong, run_len)),
        }
        i += run_len;
    }
    (out, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_repeat_per_seed_and_keep_occupancy_bounded() {
        let a = generate(7, 1, 200);
        let b = generate(7, 1, 200);
        assert!(a.iter().zip(&b).all(|(x, y)| x.reqs == y.reqs));
        assert_ne!(generate(8, 1, 200)[0].reqs, a[0].reqs);
        let mut occupancy = vec![0i64; KINDS.len() * PER_KIND];
        for frame in &a {
            assert_eq!(frame.reqs.len(), DEPTH);
            for (req, &t) in frame.reqs.iter().zip(&frame.tenants) {
                match req {
                    Request::Produce { .. } => occupancy[t] += 1,
                    Request::Consume { .. } => occupancy[t] -= 1,
                    _ => {}
                }
            }
        }
        // Produce and consume runs alternate per tenant: a tenant ends at
        // most one run above where it started, and never below.
        assert!(occupancy.iter().all(|&o| o == 0 || o == RUN as i64), "{occupancy:?}");
    }

    #[test]
    fn matching_responses_pass_and_book_values() {
        let frame = &generate(3, 1, 1)[0];
        let mut tally = Tally::new();
        let resps: Vec<Response> = frame
            .reqs
            .iter()
            .map(|r| match r {
                Request::Produce { .. } => Response::Done,
                Request::Consume { .. } => Response::Empty,
                _ => Response::Decision { allowed: true, observed: 1, limit: LIMIT },
            })
            .collect();
        tally.check(frame, &resps, |_, _| ());
        assert_eq!(tally.failed(), 0);
        assert_eq!(tally.requests, DEPTH as u64);
    }

    #[test]
    fn a_mismatched_response_is_caught() {
        let frame = Frame {
            reqs: vec![
                Request::Produce {
                    personality: Personality::TaskQueue,
                    tenant: "q".into(),
                    value: 1,
                },
                Request::Consume { personality: Personality::TaskQueue, tenant: "q".into() },
            ],
            tenants: vec![3, 3],
        };
        let mut tally = Tally::new();
        // Swapped answers: a Done for the consume, an Item for the produce.
        tally.check(&frame, &[Response::Item { value: 1 }, Response::Done], |_, _| ());
        assert_eq!(tally.mismatches, 2);
        // A short reply counts every request of the frame.
        let mut tally = Tally::new();
        tally.check(&frame, &[Response::Done], |_, _| ());
        assert_eq!(tally.mismatches, 2);
        // A typed error is a failure too.
        let mut tally = Tally::new();
        let err = Response::Error {
            code: relaxed2d_server::ErrorCode::UnknownTenant,
            detail: String::new(),
        };
        tally.check(&frame, &[Response::Done, err], |_, _| ());
        assert_eq!((tally.errors, tally.failed()), (1, 1));
    }

    #[test]
    fn a_dropped_item_breaks_tenant_conservation() {
        let frame = Frame {
            reqs: vec![
                Request::Produce {
                    personality: Personality::ObjectPool,
                    tenant: "p".into(),
                    value: 5,
                },
                Request::Consume { personality: Personality::ObjectPool, tenant: "p".into() },
            ],
            tenants: vec![0, 0],
        };
        let mut tally = Tally::new();
        tally.check(&frame, &[Response::Done, Response::Empty], |_, _| ());
        let mut checks = Checks::default();
        conservation(&tally, &mut checks);
        assert_eq!(checks.failures.len(), 1, "the produced 5 never came back");
        let mut tally = Tally::new();
        tally.check(&frame, &[Response::Done, Response::Item { value: 5 }], |_, _| ());
        let mut checks = Checks::default();
        conservation(&tally, &mut checks);
        assert!(checks.failures.is_empty());
    }

    #[test]
    fn replayed_execution_answers_like_a_server() {
        let map = TenantMap::new(tenant_config(), None);
        for (p, name) in tenant_list() {
            map.get_or_create(p, &name, LIMIT).unwrap();
        }
        let frame = &generate(11, 1, 1)[0];
        let resolved: Vec<Option<Arc<Tenant>>> = frame
            .reqs
            .iter()
            .zip(&frame.tenants)
            .map(|(_, &t)| {
                let (p, name) = &tenant_list()[t];
                map.get(*p, name)
            })
            .collect();
        let mut tracer = Tracer::new(Instant::now());
        let (resps, runs) = execute(&frame.reqs, &resolved, &mut tracer, 0, 1);
        let mut tally = Tally::new();
        tally.check(frame, &resps, |_, _| ());
        assert_eq!(tally.failed(), 0, "{resps:?}");
        assert!(runs >= (DEPTH / RUN) as u64);
    }
}
