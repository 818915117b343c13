//! Open-loop load generator for the relaxed2d server.
//!
//! Drives a running server (or spawns one in-process) over real TCP with
//! `conns` connections *per personality*, each pipelining `depth`-request
//! frames against `tenants` named tenants chosen per frame by a zipfian
//! sampler — so tenant load is realistically skewed and the hot tenant's
//! controller has something to react to.
//!
//! The generator is open-loop in the scheduling sense: when a target rate
//! is set, each connection's frames are stamped against a fixed arrival
//! schedule and latency is measured from the *scheduled* send time, so
//! coordinated omission (a slow server quietly slowing the workload down)
//! shows up as tail latency instead of disappearing. Rate zero means
//! closed-loop max throughput.
//!
//! Output is one `server_load.csv` row per personality with frame-latency
//! p50/p99/p999 and the end-of-run per-personality retune totals pulled
//! over the wire via `Stats`.

use std::time::{Duration, Instant};

use relaxed2d_server::{Client, Personality, Request, Response};
use stack2d::rng::HopRng;
use stack2d_telemetry::LatencyHistogram;

use crate::report::Table;

/// One load-generation campaign.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Server address (`host:port`).
    pub addr: String,
    /// Connections per personality.
    pub conns: usize,
    /// Tenants per personality (named `t0..tN`).
    pub tenants: usize,
    /// Requests pipelined per frame.
    pub depth: usize,
    /// Frames sent per connection. The default, 2000, makes a round last
    /// long enough that thread start-up is a small share of it.
    pub frames: usize,
    /// Zipf skew for tenant choice (0 = uniform).
    pub zipf: f64,
    /// Target frames/second per connection; 0 = closed-loop max rate.
    pub rate: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Client-side coalescing run length: frames group this many
    /// same-verb requests back to back so the server's adjacent-run
    /// coalescer can execute them as one batched structure call. `1`
    /// reproduces the historical strictly-alternating frames.
    pub batch: usize,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            addr: "127.0.0.1:7421".to_string(),
            conns: 4,
            tenants: 2,
            depth: 16,
            frames: 2_000,
            zipf: 0.9,
            rate: 0.0,
            seed: 0x5EED_2D2D,
            batch: 1,
        }
    }
}

/// Zipfian index sampler over `0..n` (rank 1 is the hottest).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the cumulative distribution for `n` items with skew `s`;
    /// `s = 0` degenerates to uniform.
    pub fn new(n: usize, s: f64) -> Self {
        let n = n.max(1);
        let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfSampler { cdf }
    }

    /// Draws one index in `0..n`.
    pub fn sample(&self, rng: &mut HopRng) -> usize {
        // 53 uniform mantissa bits → [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1)
    }
}

/// One personality's aggregated outcome.
#[derive(Debug)]
pub struct PersonalityResult {
    /// Which personality this row describes.
    pub personality: Personality,
    /// Requests answered (including typed errors).
    pub ops: u64,
    /// Typed error responses seen.
    pub errors: u64,
    /// Wall-clock of the slowest connection.
    pub elapsed: Duration,
    /// Frame round-trip latency (ns), open-loop corrected when paced.
    pub latency: LatencyHistogram,
    /// Sum of per-tenant retunes at the end of the run.
    pub retunes: u64,
}

fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

/// Builds the `depth` requests of one frame for `personality` against
/// `tenant`. Queue/pool frames alternate runs of `batch` produces with
/// runs of `batch` consumes (`batch = 1` is the historical strict
/// alternation); limiter frames acquire, with a reset folded in every
/// 64th frame so the observed count keeps moving through allowance
/// windows.
fn build_frame(
    personality: Personality,
    tenant: &str,
    depth: usize,
    frame_idx: usize,
    batch: usize,
) -> Vec<Request> {
    let batch = batch.max(1);
    (0..depth)
        .map(|i| match personality {
            Personality::RateLimiter => {
                if i == 0 && frame_idx % 64 == 63 {
                    Request::Reset { tenant: tenant.to_string() }
                } else {
                    Request::Acquire { tenant: tenant.to_string(), cost: 1 }
                }
            }
            _ => {
                if (i / batch).is_multiple_of(2) {
                    Request::Produce {
                        personality,
                        tenant: tenant.to_string(),
                        value: (frame_idx * depth + i) as u64,
                    }
                } else {
                    Request::Consume { personality, tenant: tenant.to_string() }
                }
            }
        })
        .collect()
}

struct ConnOutcome {
    ops: u64,
    errors: u64,
    elapsed: Duration,
    latency: LatencyHistogram,
}

fn drive_connection(
    spec: &LoadSpec,
    personality: Personality,
    conn_idx: usize,
) -> Result<ConnOutcome, String> {
    let mut client = Client::connect_retry(&spec.addr, Duration::from_secs(5))
        .map_err(|e| format!("{personality} conn {conn_idx}: connect: {e}"))?;
    let zipf = ZipfSampler::new(spec.tenants, spec.zipf);
    let mut rng = HopRng::seeded(
        spec.seed
            ^ (personality as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (conn_idx as u64 + 1).rotate_left(32),
    );
    let interval =
        if spec.rate > 0.0 { Some(Duration::from_secs_f64(1.0 / spec.rate)) } else { None };
    let mut latency = LatencyHistogram::new();
    let mut ops = 0u64;
    let mut errors = 0u64;
    let start = Instant::now();
    for frame_idx in 0..spec.frames {
        let scheduled = interval.map(|iv| start + iv * frame_idx as u32);
        if let Some(at) = scheduled {
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
        }
        let tenant = tenant_name(zipf.sample(&mut rng));
        let batch = build_frame(personality, &tenant, spec.depth, frame_idx, spec.batch);
        // Open-loop correction: latency counts from the scheduled arrival,
        // not from whenever the connection got around to sending.
        let t0 = scheduled.unwrap_or_else(Instant::now);
        let resps = client
            .call(&batch)
            .map_err(|e| format!("{personality} conn {conn_idx} frame {frame_idx}: {e}"))?;
        let rtt = Instant::now().saturating_duration_since(t0);
        latency.record(rtt.as_nanos().min(u64::MAX as u128) as u64);
        ops += resps.len() as u64;
        errors += resps.iter().filter(|r| matches!(r, Response::Error { .. })).count() as u64;
    }
    Ok(ConnOutcome { ops, errors, elapsed: start.elapsed(), latency })
}

/// Creates every tenant up front so workers never race tenant creation.
///
/// # Errors
///
/// A human-readable message when the server is unreachable or refuses a
/// create.
pub fn create_tenants(spec: &LoadSpec) -> Result<(), String> {
    let mut client = Client::connect_retry(&spec.addr, Duration::from_secs(5))
        .map_err(|e| format!("setup connect: {e}"))?;
    for personality in Personality::ALL {
        for i in 0..spec.tenants {
            // A per-tenant allowance sized so paced runs see both allowed
            // and throttled decisions.
            let limit = (spec.depth * spec.frames / 4).max(16) as u64;
            match client
                .create(personality, &tenant_name(i), limit)
                .map_err(|e| format!("create {personality}/t{i}: {e}"))?
            {
                Response::Created { .. } => {}
                other => return Err(format!("create {personality}/t{i}: unexpected {other:?}")),
            }
        }
    }
    Ok(())
}

/// Runs the campaign: `conns` threads per personality, all personalities
/// concurrently, then a final `Stats` sweep for retune totals.
///
/// # Errors
///
/// The first connection-level failure, as a human-readable message.
pub fn run_load(spec: &LoadSpec) -> Result<Vec<PersonalityResult>, String> {
    create_tenants(spec)?;
    let workers: Vec<_> = Personality::ALL
        .into_iter()
        .flat_map(|p| (0..spec.conns).map(move |c| (p, c)))
        .map(|(personality, conn_idx)| {
            let spec = spec.clone();
            std::thread::spawn(move || {
                (personality, drive_connection(&spec, personality, conn_idx))
            })
        })
        .collect();

    let mut per_personality: Vec<PersonalityResult> = Personality::ALL
        .into_iter()
        .map(|personality| PersonalityResult {
            personality,
            ops: 0,
            errors: 0,
            elapsed: Duration::ZERO,
            latency: LatencyHistogram::new(),
            retunes: 0,
        })
        .collect();
    for worker in workers {
        let (personality, outcome) = worker.join().map_err(|_| "worker panicked".to_string())?;
        let outcome = outcome?;
        let slot = per_personality
            .iter_mut()
            .find(|r| r.personality == personality)
            .ok_or("missing personality slot")?;
        slot.ops += outcome.ops;
        slot.errors += outcome.errors;
        slot.elapsed = slot.elapsed.max(outcome.elapsed);
        slot.latency.merge(&outcome.latency);
    }

    let mut client = Client::connect_retry(&spec.addr, Duration::from_secs(5))
        .map_err(|e| format!("stats connect: {e}"))?;
    for result in &mut per_personality {
        for i in 0..spec.tenants {
            match client
                .stats(result.personality, &tenant_name(i))
                .map_err(|e| format!("stats {}/t{i}: {e}", result.personality))?
            {
                Response::Stats { retunes, .. } => result.retunes += retunes,
                other => {
                    return Err(format!("stats {}/t{i}: unexpected {other:?}", result.personality))
                }
            }
        }
    }
    Ok(per_personality)
}

/// Asks the server to shut down gracefully.
///
/// # Errors
///
/// A human-readable message when the request could not be delivered.
pub fn shutdown_server(addr: &str) -> Result<(), String> {
    let mut client = Client::connect_retry(addr, Duration::from_secs(5))
        .map_err(|e| format!("shutdown connect: {e}"))?;
    match client.shutdown_server().map_err(|e| format!("shutdown: {e}"))? {
        Response::ShuttingDown => Ok(()),
        other => Err(format!("shutdown: unexpected {other:?}")),
    }
}

/// Formats campaign results as the `server_load.csv` table.
pub fn to_table(spec: &LoadSpec, results: &[PersonalityResult]) -> Table {
    let mut table = Table::new([
        "personality",
        "tenants",
        "conns",
        "depth",
        "frames",
        "ops",
        "errors",
        "elapsed_ms",
        "throughput",
        "p50_us",
        "p99_us",
        "p999_us",
        "retunes",
        // Appended after the PR-9 columns so positional consumers (the
        // server-smoke CI awk checks) keep working unchanged.
        "batch",
        "frames_per_s",
    ]);
    for r in results {
        let secs = r.elapsed.as_secs_f64();
        let throughput = if secs > 0.0 { r.ops as f64 / secs } else { 0.0 };
        table.push_row([
            r.personality.name().to_string(),
            spec.tenants.to_string(),
            spec.conns.to_string(),
            spec.depth.to_string(),
            spec.frames.to_string(),
            r.ops.to_string(),
            r.errors.to_string(),
            format!("{:.1}", r.elapsed.as_secs_f64() * 1e3),
            format!("{throughput:.0}"),
            format!("{:.1}", r.latency.quantile(0.50) as f64 / 1e3),
            format!("{:.1}", r.latency.quantile(0.99) as f64 / 1e3),
            format!("{:.1}", r.latency.quantile(0.999) as f64 / 1e3),
            r.retunes.to_string(),
            spec.batch.max(1).to_string(),
            format!("{:.1}", throughput / spec.depth.max(1) as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_skews_toward_rank_one() {
        let zipf = ZipfSampler::new(8, 1.1);
        let mut rng = HopRng::seeded(7);
        let mut counts = [0usize; 8];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[3], "rank 1 should dominate: {counts:?}");
        assert!(counts[0] > counts[7] * 2, "tail should be cold: {counts:?}");
    }

    #[test]
    fn zipf_zero_skew_is_roughly_uniform() {
        let zipf = ZipfSampler::new(4, 0.0);
        let mut rng = HopRng::seeded(11);
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1_000..3_000).contains(&c), "uniform draw skewed: {counts:?}");
        }
    }

    #[test]
    fn frames_alternate_ops_and_fold_in_resets() {
        let frame = build_frame(Personality::TaskQueue, "t0", 6, 0, 1);
        assert!(matches!(frame[0], Request::Produce { .. }));
        assert!(matches!(frame[1], Request::Consume { .. }));
        assert_eq!(frame.len(), 6);

        let frame = build_frame(Personality::RateLimiter, "t0", 4, 63, 1);
        assert!(matches!(frame[0], Request::Reset { .. }));
        assert!(matches!(frame[1], Request::Acquire { .. }));
    }

    #[test]
    fn batched_frames_group_same_verb_runs() {
        let frame = build_frame(Personality::TaskQueue, "t0", 8, 0, 4);
        assert!(frame[..4].iter().all(|r| matches!(r, Request::Produce { .. })));
        assert!(frame[4..].iter().all(|r| matches!(r, Request::Consume { .. })));
        // batch = 0 is clamped rather than dividing by zero.
        let frame = build_frame(Personality::TaskQueue, "t0", 4, 0, 0);
        assert!(matches!(frame[1], Request::Consume { .. }));
    }

    #[test]
    fn end_to_end_against_an_in_process_server() {
        let handle = relaxed2d_server::Server::spawn(relaxed2d_server::ServerConfig {
            tenants: relaxed2d_server::TenantConfig {
                cadence: Duration::from_millis(1),
                ..relaxed2d_server::TenantConfig::default()
            },
            ..relaxed2d_server::ServerConfig::default()
        })
        .expect("bind");
        let spec = LoadSpec {
            addr: handle.local_addr().to_string(),
            conns: 2,
            tenants: 2,
            depth: 8,
            frames: 20,
            batch: 4,
            ..LoadSpec::default()
        };
        let results = run_load(&spec).expect("load run");
        assert_eq!(results.len(), 3);
        for r in &results {
            assert_eq!(r.ops, (spec.conns * spec.frames * spec.depth) as u64);
        }
        let table = to_table(&spec, &results);
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), 4);
        // The batch columns append after the PR-9 layout.
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        assert_eq!(&header[header.len() - 2..], &["batch", "frames_per_s"]);
        for line in csv.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols[cols.len() - 2], "4");
            assert!(cols[cols.len() - 1].parse::<f64>().unwrap() > 0.0);
        }
        shutdown_server(&spec.addr).expect("shutdown request");
        handle.shutdown().expect("server drain");
    }
}
