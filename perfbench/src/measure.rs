//! The measurement loop shared by the in-process workloads: worker
//! threads, time chunks, sampled latencies and the traced variant.
//!
//! A measured phase is cut into fixed time chunks. Each worker times one
//! step in every `sample_every` with a pair of clock reads, and that
//! timestamp also tells it which chunk the steps since the previous sample
//! belong to, so no shared counter is touched on the hot path. The first
//! chunk absorbs thread start-up and is dropped. Throughput and the latency
//! percentiles are computed per chunk and summarized by their interquartile
//! mean, which a few disturbed chunks cannot move much.

use std::time::{Duration, Instant};

use crate::report::{central_mean, percentile};
use crate::sysstat::rss_mib;
use crate::trace::Tracer;

/// The time grid of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    chunk: Duration,
    chunks: usize,
}

impl Clock {
    /// A grid of `chunks` chunks of `chunk` each, starting now.
    pub fn start(chunk: Duration, chunks: usize) -> Clock {
        Clock { start: Instant::now(), chunk, chunks: chunks.max(2) }
    }

    /// A grid covering `seconds` with chunks of `chunk`.
    pub fn for_seconds(seconds: f64, chunk: Duration) -> Clock {
        Clock::start(chunk, (seconds / chunk.as_secs_f64()).round() as usize)
    }

    /// The chunk `t` falls into, or `None` once the phase is over.
    #[inline]
    pub fn chunk_of(&self, t: Instant) -> Option<usize> {
        let c = (t.duration_since(self.start).as_nanos() / self.chunk.as_nanos()) as usize;
        (c < self.chunks).then_some(c)
    }

    /// Seconds per chunk.
    pub fn chunk_secs(&self) -> f64 {
        self.chunk.as_secs_f64()
    }

    /// Number of chunks.
    pub fn chunks(&self) -> usize {
        self.chunks
    }
}

/// What one worker measured over a phase.
#[derive(Debug, Default)]
pub struct ThreadLog {
    /// Operations completed per chunk.
    pub chunk_ops: Vec<u64>,
    /// Sampled step latencies: `(chunk, nanoseconds)`.
    pub latencies: Vec<(u32, u32)>,
}

/// Runs `step` (returning the operations it completed) until the clock's
/// last chunk ends, timing one step in every `sample_every`.
#[inline(always)]
pub fn timed_loop(clock: &Clock, sample_every: u32, mut step: impl FnMut() -> u64) -> ThreadLog {
    let mut log = ThreadLog { chunk_ops: vec![0; clock.chunks], latencies: Vec::new() };
    let mut ops = 0u64;
    loop {
        for _ in 1..sample_every {
            ops += step();
        }
        let t0 = Instant::now();
        ops += step();
        let t1 = Instant::now();
        let Some(c) = clock.chunk_of(t1) else { break };
        log.chunk_ops[c] += ops;
        ops = 0;
        let ns = u32::try_from(t1.duration_since(t0).as_nanos()).unwrap_or(u32::MAX);
        log.latencies.push((c as u32, ns));
    }
    log
}

/// Runs `step` under a tracer for `duration`; returns the operations
/// completed and the elapsed time.
pub fn traced_loop(
    duration: Duration,
    tracer: &mut Tracer,
    mut step: impl FnMut(&mut Tracer) -> u64,
) -> (u64, Duration) {
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        for _ in 0..256 {
            ops += step(tracer);
        }
        let elapsed = start.elapsed();
        if elapsed >= duration {
            return (ops, elapsed);
        }
    }
}

/// Runs `f(thread_index)` on `n` scoped threads and returns their results
/// in index order.
pub fn in_threads<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..n).map(|t| s.spawn(move || f(t))).collect();
        handles.into_iter().map(|h| h.join().expect("benchmark worker panicked")).collect()
    })
}

/// Runs `f(thread_index)` on `n` scoped threads like [`in_threads`], while
/// the calling thread samples the process's resident memory every `every`
/// until they finish.
pub fn in_threads_sampling_rss<R: Send>(
    n: usize,
    every: Duration,
    f: impl Fn(usize) -> R + Sync,
) -> (Vec<R>, Vec<f64>) {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..n).map(|t| s.spawn(move || f(t))).collect();
        let mut rss = Vec::new();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(every);
            rss.push(rss_mib());
        }
        let results =
            handles.into_iter().map(|h| h.join().expect("benchmark worker panicked")).collect();
        (results, rss)
    })
}

/// The end-to-end numbers of one measured phase.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    /// Interquartile mean of the per-chunk throughputs.
    pub ops_per_s: f64,
    /// Throughput over the whole phase (start-up chunk excluded).
    pub raw_ops_per_s: f64,
    /// Interquartile mean of the per-chunk exact medians, microseconds.
    pub p50_us: f64,
    /// Interquartile mean of the per-chunk exact 99th percentiles.
    pub p99_us: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
}

/// Summarizes the workers' logs, dropping the start-up chunk.
pub fn summarize(clock: &Clock, logs: &[ThreadLog]) -> PhaseSummary {
    let kept = 1..clock.chunks();
    let mut rates = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut ops = 0u64;
    let mut samples = 0u64;
    let mut per_chunk: Vec<Vec<u64>> = vec![Vec::new(); clock.chunks()];
    for log in logs {
        for &(c, ns) in &log.latencies {
            per_chunk[c as usize].push(u64::from(ns));
        }
    }
    for c in kept.clone() {
        let chunk_ops: u64 = logs.iter().map(|l| l.chunk_ops[c]).sum();
        ops += chunk_ops;
        rates.push(chunk_ops as f64 / clock.chunk_secs());
        let lat = &mut per_chunk[c];
        if !lat.is_empty() {
            lat.sort_unstable();
            samples += lat.len() as u64;
            p50.push(percentile(lat, 0.50) as f64 / 1e3);
            p99.push(percentile(lat, 0.99) as f64 / 1e3);
        }
    }
    PhaseSummary {
        ops_per_s: central_mean(&rates),
        raw_ops_per_s: ops as f64 / (kept.len() as f64 * clock.chunk_secs()),
        p50_us: central_mean(&p50),
        p99_us: central_mean(&p99),
        samples,
    }
}

/// SplitMix64: derives independent seeds from the run seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_loop_fills_every_chunk_and_stops() {
        let clock = Clock::start(Duration::from_millis(5), 4);
        let log = timed_loop(&clock, 8, || {
            std::hint::black_box(0u64);
            1
        });
        assert!(log.chunk_ops.iter().all(|&n| n > 0), "{:?}", log.chunk_ops);
        assert!(!log.latencies.is_empty());
        let s = summarize(&clock, &[log]);
        assert!(s.ops_per_s > 0.0 && s.samples > 0);
    }

    #[test]
    fn summarize_adds_threads_per_chunk() {
        let clock = Clock::start(Duration::from_secs(1), 3);
        // Chunk 0 (thread start-up) is dropped, however busy it was.
        let log = |n| ThreadLog {
            chunk_ops: vec![100 * n, n, n],
            latencies: vec![(0, 9000), (1, 1000), (2, 3000)],
        };
        let s = summarize(&clock, &[log(10), log(30)]);
        assert_eq!(s.raw_ops_per_s, 40.0);
        assert_eq!(s.ops_per_s, 40.0);
        assert_eq!(s.samples, 4);
        assert_eq!(s.p50_us, 2.0);
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_repeat() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }
}
