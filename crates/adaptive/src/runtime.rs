//! The elastic drivers: sampling, retuning and the per-retune event log.
//!
//! [`Elastic`] is the deterministic inline driver — the caller decides when
//! to [`tick`](Elastic::tick) (tests, phase boundaries, harness loops).
//! [`ElasticRunner`] wraps it in a background thread ticking on a fixed
//! cadence, the deployment shape: workers never see the controller, they
//! just observe the window descriptor changing under them.
//!
//! Both drivers are generic over [`ElasticTarget`], so the same machinery
//! retunes a [`Stack2D`](stack2d::Stack2D), a
//! [`Queue2D`](stack2d::Queue2D) (whose put and get windows move
//! together) or a [`Counter2D`](stack2d::Counter2D).

use stack2d::sync::atomic::{AtomicBool, Ordering};
use stack2d::sync::thread::JoinHandle;
use stack2d::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use stack2d::telemetry::ControlOutcome;
use stack2d::{ElasticTarget, MetricsSnapshot, Params, WindowInfo};

use crate::controller::{Controller, Observation};

/// Why a descriptor swing happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetuneKind {
    /// The controller widened the window.
    Grow,
    /// The controller tightened the window (width shrink installed; pops
    /// keep covering the old span until the matching [`RetuneKind::Commit`]).
    Shrink,
    /// The controller changed depth/shift at constant width.
    Vertical,
    /// A pending width shrink committed: the retired tail was proven
    /// drained and the relaxation bound tightened.
    Commit,
}

/// One entry of the retune log: the window that took effect, when, and why.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetuneEvent {
    /// Time since the driver started.
    pub at: Duration,
    /// Cumulative completed stack operations at decision time.
    pub ops: u64,
    /// Generation of the descriptor that took effect.
    pub generation: u64,
    /// New push-side width.
    pub width: usize,
    /// Sub-stacks pops cover (exceeds `width` while a shrink is pending).
    pub pop_width: usize,
    /// New depth.
    pub depth: usize,
    /// New shift.
    pub shift: usize,
    /// The instantaneous relaxation bound of the new descriptor.
    pub k_bound: usize,
    /// What kind of swing this was.
    pub kind: RetuneKind,
}

impl RetuneEvent {
    fn from_info(info: WindowInfo, kind: RetuneKind, at: Duration, ops: u64) -> Self {
        RetuneEvent {
            at,
            ops,
            generation: info.generation(),
            width: info.width(),
            pop_width: info.pop_width(),
            depth: info.depth(),
            shift: info.shift(),
            k_bound: info.k_bound(),
            kind,
        }
    }
}

/// Default [`RetuneLog`] capacity: a retune is a cold-path event (one per
/// controller cadence at most), so a thousand entries cover any realistic
/// run while bounding a runaway controller's memory.
pub const DEFAULT_LOG_CAPACITY: usize = 1024;

/// A bounded retune log: keeps the most recent `capacity` events and
/// counts what it had to evict — the same overflow contract as the
/// telemetry event ring (drops are *counted, never silent*, and never
/// grow memory without bound).
#[derive(Debug, Clone)]
pub struct RetuneLog {
    buf: std::collections::VecDeque<RetuneEvent>,
    capacity: usize,
    dropped: u64,
}

impl RetuneLog {
    /// An empty log evicting beyond `capacity` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RetuneLog {
            buf: std::collections::VecDeque::with_capacity(capacity.min(64)),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: RetuneEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RetuneEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted after the log filled (oldest-first eviction).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The eviction threshold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained events as a `Vec`, oldest first.
    pub fn to_vec(&self) -> Vec<RetuneEvent> {
        self.buf.iter().copied().collect()
    }

    fn into_vec(self) -> Vec<RetuneEvent> {
        self.buf.into()
    }
}

impl Default for RetuneLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_LOG_CAPACITY)
    }
}

impl<'a> IntoIterator for &'a RetuneLog {
    type Item = &'a RetuneEvent;
    type IntoIter = std::collections::vec_deque::Iter<'a, RetuneEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

/// The inline elastic driver: owns a [`Controller`], samples metrics
/// deltas on every [`tick`](Elastic::tick), applies its decisions through
/// [`ElasticTarget::retune`] / [`ElasticTarget::try_commit_shrink`], and
/// logs every swing as a [`RetuneEvent`].
#[derive(Debug)]
pub struct Elastic<'s, S, C> {
    target: &'s S,
    controller: C,
    max_k: usize,
    started: Instant,
    last_metrics: MetricsSnapshot,
    last_tick: Instant,
    events: RetuneLog,
}

impl<'s, S: ElasticTarget, C: Controller> Elastic<'s, S, C> {
    /// A driver for `target` with no budget of its own (the controller's
    /// budget governs); see [`Elastic::budget`].
    pub fn new(target: &'s S, controller: C) -> Self {
        let now = Instant::now();
        Elastic {
            target,
            controller,
            max_k: usize::MAX,
            started: now,
            last_metrics: target.metrics(),
            last_tick: now,
            events: RetuneLog::default(),
        }
    }

    /// Caps the relaxation budget advertised to the controller (the
    /// effective budget is the minimum of this and whatever the policy
    /// enforces itself).
    #[must_use]
    pub fn budget(mut self, max_k: usize) -> Self {
        self.max_k = max_k;
        self
    }

    /// Caps the retune log at `capacity` events (default
    /// [`DEFAULT_LOG_CAPACITY`]); beyond it the oldest entries are evicted
    /// and counted in [`RetuneLog::dropped`].
    #[must_use]
    pub fn log_capacity(mut self, capacity: usize) -> Self {
        self.events = RetuneLog::with_capacity(capacity);
        self
    }

    /// The driven structure.
    pub fn target(&self) -> &'s S {
        self.target
    }

    /// The controller (e.g. to inspect or adjust thresholds).
    pub fn controller_mut(&mut self) -> &mut C {
        &mut self.controller
    }

    /// The retune log: every descriptor swing this driver performed, in
    /// order (bounded — see [`Elastic::log_capacity`]).
    pub fn events(&self) -> &RetuneLog {
        &self.events
    }

    /// Consumes the driver, returning the retained events oldest-first.
    pub fn into_events(self) -> Vec<RetuneEvent> {
        self.events.into_vec()
    }

    /// One control step: commit any matured shrink, sample the metrics
    /// delta since the previous tick, ask the controller, and apply its
    /// decision. Returns the last event this tick produced, if any.
    ///
    /// When the target carries a telemetry sink
    /// ([`ElasticTarget::recorder`]), every tick emits its full
    /// observation→decision→outcome triple through it — including pure
    /// holds, so the event stream shows the controller *looking* even when
    /// it does nothing.
    pub fn tick(&mut self) -> Option<RetuneEvent> {
        let mut produced = None;
        let recorder = self.target.recorder();
        let snapshot = self.target.metrics();
        let at = self.started.elapsed();
        // A matured shrink commits before the next decision so the
        // controller sees the tightened bound.
        let mut outcome = ControlOutcome::Hold;
        if let Some(info) = self.target.try_commit_shrink() {
            let ev = RetuneEvent::from_info(info, RetuneKind::Commit, at, snapshot.ops);
            self.events.push(ev);
            produced = Some(ev);
            outcome = ControlOutcome::Committed;
        }
        let now = Instant::now();
        let obs = Observation {
            interval: now.duration_since(self.last_tick),
            delta: snapshot.delta_since(&self.last_metrics),
            window: self.target.window(),
            capacity: self.target.capacity(),
            max_k: self.max_k,
        };
        if let Some(r) = recorder {
            r.control_observation(
                obs.interval.as_nanos().min(u64::MAX as u128) as u64,
                obs.delta,
                obs.window,
                obs.capacity,
            );
        }
        let decided = self.controller.decide(&obs);
        if let Some(r) = recorder {
            r.control_decision(decided);
        }
        if let Some(params) = decided {
            debug_assert!(
                params.k_bound() <= self.max_k,
                "controller violated the k budget: {params} > {}",
                self.max_k
            );
            match self.target.retune(params) {
                // A no-op retune (controller re-emitted the standing
                // parameters) swings nothing and bumps no generation:
                // logging it would inject a phantom event.
                Ok(info) if info.generation() == obs.window.generation() => {}
                Ok(info) => {
                    let kind = match info.width().cmp(&obs.window.width()) {
                        core::cmp::Ordering::Greater => RetuneKind::Grow,
                        core::cmp::Ordering::Less => RetuneKind::Shrink,
                        core::cmp::Ordering::Equal => RetuneKind::Vertical,
                    };
                    let ev = RetuneEvent::from_info(info, kind, at, snapshot.ops);
                    self.events.push(ev);
                    produced = Some(ev);
                    outcome = ControlOutcome::Applied;
                }
                Err(e) => {
                    outcome = ControlOutcome::Rejected;
                    debug_assert!(false, "controller exceeded target capacity: {e}");
                }
            }
        }
        if let Some(r) = recorder {
            r.control_outcome(outcome, self.target.window());
        }
        self.last_metrics = snapshot;
        self.last_tick = now;
        produced
    }
}

/// A background elastic driver: ticks an [`Elastic`] every `cadence` until
/// stopped, then hands back the event log.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use stack2d::{Params, Stack2D};
/// use stack2d_adaptive::{AimdController, ElasticRunner};
///
/// let stack = Arc::new(Stack2D::builder().params(Params::new(1, 1, 1).unwrap()).elastic_capacity(32).build().unwrap());
/// let runner = ElasticRunner::spawn(
///     Arc::clone(&stack),
///     AimdController::new(1_000),
///     Duration::from_millis(1),
/// );
/// let mut h = stack.handle();
/// for i in 0..10_000u64 {
///     h.push(i);
///     h.pop();
/// }
/// let events = runner.stop();
/// // Single-threaded load has no contention: the controller never grew.
/// assert!(events.iter().all(|e| e.k_bound <= 1_000));
/// ```
#[derive(Debug)]
pub struct ElasticRunner {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<Vec<RetuneEvent>>>,
}

impl ElasticRunner {
    /// Starts a controller thread driving `target` every `cadence`.
    pub fn spawn<S, C>(target: Arc<S>, controller: C, cadence: Duration) -> Self
    where
        S: ElasticTarget + 'static,
        C: Controller + Send + 'static,
    {
        Self::spawn_with_budget(target, controller, cadence, usize::MAX)
    }

    /// Like [`ElasticRunner::spawn`] with an explicit driver-level k
    /// budget.
    pub fn spawn_with_budget<S, C>(
        target: Arc<S>,
        controller: C,
        cadence: Duration,
        max_k: usize,
    ) -> Self
    where
        S: ElasticTarget + 'static,
        C: Controller + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let join = stack2d::sync::thread::spawn(move || {
            let mut elastic = Elastic::new(&*target, controller).budget(max_k);
            while !stop_flag.load(Ordering::Relaxed) {
                stack2d::sync::thread::sleep(cadence);
                elastic.tick();
            }
            // Final tick so work done right before `stop` is still seen.
            elastic.tick();
            elastic.into_events()
        });
        ElasticRunner { stop, join: Some(join) }
    }

    /// Stops the controller thread and returns its event log.
    pub fn stop(mut self) -> Vec<RetuneEvent> {
        self.stop.store(true, Ordering::Relaxed);
        self.join.take().map(|j| j.join().expect("elastic controller panicked")).unwrap_or_default()
    }
}

impl Drop for ElasticRunner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Replays a fixed decision script — handy for deterministic driver tests
/// and schedule-based experiments (each tick pops the next entry; `None`
/// entries and an exhausted script leave the window alone).
#[derive(Debug, Clone)]
pub struct ScriptedController {
    script: std::collections::VecDeque<Option<Params>>,
}

impl ScriptedController {
    /// A controller that applies `steps` in order, one per tick.
    pub fn new(steps: impl IntoIterator<Item = Option<Params>>) -> Self {
        ScriptedController { script: steps.into_iter().collect() }
    }
}

impl Controller for ScriptedController {
    fn decide(&mut self, _obs: &Observation) -> Option<Params> {
        self.script.pop_front().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::AimdController;
    use stack2d::{Counter2D, Queue2D, Stack2D};

    fn p(w: usize, d: usize, s: usize) -> Params {
        Params::new(w, d, s).unwrap()
    }

    /// Ticks until a tick yields an event, yielding the thread between
    /// ticks, for at most 10 s. A shrink commits only after the
    /// process-global epoch advances, which concurrently running tests
    /// also pin, so no fixed tick count is guaranteed to be enough.
    fn tick_until_event<S: ElasticTarget, C: Controller>(
        elastic: &mut Elastic<'_, S, C>,
    ) -> Option<RetuneEvent> {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(ev) = elastic.tick() {
                return Some(ev);
            }
            if std::time::Instant::now() >= deadline {
                return None;
            }
            stack2d::sync::thread::yield_now();
        }
    }

    #[test]
    fn tick_applies_script_and_logs_kinds() {
        let stack: Stack2D<u32> =
            Stack2D::builder().params(p(2, 1, 1)).elastic_capacity(16).build().unwrap();
        let script = ScriptedController::new([
            Some(p(8, 1, 1)), // grow
            None,             // hold
            Some(p(8, 2, 2)), // vertical
            Some(p(4, 2, 2)), // shrink (tail empty, commits on later ticks)
        ]);
        let mut elastic = Elastic::new(&stack, script);
        let ev = elastic.tick().expect("grow event");
        assert_eq!(ev.kind, RetuneKind::Grow);
        assert_eq!(ev.width, 8);
        assert_eq!(ev.generation, 1);
        assert!(elastic.tick().is_none(), "holds produce no event");
        let ev = elastic.tick().expect("vertical event");
        assert_eq!(ev.kind, RetuneKind::Vertical);
        assert_eq!(ev.depth, 2);
        let ev = elastic.tick().expect("shrink event");
        assert_eq!(ev.kind, RetuneKind::Shrink);
        assert_eq!(ev.width, 4);
        // The shrink on an empty tail commits after a few more ticks.
        let ev = tick_until_event(&mut elastic).expect("shrink must commit on an empty tail");
        assert_eq!(ev.kind, RetuneKind::Commit);
        assert_eq!(ev.pop_width, 4);
        assert_eq!(elastic.events().len(), 4);
        assert_eq!(stack.window().width(), 4);
        assert!(!stack.window().pending_shrink());
    }

    #[test]
    fn retune_log_caps_and_counts_evictions() {
        let stack: Stack2D<u32> =
            Stack2D::builder().params(p(2, 1, 1)).elastic_capacity(16).build().unwrap();
        // Strictly growing widths: every tick swings a Grow retune.
        let script: Vec<Option<Params>> = (0..10).map(|i| Some(p(3 + i, 1, 1))).collect();
        let mut elastic =
            Elastic::new(&stack, ScriptedController::new(script.clone())).log_capacity(4);
        for _ in 0..script.len() {
            elastic.tick();
        }
        let log = elastic.events();
        assert_eq!(log.len(), 4, "log must stay at its cap");
        assert_eq!(log.capacity(), 4);
        assert_eq!(log.dropped(), 6, "evictions must be counted, not silent");
        // The *newest* events survive: generations are the last four.
        let generations: Vec<u64> = log.iter().map(|e| e.generation).collect();
        assert_eq!(generations, vec![7, 8, 9, 10]);
        assert_eq!(elastic.into_events().len(), 4);
    }

    #[test]
    fn ticks_emit_causally_ordered_decision_triples() {
        use stack2d_telemetry::{Event, Registry};
        let registry = Registry::new();
        let stack: Stack2D<u32> = Stack2D::builder()
            .params(p(2, 1, 1))
            .elastic_capacity(16)
            .recorder(registry.scope("stack"))
            .build()
            .unwrap();
        let script = ScriptedController::new([Some(p(8, 1, 1)), None]);
        let mut elastic = Elastic::new(&stack, script);
        elastic.tick(); // applied
        elastic.tick(); // hold
        let report = registry.report();
        let events = &report.scopes[0].events;
        // Two full observation→decision→outcome triples, plus the retune
        // event the structure itself emitted inside the first apply.
        let triples: Vec<&str> = events
            .iter()
            .map(|e| e.event.kind_name())
            .filter(|k| k.starts_with("control_"))
            .collect();
        assert_eq!(
            triples,
            vec![
                "control_observation",
                "control_decision",
                "control_outcome",
                "control_observation",
                "control_decision",
                "control_outcome"
            ],
            "every tick must emit its triple in causal order"
        );
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        let outcomes: Vec<_> = events
            .iter()
            .filter_map(|e| match e.event {
                Event::ControlOutcome { outcome, .. } => Some(outcome),
                _ => None,
            })
            .collect();
        use stack2d::telemetry::ControlOutcome;
        assert_eq!(outcomes, vec![ControlOutcome::Applied, ControlOutcome::Hold]);
        assert!(
            events.iter().any(|e| matches!(e.event, Event::Retune { .. })),
            "the structure's own retune event must share the stream"
        );
    }

    #[test]
    fn commit_waits_for_tail_to_drain() {
        let stack: Stack2D<u32> =
            Stack2D::builder().params(p(8, 1, 1)).elastic_capacity(8).build().unwrap();
        let mut h = stack.handle_seeded(1);
        for i in 0..80 {
            h.push(i);
        }
        let mut elastic = Elastic::new(&stack, ScriptedController::new([Some(p(2, 1, 1))]));
        elastic.tick();
        for _ in 0..32 {
            assert!(elastic.tick().is_none(), "commit must wait for the tail");
        }
        while h.pop().is_some() {}
        let ev = tick_until_event(&mut elastic).expect("drained tail must let the shrink commit");
        assert_eq!(ev.kind, RetuneKind::Commit);
        assert_eq!(stack.k_bound(), p(2, 1, 1).k_bound());
    }

    #[test]
    fn background_runner_applies_and_returns_events() {
        let stack = Arc::new(
            Stack2D::<u32>::builder().params(p(1, 1, 1)).elastic_capacity(8).build().unwrap(),
        );
        let runner = ElasticRunner::spawn(
            Arc::clone(&stack),
            ScriptedController::new([Some(p(8, 1, 1))]),
            Duration::from_millis(1),
        );
        // Give the runner a few cadences to fire.
        for _ in 0..100 {
            if stack.window().width() == 8 {
                break;
            }
            stack2d::sync::thread::sleep(Duration::from_millis(1));
        }
        let events = runner.stop();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, RetuneKind::Grow);
        assert_eq!(stack.window().width(), 8);
    }

    #[test]
    fn aimd_end_to_end_grows_under_real_contention_and_keeps_budget() {
        use crate::controller::AimdController;
        const BUDGET: usize = 93; // width ceiling 1 + 93/3 = 32
        let stack =
            Arc::new(Stack2D::builder().params(p(1, 1, 1)).elastic_capacity(32).build().unwrap());
        let runner = ElasticRunner::spawn(
            Arc::clone(&stack),
            AimdController::new(BUDGET),
            Duration::from_millis(1),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let stack = Arc::clone(&stack);
            let stop = Arc::clone(&stop);
            joins.push(stack2d::sync::thread::spawn(move || {
                let mut h = stack.handle_seeded(t + 1);
                // Bursty producer/consumer: runs of pushes slam the narrow
                // window (Global shifts nearly every op), generating the
                // pressure signal even on a single-core runner.
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..64 {
                        h.push(1u8);
                    }
                    for _ in 0..64 {
                        h.pop();
                    }
                }
            }));
        }
        stack2d::sync::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        for j in joins {
            j.join().unwrap();
        }
        let events = runner.stop();
        // 4 threads hammering a single sub-stack is the paper's bottleneck
        // scenario: the controller must have widened at least once.
        assert!(
            events.iter().any(|e| e.kind == RetuneKind::Grow),
            "no grow under 4-thread contention: {events:?}"
        );
        for e in &events {
            assert!(e.k_bound <= BUDGET, "budget violated: {e:?}");
        }
        assert!(stack.k_bound() <= BUDGET);
    }

    #[test]
    fn scripted_driver_retunes_a_queue() {
        let queue: Queue2D<u32> =
            Queue2D::builder().params(p(2, 1, 1)).elastic_capacity(16).build().unwrap();
        let script = ScriptedController::new([
            Some(p(8, 1, 1)), // grow
            Some(p(8, 2, 2)), // vertical
            Some(p(4, 2, 2)), // shrink (tail empty, commits on later ticks)
        ]);
        let mut elastic = Elastic::new(&queue, script);
        let ev = elastic.tick().expect("grow event");
        assert_eq!(ev.kind, RetuneKind::Grow);
        assert_eq!(ev.width, 8);
        assert_eq!(queue.put_window().width(), 8, "both queue windows must move");
        let ev = elastic.tick().expect("vertical event");
        assert_eq!(ev.kind, RetuneKind::Vertical);
        let ev = elastic.tick().expect("shrink event");
        assert_eq!(ev.kind, RetuneKind::Shrink);
        assert_eq!(ev.pop_width, 8, "dequeues keep covering the retired tail");
        let committed =
            tick_until_event(&mut elastic).expect("empty tail must let the queue shrink commit");
        assert_eq!(committed.kind, RetuneKind::Commit);
        assert_eq!(committed.pop_width, 4);
        // The queue stays fully usable after the schedule.
        let mut h = queue.handle_seeded(1);
        for i in 0..100 {
            h.enqueue(i);
        }
        let mut n = 0;
        while h.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn background_runner_drives_a_counter_under_budget() {
        const BUDGET: usize = 21; // width ceiling 1 + 21/3 = 8
        let counter =
            Arc::new(Counter2D::builder().params(p(1, 1, 1)).elastic_capacity(8).build().unwrap());
        let runner = ElasticRunner::spawn_with_budget(
            Arc::clone(&counter),
            AimdController::new(BUDGET),
            Duration::from_micros(500),
            BUDGET,
        );
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let counter = Arc::clone(&counter);
            joins.push(stack2d::sync::thread::spawn(move || {
                let mut h = counter.handle_seeded(t + 1);
                for _ in 0..20_000 {
                    h.increment();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let events = runner.stop();
        for e in &events {
            assert!(e.k_bound <= BUDGET, "budget violated: {e:?}");
        }
        for _ in 0..64 {
            counter.try_commit_shrink();
        }
        assert_eq!(counter.value(), 4 * 20_000, "retunes must not lose increments");
        assert!(counter.window().k_bound() <= BUDGET);
    }
}
