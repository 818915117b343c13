//! The unified window-search engine — one audited hot loop for all three
//! windowed structures.
//!
//! Before this module, the paper's §3 two-phase search existed three times:
//! `stack.rs` carried the full policy (random hops, covering sweep,
//! locality, hop-on-contention) while `queue2d.rs` and `counter2d.rs`
//! hardcoded bespoke covering sweeps. This module owns the *entire* search
//! round for all of them:
//!
//! * the descriptor load — re-read from the [`ElasticWindow`] at the top of
//!   every round, so retunes take effect without blocking in-flight
//!   operations;
//! * the locality-guided (or random) start index;
//! * probe enumeration through [`Probes`] — random-hop phase plus the
//!   covering round-robin sweep, per the configured [`SearchPolicy`];
//! * the restart on an observed `Global` change;
//! * the random hop after a lost CAS (when hop-on-contention is enabled);
//! * per-probe verdict accumulation: the `all_empty` conclusion a consuming
//!   side's `None` return rests on is only derived from probes belonging to
//!   the covering sweep — **including step 0** (the PR 3 off-by-one class
//!   of bug is structurally impossible here);
//! * the shift/restart decision after an exhausted round;
//! * the batch drain: after a win, further operations on the won cell, up
//!   to the window's per-cell budget.
//!
//! [`Search::run`] is the only entry point, for singular and batched
//! operations alike (a singular op is a batch of one), and [`OpState::drive`]
//! is the only caller: the one op path every public operation of the three
//! structures funnels through, which wraps the search in the epoch pin,
//! the handle's counter bumps and the telemetry hooks.
//!
//! What *is* structure-specific — how one cell is validated and mutated,
//! which span of the descriptor a side covers, and which direction the
//! window shifts — enters through the [`ProbeTarget`] trait, implemented by
//! the stack's push/pop sides, the queue's put/get ends and the counter's
//! increment side. The engine is deliberately `pub(crate)`: its contract
//! involves crate-internal descriptor types, and the public surface for
//! policy experimentation is [`SearchConfig`] on the builders. See
//! DESIGN.md §9.
//!
//! # Why only `Global` is re-checked per probe
//!
//! The window descriptor is *not* re-read inside the probe loop (only
//! `Global` is, as in the paper): operations reload it at the top of every
//! round, which already bounds a retune's propagation delay to one search
//! round, and the shrink fence (DESIGN.md §6) tolerates whole in-flight
//! operations on a stale descriptor. A per-probe descriptor load would
//! double the atomic traffic of the hottest loop for nothing. The one
//! exception is the window **shift** after an exhausted round: the live
//! descriptor is re-read immediately before the `Global` CAS, so a window
//! never advances by a stale `shift` (the PR 3 `get_global` fix, now
//! applied uniformly to all three structures).

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::Arc;

use crossbeam_epoch::{self as epoch, Guard};

use crate::metrics::{bump, CounterHub, HandleCounters};
use crate::rng::HopRng;
use crate::search::{Probes, SearchConfig, SearchPolicy};
use crate::telemetry::{clock, OpKind, Sampler, ShiftDir, TelemetryHook};
use crate::window::{ElasticWindow, WindowDesc};

/// Verdict of probing one cell under the round's `Global` value.
pub(crate) enum Probe<T> {
    /// The operation succeeded on this cell; the search is over.
    Done(T),
    /// A CAS was lost on a valid cell; the round restarts (with a random
    /// hop when hop-on-contention is enabled).
    Contended,
    /// The cell failed window validation but is not known empty (at/above
    /// the window edge, or below the pop floor while holding items). Feeds
    /// `all_empty = false` when probed during the covering sweep.
    Invalid,
    /// The cell was observed empty — the only verdict that keeps a
    /// covering sweep's `all_empty` conclusion alive.
    Empty,
}

/// One side (producing or consuming) of a windowed structure, as seen by
/// the engine: cell probing, the side's span of the descriptor, and the
/// direction its `Global` shifts.
pub(crate) trait ProbeTarget {
    /// What a successful operation yields (`()` for producers, the item
    /// for consumers).
    type Output;

    /// Whether an all-empty covering sweep ends the operation with `None`.
    /// Producing sides retry (shifting the window) until they succeed.
    /// Also picks the counters a side reports to: consuming sides count
    /// `shifts_down` and `empty_pops`, producing sides `shifts_up`.
    const CONSUMES: bool;

    /// The op kind this side's sampled latencies are recorded as.
    const OP: OpKind;

    /// The number of cells this side covers under descriptor `w`
    /// (`push_width` for producers, `pop_width` for consumers).
    fn span(&self, w: &WindowDesc) -> usize;

    /// Probes cell `index` under the round's descriptor and `Global`.
    fn probe(
        &mut self,
        index: usize,
        w: &WindowDesc,
        global: usize,
        guard: &Guard,
    ) -> Probe<Self::Output>;

    /// The `Global` value an exhausted round proposes to shift to, given
    /// the *live* descriptor; `None` when the window cannot move (a pop
    /// window already resting at its floor).
    fn shift_target(&self, global: usize, live: &WindowDesc) -> Option<usize>;

    /// Stages the side for the next operation of a batch: producing sides
    /// load their next node here and return `false` when no items remain.
    /// Consuming sides take the default (always ready).
    fn reload(&mut self) -> bool {
        true
    }
}

/// Event counts of one engine run, in the engine's own vocabulary;
/// [`OpState::drive`] maps them onto the handle's counter
/// block (`shifts` becomes `shifts_up` or `shifts_down` depending on the
/// side).
#[derive(Default)]
struct SearchStats {
    /// Cells validated.
    probes: u64,
    /// CASes lost on valid cells.
    cas_failures: u64,
    /// Rounds restarted on an observed `Global` change.
    restarts: u64,
    /// Window shifts won.
    shifts: u64,
    /// Operations completed (outputs emitted).
    done: u64,
    /// Whether a covering sweep concluded `all_empty` (consuming sides).
    empty: bool,
}

/// One configured search: the window/global pair a side operates on plus
/// the policy knobs. Construct per operation (it is two references and
/// three scalars) and hand it to [`OpState::drive`].
pub(crate) struct Search<'a> {
    window: &'a ElasticWindow,
    global: &'a AtomicUsize,
    policy: SearchPolicy,
    locality: bool,
    hop_on_contention: bool,
}

/// How a search round ended.
enum RoundEnd {
    /// An operation completed on this cell, and the batch wants more.
    Won(usize),
    /// `Global` changed mid-round; restart from the observed index.
    GlobalChanged(usize),
    /// A CAS was lost on a valid cell.
    Contention,
    /// Every probe failed validation under the round's `Global`.
    Exhausted,
}

impl<'a> Search<'a> {
    /// A search over `window`/`global` with `config`'s policy knobs.
    pub(crate) fn new(
        window: &'a ElasticWindow,
        global: &'a AtomicUsize,
        config: &SearchConfig,
    ) -> Self {
        Search {
            window,
            global,
            policy: config.policy(),
            locality: config.uses_locality(),
            hop_on_contention: config.hops_on_contention(),
        }
    }

    /// Runs search rounds until `max` operations completed, passing each
    /// output to `emit`. A consuming side returns short when a covering
    /// sweep observes every cell empty (`stats.empty`); producing sides
    /// always complete all `max` (they stop early only when
    /// [`ProbeTarget::reload`] runs dry).
    ///
    /// After winning a cell the search keeps **draining that same cell** —
    /// re-checking `Global` and revalidating the cell before every extra
    /// item — until `max` operations completed, the cell stops validating,
    /// or `w.depth` items were taken in the round (the window's per-cell
    /// budget, which is what keeps a batch inside Theorem 1's `k`: a batch
    /// never takes more from one cell than the window already permits).
    /// With `max == 1` the drain is never entered, so a batch of one *is*
    /// the singular operation: same probe order, same RNG consumption,
    /// same cell transitions.
    ///
    /// `last` is the handle's locality state (updated on success), `rng`
    /// its hop RNG. Lock-free: a thread only retries when another thread
    /// made progress (won a CAS, shifted the window, or retuned it).
    ///
    /// A plain `#[inline]`, unlike [`OpState::drive`]: each op method
    /// passes its `max` straight in (a constant `1` for the singular ops,
    /// which lets the compiler fold the drain loop away when it inlines),
    /// but forcing the whole loop into every op method slowed the batched
    /// queue path in paired benchmark runs while the singular ops gained
    /// nothing more.
    #[inline]
    fn run<P: ProbeTarget>(
        &self,
        target: &mut P,
        max: usize,
        last: &mut usize,
        rng: &mut HopRng,
        guard: &Guard,
        mut emit: impl FnMut(P::Output),
    ) -> SearchStats {
        let mut stats = SearchStats::default();
        let max = max as u64;
        let mut resume: Option<usize> = None;
        loop {
            // Re-read the window descriptor every round: retunes take
            // effect without blocking in-flight operations.
            let w = self.window.load(guard);
            let width = target.span(w);
            let at = match resume.take() {
                // A restart resumes near where the previous round stopped
                // (wrapped: a retune may have narrowed the span below it).
                Some(s) => s % width,
                None if self.locality => *last % width,
                None => rng.bounded(width),
            };
            let global = self.global.load(Ordering::SeqCst);
            let mut all_empty = true;
            let mut end = RoundEnd::Exhausted;
            // Inner scope: `probes` borrows the rng, which the
            // hop-on-contention restart below needs back.
            {
                let mut probes = Probes::new(self.policy, width, at, rng);
                let mut probe_no = 0;
                // `probes` is consumed manually (not a `for` loop) because
                // the verdict accumulation needs `in_coverage` queries
                // mid-iteration.
                #[allow(clippy::while_let_on_iterator)]
                while let Some(i) = probes.next() {
                    stats.probes += 1;
                    let in_coverage = probes.in_coverage(probe_no);
                    probe_no += 1;
                    // Restart on any observed Global change (§3
                    // optimization).
                    if self.global.load(Ordering::SeqCst) != global {
                        end = RoundEnd::GlobalChanged(i);
                        break;
                    }
                    match target.probe(i, w, global, guard) {
                        Probe::Done(value) => {
                            *last = i;
                            emit(value);
                            stats.done += 1;
                            if stats.done >= max || !target.reload() {
                                return stats;
                            }
                            end = RoundEnd::Won(i);
                            break;
                        }
                        Probe::Contended => {
                            end = RoundEnd::Contention;
                            break;
                        }
                        // Only covering-sweep probes feed the verdict; a
                        // non-empty cell anywhere in the sweep kills it.
                        Probe::Invalid => {
                            if in_coverage {
                                all_empty = false;
                            }
                        }
                        Probe::Empty => {}
                    }
                }
            }
            match end {
                RoundEnd::Won(i) => {
                    // Drain the won cell under the round's descriptor; one
                    // item is already out. Spending the per-round cell
                    // budget, or the cell no longer validating (window edge
                    // or exhausted), falls back to a full search round that
                    // revisits `i` first.
                    resume = Some(i);
                    for _ in 1..w.depth {
                        // Fresh Global per drained item: the validity check
                        // always runs against the live window position.
                        let g = self.global.load(Ordering::SeqCst);
                        stats.probes += 1;
                        match target.probe(i, w, g, guard) {
                            Probe::Done(value) => {
                                emit(value);
                                stats.done += 1;
                                if stats.done >= max || !target.reload() {
                                    return stats;
                                }
                            }
                            Probe::Contended => {
                                stats.cas_failures += 1;
                                if self.hop_on_contention {
                                    resume = Some(rng.bounded(width));
                                }
                                break;
                            }
                            Probe::Invalid | Probe::Empty => break,
                        }
                    }
                }
                RoundEnd::GlobalChanged(i) => {
                    stats.restarts += 1;
                    resume = Some(i);
                }
                RoundEnd::Contention => {
                    stats.cas_failures += 1;
                    // Contention avoidance: hop to a random cell instead of
                    // retrying the fought-over one (paper default).
                    resume = Some(if self.hop_on_contention { rng.bounded(width) } else { at });
                }
                RoundEnd::Exhausted => {
                    if P::CONSUMES && all_empty {
                        // A covering sweep under one Global saw only empty
                        // cells: report empty (a batch ends here, short).
                        stats.empty = true;
                        return stats;
                    }
                    // No valid cell anywhere: propose a window shift. The
                    // live descriptor is re-read so the window never moves
                    // by a stale shift; a failed CAS means another thread
                    // moved Global — either way the window changed and the
                    // search restarts fresh (from locality).
                    let live = self.window.load(guard);
                    if let Some(next) = target.shift_target(global, live) {
                        if self
                            .global
                            .compare_exchange(global, next, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        {
                            stats.shifts += 1;
                        }
                    }
                }
            }
        }
    }
}

/// The per-handle state every windowed structure's handle carries — the
/// hop RNG, the telemetry sampler and the handle's private counter block —
/// plus the structure-level hub and hook it reports to. Dropping it parks
/// the block in the hub, counts and all, for the next handle to reuse.
pub(crate) struct OpState<'s> {
    hub: &'s CounterHub,
    telemetry: &'s TelemetryHook,
    pub(crate) rng: HopRng,
    sampler: Sampler,
    /// Single-writer while this state lives; summed into the structure's
    /// `metrics()` for the hub's life, parked on drop. See [`CounterHub`].
    counters: Arc<HandleCounters>,
}

impl<'s> OpState<'s> {
    /// Takes a counter block from `hub`: a parked one, or a new one.
    pub(crate) fn new(hub: &'s CounterHub, telemetry: &'s TelemetryHook, rng: HopRng) -> Self {
        OpState { hub, telemetry, rng, sampler: telemetry.sampler(), counters: hub.register() }
    }

    /// The one op path behind every public operation of the three
    /// structures: sample start → epoch pin → [`Search::run`] → counter
    /// bumps → telemetry. `max` is the number of operations (`1` for the
    /// singular ops); `batched` marks a `_n` call, whose operations also
    /// count as `batched_ops`. `max == 0` is a no-op that counts nothing.
    ///
    /// Every call counts one `search_rounds`, and `done + empty` `ops`: an
    /// empty-terminated consume counts its empty observation as one op,
    /// exactly like the singular consume that returns `None`.
    #[inline(always)]
    pub(crate) fn drive<P: ProbeTarget>(
        &mut self,
        search: Search<'_>,
        target: &mut P,
        max: usize,
        batched: bool,
        last: &mut usize,
        emit: impl FnMut(P::Output),
    ) {
        if max == 0 {
            return;
        }
        let start = self.telemetry.sample_start(&mut self.sampler);
        // The pin also puts the operation inside the shrink fence: a
        // retired cell is only committed after every pinned pre-shrink
        // operation finished.
        let guard = epoch::pin();
        let st = search.run(target, max, last, &mut self.rng, &guard, emit);
        let c = &*self.counters;
        let (shifts, dir) = if P::CONSUMES {
            (&c.shifts_down, ShiftDir::Down)
        } else {
            (&c.shifts_up, ShiftDir::Up)
        };
        let ops = st.done + u64::from(st.empty);
        bump(&c.probes, st.probes);
        bump(&c.cas_failures, st.cas_failures);
        bump(&c.global_restarts, st.restarts);
        bump(shifts, st.shifts);
        bump(&c.empty_pops, u64::from(st.empty));
        bump(&c.ops, ops);
        if batched {
            bump(&c.batched_ops, ops);
        }
        bump(&c.search_rounds, 1);
        if let Some(r) = self.telemetry.recorder() {
            if st.shifts > 0 {
                r.window_shift(dir, st.shifts);
            }
            if let Some(t0) = start {
                r.op_sample(P::OP, clock::now_ns().saturating_sub(t0));
            }
        }
    }
}

impl Drop for OpState<'_> {
    fn drop(&mut self) {
        self.hub.release(&self.counters);
    }
}
