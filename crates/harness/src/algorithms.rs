//! Structure registry: every structure the harness drives — the seven
//! stacks of the paper's evaluation, the windowed queue and counter
//! extensions and the locked-queue baseline — behind one concrete type,
//! configured the way the figures need.
//!
//! The workload runner is generic over [`RelaxedOps`]; for sweeps that
//! iterate "for every algorithm …" the harness needs a single concrete
//! type, so [`AnyRelaxed`] wraps all ten structures in one flat enum whose
//! handle, [`AnyRelaxedHandle`], dispatches per operation. Stack-only
//! experiments build through [`StructureKind::Stack`]. (Criterion
//! micro-benches that care about the last nanosecond use the concrete
//! types directly.)

use std::fmt;

use stack2d::{
    Counter2D, OpsHandle, Params, Queue2D, RelaxedOps, SearchConfig, SearchPolicy, Stack2D,
};
use stack2d_baselines::{
    EliminationStack, KRobinStack, KSegmentStack, LockedQueue, RandomC2Stack, RandomStack,
    TreiberStack,
};

/// The seven algorithms of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's contribution.
    TwoD,
    /// Round-robin scheduling baseline.
    KRobin,
    /// Segmented k-out-of-order baseline [Henzinger et al. 2013].
    KSegment,
    /// Uniform random scheduling baseline.
    Random,
    /// Choice-of-two scheduling baseline [Rihani et al. 2015].
    RandomC2,
    /// Elimination back-off stack [Hendler et al. 2010].
    Elimination,
    /// Treiber stack [Treiber 1986].
    Treiber,
}

impl Algorithm {
    /// All algorithms, in the paper's legend order.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::TwoD,
        Algorithm::KRobin,
        Algorithm::KSegment,
        Algorithm::Random,
        Algorithm::RandomC2,
        Algorithm::Elimination,
        Algorithm::Treiber,
    ];

    /// The k-bounded algorithms compared in Figure 1.
    pub const K_BOUNDED: [Algorithm; 3] = [Algorithm::TwoD, Algorithm::KRobin, Algorithm::KSegment];

    /// Legend name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::TwoD => "2D-stack",
            Algorithm::KRobin => "k-robin",
            Algorithm::KSegment => "k-segment",
            Algorithm::Random => "random",
            Algorithm::RandomC2 => "random-c2",
            Algorithm::Elimination => "elimination",
            Algorithm::Treiber => "treiber",
        }
    }

    /// Parses a legend name (as printed by [`Algorithm::name`]).
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.name() == name)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How an [`AnyRelaxed`] instance should be configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildSpec {
    /// Thread count the instance will face (`P`).
    pub threads: usize,
    /// Relaxation budget; `None` selects each algorithm's high-throughput
    /// configuration (Figure 2), `Some(k)` its k-calibrated configuration
    /// (Figure 1).
    pub k: Option<usize>,
}

impl BuildSpec {
    /// High-throughput configuration for `threads` threads (Figure 2).
    pub fn high_throughput(threads: usize) -> Self {
        BuildSpec { threads, k: None }
    }

    /// k-calibrated configuration (Figure 1).
    pub fn with_k(threads: usize, k: usize) -> Self {
        BuildSpec { threads, k: Some(k) }
    }
}

/// Fixed sub-stack count used by `random`/`random-c2` in the scalability
/// experiment — the paper notes these "maintain almost constant quality due
/// to the fixed number of sub-stacks".
pub const FIXED_WIDTH: usize = 64;

/// Fixed segment size for `k-segment` in the scalability experiment.
pub const FIXED_KSEGMENT: usize = 256;

/// Relaxation budget `k-robin` tries to hold in the scalability experiment
/// (it shrinks its width as threads grow, per the paper's §4 description).
pub const KROBIN_QUALITY_TARGET: usize = 512;

/// Every structure the harness can drive through the structure-generic
/// [`RelaxedOps`] contract: the seven stacks of the paper's evaluation
/// (as [`StructureKind::Stack`]) plus the windowed queue and counter
/// extensions and the locked-queue baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// One of the seven evaluated stacks.
    Stack(Algorithm),
    /// The windowed FIFO queue extension.
    Queue2D,
    /// The strict locked-queue baseline (the queue's comparison point).
    LockedQueue,
    /// The windowed sharded counter extension (produce = increment,
    /// consume always observes empty).
    Counter2D,
}

impl StructureKind {
    /// Every structure, stacks in the paper's legend order first.
    pub const ALL: [StructureKind; 10] = [
        StructureKind::Stack(Algorithm::TwoD),
        StructureKind::Stack(Algorithm::KRobin),
        StructureKind::Stack(Algorithm::KSegment),
        StructureKind::Stack(Algorithm::Random),
        StructureKind::Stack(Algorithm::RandomC2),
        StructureKind::Stack(Algorithm::Elimination),
        StructureKind::Stack(Algorithm::Treiber),
        StructureKind::Queue2D,
        StructureKind::LockedQueue,
        StructureKind::Counter2D,
    ];

    /// Legend name.
    pub fn name(&self) -> &'static str {
        match self {
            StructureKind::Stack(algo) => algo.name(),
            StructureKind::Queue2D => "2d-queue",
            StructureKind::LockedQueue => "locked-queue",
            StructureKind::Counter2D => "2d-counter",
        }
    }
}

impl fmt::Display for StructureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Declares [`AnyRelaxed`], its handle enum [`AnyRelaxedHandle`] and the
/// per-operation dispatch between them from one variant list, so the two
/// enums cannot drift apart.
macro_rules! registry {
    ($($(#[$doc:meta])* $variant:ident($ty:ty) = $kind:expr,)+) => {
        /// Any harness-drivable structure behind one concrete
        /// [`RelaxedOps`] type — the registry every sweep iterates over.
        // Variant sizes differ by a KiB (the 2D structures' cache-padded
        // counters); harness code creates a handful of these per
        // experiment, so boxing the large variants would only add
        // indirection on the measured path.
        #[allow(clippy::large_enum_variant)]
        pub enum AnyRelaxed {
            $($(#[$doc])* $variant($ty),)+
        }

        /// Handle to an [`AnyRelaxed`]; dispatches per operation.
        pub enum AnyRelaxedHandle<'a> {
            $($(#[$doc])* $variant(<$ty as RelaxedOps<u64>>::Handle<'a>),)+
        }

        impl AnyRelaxed {
            /// Which structure this instance is.
            pub fn kind(&self) -> StructureKind {
                match self {
                    $(AnyRelaxed::$variant(_) => $kind,)+
                }
            }
        }

        impl OpsHandle<u64> for AnyRelaxedHandle<'_> {
            fn produce(&mut self, value: u64) {
                match self {
                    $(AnyRelaxedHandle::$variant(h) => h.produce(value),)+
                }
            }

            fn consume(&mut self) -> Option<u64> {
                match self {
                    $(AnyRelaxedHandle::$variant(h) => h.consume(),)+
                }
            }
        }

        impl RelaxedOps<u64> for AnyRelaxed {
            type Handle<'a> = AnyRelaxedHandle<'a>;

            fn ops_handle(&self) -> AnyRelaxedHandle<'_> {
                match self {
                    $(AnyRelaxed::$variant(s) => AnyRelaxedHandle::$variant(s.ops_handle()),)+
                }
            }

            fn ops_handle_seeded(&self, seed: u64) -> AnyRelaxedHandle<'_> {
                match self {
                    $(AnyRelaxed::$variant(s) => {
                        AnyRelaxedHandle::$variant(s.ops_handle_seeded(seed))
                    })+
                }
            }

            fn name(&self) -> &'static str {
                self.kind().name()
            }

            fn relaxation_bound(&self) -> Option<usize> {
                match self {
                    $(AnyRelaxed::$variant(s) => s.relaxation_bound(),)+
                }
            }
        }
    };
}

registry! {
    /// See [`Algorithm::TwoD`].
    TwoD(Stack2D<u64>) = StructureKind::Stack(Algorithm::TwoD),
    /// See [`Algorithm::KRobin`].
    KRobin(KRobinStack<u64>) = StructureKind::Stack(Algorithm::KRobin),
    /// See [`Algorithm::KSegment`].
    KSegment(KSegmentStack<u64>) = StructureKind::Stack(Algorithm::KSegment),
    /// See [`Algorithm::Random`].
    Random(RandomStack<u64>) = StructureKind::Stack(Algorithm::Random),
    /// See [`Algorithm::RandomC2`].
    RandomC2(RandomC2Stack<u64>) = StructureKind::Stack(Algorithm::RandomC2),
    /// See [`Algorithm::Elimination`].
    Elimination(EliminationStack<u64>) = StructureKind::Stack(Algorithm::Elimination),
    /// See [`Algorithm::Treiber`].
    Treiber(TreiberStack<u64>) = StructureKind::Stack(Algorithm::Treiber),
    /// The windowed FIFO queue.
    Queue2D(Queue2D<u64>) = StructureKind::Queue2D,
    /// The strict locked queue.
    LockedQueue(LockedQueue<u64>) = StructureKind::LockedQueue,
    /// The windowed sharded counter.
    Counter2D(Counter2D) = StructureKind::Counter2D,
}

impl AnyRelaxed {
    /// Builds `kind` configured per `spec`.
    ///
    /// Configuration mapping (documented per experiment in EXPERIMENTS.md):
    ///
    /// * `2D-stack`, `2d-queue`, `2d-counter` — `Params::for_k(k, P)`
    ///   under a budget, else `Params::for_threads(P)` (width = 4P);
    /// * `k-robin` — `width_for_k(k, P)` under a budget, else the width
    ///   holding [`KROBIN_QUALITY_TARGET`];
    /// * `k-segment` — segment size `k` under a budget (min 1), else
    ///   [`FIXED_KSEGMENT`];
    /// * `random` / `random-c2` — [`FIXED_WIDTH`] sub-stacks (no k
    ///   calibration exists: their relaxation is unbounded);
    /// * `elimination` / `treiber` / `locked-queue` — no tuning (strict
    ///   semantics).
    pub fn build(kind: StructureKind, spec: BuildSpec) -> AnyRelaxed {
        let threads = spec.threads.max(1);
        let params = match spec.k {
            Some(k) => Params::for_k(k, threads),
            None => Params::for_threads(threads),
        };
        match kind {
            StructureKind::Stack(Algorithm::TwoD) => AnyRelaxed::TwoD(Stack2D::new(params)),
            StructureKind::Stack(Algorithm::KRobin) => {
                let width = match spec.k {
                    Some(k) => KRobinStack::<u64>::width_for_k(k, threads),
                    None => KRobinStack::<u64>::width_for_k(KROBIN_QUALITY_TARGET, threads),
                };
                AnyRelaxed::KRobin(KRobinStack::new(width, threads))
            }
            StructureKind::Stack(Algorithm::KSegment) => {
                // Segment size k+1 gives an out-of-order bound of exactly k.
                let k = match spec.k {
                    Some(k) => k + 1,
                    None => FIXED_KSEGMENT,
                };
                AnyRelaxed::KSegment(KSegmentStack::new(k))
            }
            StructureKind::Stack(Algorithm::Random) => {
                AnyRelaxed::Random(RandomStack::new(FIXED_WIDTH))
            }
            StructureKind::Stack(Algorithm::RandomC2) => {
                AnyRelaxed::RandomC2(RandomC2Stack::new(FIXED_WIDTH))
            }
            StructureKind::Stack(Algorithm::Elimination) => {
                AnyRelaxed::Elimination(EliminationStack::with_capacity(4 * threads + 16))
            }
            StructureKind::Stack(Algorithm::Treiber) => AnyRelaxed::Treiber(TreiberStack::new()),
            StructureKind::Queue2D => {
                AnyRelaxed::Queue2D(Queue2D::builder().params(params).build().expect("valid"))
            }
            StructureKind::LockedQueue => AnyRelaxed::LockedQueue(LockedQueue::new()),
            StructureKind::Counter2D => {
                AnyRelaxed::Counter2D(Counter2D::builder().params(params).build().expect("valid"))
            }
        }
    }

    /// Builds a 2D-Stack with an explicit search-policy configuration
    /// (ablation experiments).
    pub fn two_d_with_config(config: SearchConfig) -> AnyRelaxed {
        AnyRelaxed::TwoD(Stack2D::with_config(config))
    }
}

impl fmt::Debug for AnyRelaxed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AnyRelaxed({})", self.kind())
    }
}

/// Convenience: an ablation 2D-Stack configuration with one mechanism
/// toggled, used by the `ablation` binary and bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AblationVariant {
    /// The paper's full policy (two-phase search, hop on contention,
    /// locality).
    Full,
    /// Round-robin search only (no random hops).
    RoundRobinSearch,
    /// Random search only (no covering sweep).
    RandomSearch,
    /// No random hop after a failed CAS.
    NoHopOnContention,
    /// Searches start at a random sub-stack instead of the last successful
    /// one.
    NoLocality,
}

impl AblationVariant {
    /// All variants in report order.
    pub const ALL: [AblationVariant; 5] = [
        AblationVariant::Full,
        AblationVariant::RoundRobinSearch,
        AblationVariant::RandomSearch,
        AblationVariant::NoHopOnContention,
        AblationVariant::NoLocality,
    ];

    /// Report label.
    pub fn name(&self) -> &'static str {
        match self {
            AblationVariant::Full => "full",
            AblationVariant::RoundRobinSearch => "rr-search",
            AblationVariant::RandomSearch => "random-search",
            AblationVariant::NoHopOnContention => "no-hop",
            AblationVariant::NoLocality => "no-locality",
        }
    }

    /// The 2D-Stack configuration with this variant's mechanism toggled.
    pub fn config(&self, params: Params) -> SearchConfig {
        let base = SearchConfig::new(params);
        match self {
            AblationVariant::Full => base,
            AblationVariant::RoundRobinSearch => base.search_policy(SearchPolicy::RoundRobinOnly),
            AblationVariant::RandomSearch => base.search_policy(SearchPolicy::RandomOnly),
            AblationVariant::NoHopOnContention => base.hop_on_contention(false),
            AblationVariant::NoLocality => base.locality(false),
        }
    }
}

impl fmt::Display for AblationVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(algo: Algorithm, spec: BuildSpec) -> AnyRelaxed {
        AnyRelaxed::build(StructureKind::Stack(algo), spec)
    }

    #[test]
    fn all_algorithms_build_and_run() {
        for algo in Algorithm::ALL {
            let stack = stack(algo, BuildSpec::high_throughput(2));
            assert_eq!(stack.kind(), StructureKind::Stack(algo));
            let mut h = stack.ops_handle();
            for i in 0..100 {
                h.produce(i);
            }
            let mut n = 0;
            while h.consume().is_some() {
                n += 1;
            }
            assert_eq!(n, 100, "{algo} lost items");
        }
    }

    #[test]
    fn k_budget_is_respected_by_bounded_algos() {
        for algo in Algorithm::K_BOUNDED {
            for k in [0, 3, 30, 300, 3_000] {
                let stack = stack(algo, BuildSpec::with_k(4, k));
                if let Some(bound) = stack.relaxation_bound() {
                    // k-robin's bound is an estimate; allow its documented
                    // slack of one round per thread.
                    let slack = if algo == Algorithm::KRobin { 8 } else { 0 };
                    assert!(bound <= k + slack, "{algo}: bound {bound} exceeds budget {k}");
                }
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for algo in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(algo.name()), Some(algo));
        }
        assert_eq!(Algorithm::from_name("nope"), None);
    }

    #[test]
    fn strict_algos_report_zero_bound() {
        for algo in [Algorithm::Treiber, Algorithm::Elimination] {
            let stack = stack(algo, BuildSpec::high_throughput(2));
            assert_eq!(stack.relaxation_bound(), Some(0), "{algo}");
        }
    }

    #[test]
    fn unbounded_algos_report_none() {
        for algo in [Algorithm::Random, Algorithm::RandomC2] {
            let stack = stack(algo, BuildSpec::high_throughput(2));
            assert_eq!(stack.relaxation_bound(), None, "{algo}");
        }
    }

    #[test]
    fn two_d_high_throughput_uses_4p() {
        let AnyRelaxed::TwoD(s) = stack(Algorithm::TwoD, BuildSpec::high_throughput(8)) else {
            unreachable!()
        };
        assert_eq!(s.params().width(), 32);
    }

    #[test]
    fn ablation_variants_all_build() {
        let params = Params::new(8, 2, 1).unwrap();
        for v in AblationVariant::ALL {
            let stack = AnyRelaxed::two_d_with_config(v.config(params));
            let mut h = stack.ops_handle();
            h.produce(1);
            assert_eq!(h.consume(), Some(1), "{v}");
        }
    }

    #[test]
    fn krobin_width_shrinks_with_threads_in_fig2_config() {
        let w2 = match stack(Algorithm::KRobin, BuildSpec::high_throughput(2)) {
            AnyRelaxed::KRobin(s) => s.width(),
            _ => unreachable!(),
        };
        let w16 = match stack(Algorithm::KRobin, BuildSpec::high_throughput(16)) {
            AnyRelaxed::KRobin(s) => s.width(),
            _ => unreachable!(),
        };
        assert!(w16 < w2, "k-robin must shed sub-stacks as P grows: {w2} -> {w16}");
    }
}
