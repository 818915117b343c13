//! The structure-generic `RelaxedOps` family: one unchanged workload
//! driver over all three 2D structures and the baselines, trait-reported
//! relaxation bounds matching the inherent methods, and the managed
//! adaptive guard.

use std::time::Duration;

use stack2d_repro::stack2d::{
    Counter2D, ElasticTarget, OpsHandle, Params, Queue2D, RelaxedOps, Stack2D,
};
use stack2d_repro::stack2d_adaptive::{AdaptiveBuilder, AimdController, ScriptedController};
use stack2d_repro::stack2d_baselines::{LockedQueue, TreiberStack};
use stack2d_repro::stack2d_harness::{Algorithm, AnyRelaxed, BuildSpec, StructureKind};
use stack2d_repro::stack2d_workload::{run_fixed_ops, OpMix};

/// The acceptance shape: the *unchanged* generic runner drives all three
/// 2D structures and the baselines through `RelaxedOps`.
#[test]
fn generic_runner_drives_every_structure() {
    fn drive<S: RelaxedOps<u64>>(s: &S) -> (u64, u64) {
        let r = run_fixed_ops(s, 2, 2_000, OpMix::symmetric(), 11);
        assert_eq!(r.total_ops(), 4_000, "{}: ops lost", RelaxedOps::name(s));
        (r.pushes, r.pops)
    }

    let stack = Stack2D::<u64>::builder().for_threads(2).build().unwrap();
    let queue = Queue2D::<u64>::builder().for_threads(2).build().unwrap();
    let counter = Counter2D::builder().for_threads(2).build().unwrap();
    let treiber: TreiberStack<u64> = TreiberStack::new();
    let locked_queue: LockedQueue<u64> = LockedQueue::new();

    let (pushes, pops) = drive(&stack);
    assert_eq!(stack.len() as u64, pushes - pops);
    let (pushes, pops) = drive(&queue);
    assert_eq!(queue.len() as u64, pushes - pops);
    let (pushes, _) = drive(&counter);
    assert_eq!(counter.value() as u64, pushes, "every produce increments");
    drive(&treiber);
    drive(&locked_queue);
}

/// The registry's legend names and reported bounds for every structure at
/// the Figure 2 preset (`high_throughput(2)`) and a Figure 1 budget
/// (`with_k(4, 30)`), in [`StructureKind::ALL`] order. A change to the
/// build mapping or to a structure's bound shows up here.
const REGISTRY_TABLE: [(&str, Option<usize>, Option<usize>); 10] = [
    ("2D-stack", Some(21), Some(30)),
    ("k-robin", Some(512), Some(24)),
    ("k-segment", Some(255), Some(30)),
    ("random", None, None),
    ("random-c2", None, None),
    ("elimination", Some(0), Some(0)),
    ("treiber", Some(0), Some(0)),
    ("2d-queue", Some(21), Some(30)),
    ("locked-queue", Some(0), Some(0)),
    ("2d-counter", Some(14), Some(20)),
];

#[test]
fn registry_covers_stacks_queues_and_counter() {
    for (kind, &(name, fig2_bound, fig1_bound)) in StructureKind::ALL.iter().zip(&REGISTRY_TABLE) {
        let kind = *kind;
        for (spec, bound) in
            [(BuildSpec::high_throughput(2), fig2_bound), (BuildSpec::with_k(4, 30), fig1_bound)]
        {
            let s = AnyRelaxed::build(kind, spec);
            assert_eq!(s.kind(), kind);
            assert_eq!(s.name(), name, "{kind} at {spec:?}");
            assert_eq!(s.relaxation_bound(), bound, "{kind} at {spec:?}");
            let r = run_fixed_ops(&s, 2, 500, OpMix::symmetric(), 3);
            assert_eq!(r.total_ops(), 1_000, "{kind}: ops lost");
        }
    }
}

#[test]
fn consume_on_a_counter_reports_empty() {
    let counter = Counter2D::builder().width(2).build().unwrap();
    let mut h = counter.ops_handle();
    h.produce(123); // value irrelevant: one increment
    assert_eq!(h.consume(), None, "counters are increment-only");
    assert_eq!(counter.value(), 1);
}

/// Satellite regression: the trait-reported bound must match the inherent
/// methods on all three structures — `k_bound()` on the fixed path,
/// residency-widened `k_bound_instantaneous()` on the elastic path.
#[test]
fn trait_bounds_match_inherent_methods() {
    // Fixed-width: the configured bound, exactly.
    let p = Params::new(6, 3, 2).unwrap();
    let stack = Stack2D::<u64>::builder().params(p).build().unwrap();
    assert_eq!(RelaxedOps::<u64>::relaxation_bound(&stack), Some(stack.k_bound()));
    let queue = Queue2D::<u64>::builder().params(p).build().unwrap();
    assert_eq!(RelaxedOps::<u64>::relaxation_bound(&queue), Some(queue.k_bound()));
    let counter = Counter2D::builder().params(p).build().unwrap();
    assert_eq!(RelaxedOps::relaxation_bound(&counter), Some(counter.k_bound()));
    assert_eq!(counter.k_bound(), (3 + 2) * (6 - 1));

    // Elastic path: a width-grow transient makes the instantaneous bound
    // the honest (larger) one, and the trait must report it.
    let stack = Stack2D::<u64>::builder().width(1).elastic_capacity(8).build().unwrap();
    let mut h = stack.handle_seeded(5);
    for i in 0..200 {
        h.push(i);
    }
    stack.retune(Params::new(8, 1, 1).unwrap()).unwrap();
    let expect = stack.k_bound().max(stack.k_bound_instantaneous());
    assert!(stack.k_bound_instantaneous() > stack.k_bound(), "transient must dominate");
    assert_eq!(RelaxedOps::<u64>::relaxation_bound(&stack), Some(expect));

    let queue = Queue2D::<u64>::builder().width(1).elastic_capacity(8).build().unwrap();
    let mut h = queue.handle_seeded(5);
    for i in 0..200 {
        h.enqueue(i);
    }
    queue.retune(Params::new(8, 1, 1).unwrap()).unwrap();
    let expect = queue.k_bound().max(queue.k_bound_instantaneous());
    assert_eq!(RelaxedOps::<u64>::relaxation_bound(&queue), Some(expect));

    let counter = Counter2D::builder().width(1).elastic_capacity(8).build().unwrap();
    let mut h = counter.handle_seeded(5);
    for _ in 0..200 {
        h.increment();
    }
    counter.retune(Params::new(8, 1, 1).unwrap()).unwrap();
    let expect = counter.k_bound().max(counter.k_bound_instantaneous());
    assert_eq!(RelaxedOps::relaxation_bound(&counter), Some(expect));
}

/// `k_bound_instantaneous` is part of the elastic contract now: generic
/// controller-side code can read the live bound for any target.
#[test]
fn elastic_target_exposes_the_live_bound() {
    fn live<E: ElasticTarget>(e: &E) -> usize {
        e.k_bound_instantaneous()
    }
    let stack = Stack2D::<u64>::builder().width(2).elastic_capacity(4).build().unwrap();
    let queue = Queue2D::<u64>::builder().width(2).elastic_capacity(4).build().unwrap();
    let counter = Counter2D::builder().width(2).elastic_capacity(4).build().unwrap();
    assert_eq!(live(&stack), stack.k_bound_instantaneous());
    assert_eq!(live(&queue), queue.k_bound_instantaneous());
    assert_eq!(live(&counter), counter.k_bound_instantaneous());
}

/// Seeded handles through the trait: identical seeds, identical behaviour,
/// whether the 2D-Stack is reached directly or through the registry.
#[test]
fn trait_seeded_handles_are_deterministic() {
    fn drain_order<S: RelaxedOps<u64>>(s: &S) -> Vec<u64> {
        let mut h = s.ops_handle_seeded(77);
        for i in 0..500 {
            h.produce(i);
        }
        let mut out = Vec::new();
        while let Some(v) = h.consume() {
            out.push(v);
        }
        out
    }
    let p = Params::new(4, 2, 1).unwrap();
    let a = Stack2D::new(p);
    let b = Stack2D::new(p);
    assert_eq!(drain_order(&a), drain_order(&b));

    let spec = BuildSpec::high_throughput(2);
    let registry = AnyRelaxed::build(StructureKind::Stack(Algorithm::TwoD), spec);
    let concrete = Stack2D::new(Params::for_threads(2));
    let order = drain_order(&concrete);
    assert_eq!(drain_order(&registry), order, "registry 2D-stack diverged from Stack2D");
    assert_ne!(order, (0..500).rev().collect::<Vec<u64>>(), "width 8 must relax the order");
}

/// The managed guard under real concurrency: workers hammer the shared
/// structure while the guard's controller retunes it; dropping the guard
/// (without an explicit stop) joins the controller cleanly and the
/// structure stays intact.
#[test]
fn managed_guard_raii_under_concurrency() {
    const THREADS: usize = 4;
    const PER: usize = 5_000;
    const BUDGET: usize = 93;
    let managed = Stack2D::<u64>::builder()
        .width(1)
        .elastic_capacity(32)
        .adaptive(AimdController::new(BUDGET), Duration::from_micros(300))
        .unwrap();
    let mut joins = Vec::new();
    for t in 0..THREADS {
        let stack = managed.share();
        joins.push(std::thread::spawn(move || {
            let mut h = stack.handle_seeded(t as u64 + 1);
            let mut popped = Vec::new();
            for i in 0..PER {
                h.push((t * PER + i) as u64);
                if i % 2 == 1 {
                    if let Some(v) = h.pop() {
                        popped.push(v);
                    }
                }
            }
            popped
        }));
    }
    let mut all: Vec<u64> = Vec::new();
    for j in joins {
        all.extend(j.join().unwrap());
    }
    let shared = managed.share();
    assert!(shared.k_bound() <= BUDGET, "managed budget must hold");
    drop(managed); // RAII: controller stops and joins here
    let mut h = shared.handle_seeded(999);
    while let Some(v) = h.pop() {
        all.push(v);
    }
    all.sort_unstable();
    let expect: Vec<u64> = (0..(THREADS * PER) as u64).collect();
    assert_eq!(all, expect, "managed retuning must not lose or duplicate items");
}

/// A scripted managed queue: the stop() path returns the event log.
#[test]
fn managed_stop_returns_events() {
    let managed = Queue2D::<u64>::builder()
        .width(1)
        .elastic_capacity(4)
        .adaptive(
            ScriptedController::new([Some(Params::new(4, 1, 1).unwrap())]),
            Duration::from_micros(200),
        )
        .unwrap();
    for _ in 0..400 {
        if managed.window().width() == 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let events = managed.stop();
    assert_eq!(events.len(), 1, "the scripted grow must be logged");
    assert_eq!(events[0].width, 4);
}
