//! Probe-sequence parity for the unified window-search engine.
//!
//! The engine refactor promised byte-for-byte behavioural parity: a seeded,
//! single-threaded workload must probe the same cells in the same order as
//! the per-structure search loops it replaced. Probe order is not directly
//! observable, but it is *fully determined* by (seed, config, workload) —
//! any reordering changes which sub-structure each operation lands on, and
//! therefore the exact pop sequence and the exact probe/shift counters. The
//! fingerprints below were captured from the pre-engine implementations
//! (PR 4) and pin that behaviour:
//!
//! * the stack across **every** config axis (all three policies, locality
//!   off, hop-on-contention off — the full ablation surface it already had);
//! * the queue and counter in their default configuration (the PR 3
//!   covering-sweep behaviour, now expressed as `RoundRobinOnly`);
//! * the batched ops (`push_n`/`pop_n`, `enqueue_n`/`dequeue_n`, `add_n`)
//!   at batch sizes 1 and 8, captured from the engine's separate batch
//!   loop before it was merged into the singular one, with `batched_ops`
//!   and `search_rounds` in the fingerprint.
//!
//! To regenerate after an *intentional* behaviour change:
//! `cargo test --test engine_parity -- --ignored --nocapture`.

use stack2d::{Counter2D, Params, Queue2D, SearchConfig, SearchPolicy, Stack2D};

/// FNV-1a over a value stream: collapses a pop sequence into one word
/// without ordering insensitivity (a sum would miss reorderings).
fn fnv(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x100_0000_01b3)
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// (pop-sequence hash, probes, shifts_up, shifts_down, empty_pops).
type Fingerprint = (u64, u64, u64, u64, u64);

/// Seeded single-threaded churn: interleaved push/pop, then a full drain.
/// Single-threaded runs have no CAS races, so the fingerprint is exact.
fn stack_fingerprint(cfg: SearchConfig) -> Fingerprint {
    let stack = Stack2D::with_config(cfg);
    let mut h = stack.handle_seeded(0xA5A5);
    let mut acc = FNV_SEED;
    for i in 0..2_000u64 {
        h.push(i);
        if i % 3 == 0 {
            if let Some(v) = h.pop() {
                acc = fnv(acc, v);
            }
        }
    }
    while let Some(v) = h.pop() {
        acc = fnv(acc, v);
    }
    let m = stack.metrics();
    (acc, m.probes, m.shifts_up, m.shifts_down, m.empty_pops)
}

fn queue_fingerprint(params: Params) -> Fingerprint {
    let queue = Queue2D::new(params);
    let mut h = queue.handle_seeded(0xA5A5);
    let mut acc = FNV_SEED;
    for i in 0..2_000u64 {
        h.enqueue(i);
        if i % 3 == 0 {
            if let Some(v) = h.dequeue() {
                acc = fnv(acc, v);
            }
        }
    }
    while let Some(v) = h.dequeue() {
        acc = fnv(acc, v);
    }
    let m = queue.metrics();
    (acc, m.probes, m.shifts_up, m.shifts_down, m.empty_pops)
}

fn counter_fingerprint(params: Params) -> Fingerprint {
    let counter = Counter2D::new(params);
    let mut h = counter.handle_seeded(0xA5A5);
    for _ in 0..2_000u64 {
        h.increment();
    }
    let m = counter.metrics();
    (counter.value() as u64, m.probes, m.shifts_up, m.shifts_down, m.empty_pops)
}

fn p(w: usize, d: usize, s: usize) -> Params {
    Params::new(w, d, s).unwrap()
}

/// The stack configurations whose probe sequences are pinned: the default
/// plus one config per ablation axis, at two window shapes.
fn stack_cases() -> Vec<(&'static str, SearchConfig)> {
    let wide = p(8, 4, 2);
    let tight = p(4, 1, 1);
    vec![
        ("default-w8d4s2", SearchConfig::new(wide)),
        ("default-w4d1s1", SearchConfig::new(tight)),
        (
            "two-phase-3hops",
            SearchConfig::new(wide).search_policy(SearchPolicy::TwoPhase { random_hops: 3 }),
        ),
        ("rr-only", SearchConfig::new(wide).search_policy(SearchPolicy::RoundRobinOnly)),
        ("random-only", SearchConfig::new(wide).search_policy(SearchPolicy::RandomOnly)),
        ("no-locality", SearchConfig::new(wide).locality(false)),
        ("no-hop", SearchConfig::new(wide).hop_on_contention(false)),
        (
            "no-everything",
            SearchConfig::new(tight)
                .search_policy(SearchPolicy::RandomOnly)
                .locality(false)
                .hop_on_contention(false),
        ),
    ]
}

/// Golden fingerprints captured from the pre-engine (PR 4) stack search.
const STACK_GOLDEN: [(&str, Fingerprint); 8] = [
    ("default-w8d4s2", (8592145364936136807, 8256, 82, 82, 1)),
    ("default-w4d1s1", (2250523617872151793, 11605, 333, 333, 1)),
    ("two-phase-3hops", (10085130683362712523, 8862, 82, 82, 1)),
    ("rr-only", (10235385256761763195, 6477, 82, 82, 1)),
    ("random-only", (5194490047360178911, 11835, 82, 82, 1)),
    ("no-locality", (9557694425718465669, 8753, 82, 82, 1)),
    ("no-hop", (8592145364936136807, 8256, 82, 82, 1)),
    ("no-everything", (17171780706348486275, 16209, 333, 333, 1)),
];

/// Golden fingerprints captured from the PR 3/PR 4 queue covering sweep.
/// (The hash is identical at both window shapes because a single-threaded
/// relaxed queue still dequeues in insertion order; the probe and shift
/// counters are the discriminating part.)
const QUEUE_GOLDEN: [Fingerprint; 2] =
    [(7771951924129503285, 10982, 498, 498, 1), (7771951924129503285, 7712, 123, 123, 1)];

/// Golden fingerprints captured from the PR 3/PR 4 counter covering sweep.
const COUNTER_GOLDEN: [Fingerprint; 2] = [(2000, 5489, 498, 0, 0), (2000, 3852, 123, 0, 0)];

#[test]
fn stack_probe_sequences_match_pre_engine_goldens() {
    for (name, cfg) in stack_cases() {
        let got = stack_fingerprint(cfg);
        let (_, want) = STACK_GOLDEN.iter().find(|(n, _)| *n == name).expect("golden entry");
        assert_eq!(&got, want, "stack config {name}: probe sequence diverged from PR 4");
    }
}

#[test]
fn queue_probe_sequences_match_pre_engine_goldens() {
    for (params, want) in [p(4, 2, 1), p(8, 4, 2)].into_iter().zip(QUEUE_GOLDEN) {
        let got = queue_fingerprint(params);
        assert_eq!(got, want, "queue {params:?}: probe sequence diverged from PR 3/4 sweep");
    }
}

#[test]
fn counter_probe_sequences_match_pre_engine_goldens() {
    for (params, want) in [p(4, 2, 1), p(8, 4, 2)].into_iter().zip(COUNTER_GOLDEN) {
        let got = counter_fingerprint(params);
        assert_eq!(got, want, "counter {params:?}: probe sequence diverged from PR 3/4 sweep");
    }
}

/// The full ablation grid: every policy × locality × hop-on-contention
/// combination, now reachable on every structure through the builder.
fn ablation_grid() -> Vec<(SearchPolicy, bool, bool)> {
    let mut grid = Vec::new();
    for policy in [
        SearchPolicy::TwoPhase { random_hops: 1 },
        SearchPolicy::RoundRobinOnly,
        SearchPolicy::RandomOnly,
    ] {
        for locality in [true, false] {
            for hop in [true, false] {
                grid.push((policy, locality, hop));
            }
        }
    }
    grid
}

/// Every ablation combination is functional on the queue: nothing lost or
/// duplicated under concurrent churn, and the knobs land in the config.
#[test]
fn ablation_matrix_on_queue2d() {
    use std::collections::HashSet;
    use std::sync::Arc;
    for (policy, locality, hop) in ablation_grid() {
        let q = Arc::new(
            Queue2D::<u64>::builder()
                .width(4)
                .depth(2)
                .search_policy(policy)
                .locality(locality)
                .hop_on_contention(hop)
                .seed(7)
                .build()
                .unwrap(),
        );
        assert_eq!(q.config().policy(), policy);
        assert_eq!(q.config().uses_locality(), locality);
        assert_eq!(q.config().hops_on_contention(), hop);
        const THREADS: usize = 2;
        const PER: usize = 1_500;
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            joins.push(std::thread::spawn(move || {
                let mut h = q.handle_seeded(t as u64 + 1);
                let mut got = Vec::new();
                for i in 0..PER {
                    h.enqueue((t * PER + i) as u64);
                    if i % 3 == 0 {
                        if let Some(v) = h.dequeue() {
                            got.push(v);
                        }
                    }
                }
                got
            }));
        }
        let mut all: HashSet<u64> = HashSet::new();
        for j in joins {
            for v in j.join().unwrap() {
                assert!(all.insert(v), "{policy:?}/{locality}/{hop}: duplicate {v}");
            }
        }
        let mut h = q.handle_seeded(99);
        while let Some(v) = h.dequeue() {
            assert!(all.insert(v), "{policy:?}/{locality}/{hop}: duplicate {v}");
        }
        assert_eq!(
            all.len(),
            THREADS * PER,
            "{policy:?} locality={locality} hop={hop}: items lost"
        );
    }
}

/// Every ablation combination is functional on the counter: the value is
/// exact after concurrent increments.
#[test]
fn ablation_matrix_on_counter2d() {
    use std::sync::Arc;
    for (policy, locality, hop) in ablation_grid() {
        let c = Arc::new(
            Counter2D::builder()
                .width(4)
                .depth(2)
                .search_policy(policy)
                .locality(locality)
                .hop_on_contention(hop)
                .seed(7)
                .build()
                .unwrap(),
        );
        assert_eq!(c.config().policy(), policy);
        const THREADS: usize = 2;
        const PER: usize = 4_000;
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                let mut h = c.handle_seeded(t as u64 + 1);
                for _ in 0..PER {
                    h.increment();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(
            c.value(),
            THREADS * PER,
            "{policy:?} locality={locality} hop={hop}: increments lost or duplicated"
        );
    }
}

/// Builder defaults preserve each structure's historical search policy —
/// the acceptance criterion behind the golden fingerprints above.
#[test]
fn builder_defaults_match_structure_history() {
    let s: Stack2D<u8> = Stack2D::builder().build().unwrap();
    assert_eq!(s.config().policy(), SearchPolicy::TwoPhase { random_hops: 1 });
    let q: Queue2D<u8> = Queue2D::builder().build().unwrap();
    assert_eq!(q.config().policy(), SearchPolicy::RoundRobinOnly);
    let c = Counter2D::builder().build().unwrap();
    assert_eq!(c.config().policy(), SearchPolicy::RoundRobinOnly);
    // `new(params)` agrees with the builder defaults.
    let q = Queue2D::<u8>::new(p(4, 1, 1));
    assert_eq!(q.config().policy(), SearchPolicy::RoundRobinOnly);
    assert!(q.config().uses_locality());
    assert!(q.config().hops_on_contention());
}

/// The paper's two-phase policy runs on the extension structures (the
/// point of the unified engine): a seeded two-phase queue behaves
/// deterministically and conserves items.
#[test]
fn two_phase_policy_runs_on_the_queue() {
    let mk = || {
        Queue2D::<u64>::builder()
            .width(8)
            .depth(4)
            .shift(2)
            .search_policy(SearchPolicy::TwoPhase { random_hops: 2 })
            .seed(11)
            .build()
            .unwrap()
    };
    let (a, b) = (mk(), mk());
    let (mut ha, mut hb) = (a.handle(), b.handle());
    for i in 0..1_000 {
        ha.enqueue(i);
        hb.enqueue(i);
    }
    for _ in 0..1_000 {
        assert_eq!(ha.dequeue(), hb.dequeue(), "seeded two-phase queues must agree");
    }
    // Two-phase probes more than the plain sweep (random hops precede the
    // covering sweep), which is visible in the metrics.
    assert!(a.metrics().probes >= 2_000);
}

/// (pop-sequence hash, probes, shifts_up, shifts_down, empty_pops,
/// batched_ops, search_rounds): the batched-path fingerprint.
type BatchFingerprint = (u64, u64, u64, u64, u64, u64, u64);

/// How a batch workload calls the structure: one op per call, or `n`
/// items per `_n` call.
#[derive(Clone, Copy)]
enum Mode {
    Singular,
    Batched(usize),
}

impl Mode {
    fn chunk(self) -> usize {
        match self {
            Mode::Singular => 1,
            Mode::Batched(n) => n,
        }
    }
}

fn batch_fingerprint(acc: u64, m: stack2d::MetricsSnapshot) -> BatchFingerprint {
    (acc, m.probes, m.shifts_up, m.shifts_down, m.empty_pops, m.batched_ops, m.search_rounds)
}

/// The stack churn of [`stack_fingerprint`], run in chunks of `n`:
/// every chunk is pushed with one `push_n`, every third chunk is followed
/// by one `pop_n(n)`, and the drain repeats `pop_n(n)` until it comes back
/// empty. With `n = 1` the op sequence is exactly the singular workload's.
fn stack_batch_fingerprint(cfg: SearchConfig, mode: Mode) -> BatchFingerprint {
    let stack = Stack2D::with_config(cfg);
    let mut h = stack.handle_seeded(0xA5A5);
    let n = mode.chunk();
    let mut acc = FNV_SEED;
    for c in 0..(2_000 / n) as u64 {
        let chunk: Vec<u64> = (c * n as u64..(c + 1) * n as u64).collect();
        let popped = match mode {
            Mode::Singular => {
                h.push(chunk[0]);
                if c % 3 == 0 {
                    h.pop().into_iter().collect()
                } else {
                    Vec::new()
                }
            }
            Mode::Batched(n) => {
                h.push_n(chunk);
                if c % 3 == 0 {
                    h.pop_n(n)
                } else {
                    Vec::new()
                }
            }
        };
        acc = popped.into_iter().fold(acc, fnv);
    }
    loop {
        let got: Vec<u64> = match mode {
            Mode::Singular => h.pop().into_iter().collect(),
            Mode::Batched(n) => h.pop_n(n),
        };
        if got.is_empty() {
            break;
        }
        acc = got.into_iter().fold(acc, fnv);
    }
    batch_fingerprint(acc, stack.metrics())
}

/// The queue twin of [`stack_batch_fingerprint`].
fn queue_batch_fingerprint(params: Params, mode: Mode) -> BatchFingerprint {
    let queue = Queue2D::new(params);
    let mut h = queue.handle_seeded(0xA5A5);
    let n = mode.chunk();
    let mut acc = FNV_SEED;
    for c in 0..(2_000 / n) as u64 {
        let chunk: Vec<u64> = (c * n as u64..(c + 1) * n as u64).collect();
        let got = match mode {
            Mode::Singular => {
                h.enqueue(chunk[0]);
                if c % 3 == 0 {
                    h.dequeue().into_iter().collect()
                } else {
                    Vec::new()
                }
            }
            Mode::Batched(n) => {
                h.enqueue_n(chunk);
                if c % 3 == 0 {
                    h.dequeue_n(n)
                } else {
                    Vec::new()
                }
            }
        };
        acc = got.into_iter().fold(acc, fnv);
    }
    loop {
        let got: Vec<u64> = match mode {
            Mode::Singular => h.dequeue().into_iter().collect(),
            Mode::Batched(n) => h.dequeue_n(n),
        };
        if got.is_empty() {
            break;
        }
        acc = got.into_iter().fold(acc, fnv);
    }
    batch_fingerprint(acc, queue.metrics())
}

/// 2 000 increments, as one `add_n(n)` per chunk (the hash slot carries
/// the final value).
fn counter_batch_fingerprint(params: Params, mode: Mode) -> BatchFingerprint {
    let counter = Counter2D::new(params);
    let mut h = counter.handle_seeded(0xA5A5);
    for _ in 0..2_000 / mode.chunk() {
        match mode {
            Mode::Singular => h.increment(),
            Mode::Batched(n) => h.add_n(n),
        }
    }
    batch_fingerprint(counter.value() as u64, counter.metrics())
}

/// The batch sizes whose fingerprints are pinned.
const BATCH_SIZES: [usize; 2] = [1, 8];

/// Golden batched-path fingerprints, `(case, n, fingerprint)`, captured
/// from the two-loop engine (separate singular and batched search loops)
/// before the two were merged into one.
const STACK_BATCH_GOLDEN: [(&str, usize, BatchFingerprint); 4] = [
    ("default-w8d4s2", 1, (8592145364936136807, 8256, 82, 82, 1, 4001, 4001)),
    ("default-w8d4s2", 8, (4786466147219562789, 9549, 82, 82, 1, 4001, 501)),
    ("default-w4d1s1", 1, (2250523617872151793, 11605, 333, 333, 1, 4001, 4001)),
    ("default-w4d1s1", 8, (14235063488248974041, 14376, 416, 416, 1, 4001, 501)),
];

/// Queue batched-path goldens for `p(4, 2, 1)` and `p(8, 4, 2)` at each
/// batch size, in that order.
const QUEUE_BATCH_GOLDEN: [(usize, BatchFingerprint); 4] = [
    (1, (7771951924129503285, 10982, 498, 498, 1, 4001, 4001)),
    (8, (7771951924129503285, 14468, 498, 498, 1, 4001, 501)),
    (1, (7771951924129503285, 7712, 123, 123, 1, 4001, 4001)),
    (8, (7771951924129503285, 9188, 123, 123, 1, 4001, 501)),
];

/// Counter batched-path goldens, same layout as the queue's.
const COUNTER_BATCH_GOLDEN: [(usize, BatchFingerprint); 4] = [
    (1, (2000, 5489, 498, 0, 0, 2000, 2000)),
    (8, (2000, 7232, 498, 0, 0, 2000, 250)),
    (1, (2000, 3852, 123, 0, 0, 2000, 2000)),
    (8, (2000, 4590, 123, 0, 0, 2000, 250)),
];

fn batch_stack_cases() -> Vec<(&'static str, SearchConfig)> {
    stack_cases().into_iter().filter(|(name, _)| name.starts_with("default-")).collect()
}

fn batch_params() -> [Params; 2] {
    [p(4, 2, 1), p(8, 4, 2)]
}

#[test]
fn batched_stack_ops_match_goldens() {
    for (name, cfg) in batch_stack_cases() {
        for n in BATCH_SIZES {
            let got = stack_batch_fingerprint(cfg, Mode::Batched(n));
            let (_, _, want) = STACK_BATCH_GOLDEN
                .iter()
                .find(|(g, gn, _)| *g == name && *gn == n)
                .expect("golden entry");
            assert_eq!(&got, want, "stack {name} push_n/pop_n({n}) diverged");
        }
    }
}

#[test]
fn batched_queue_ops_match_goldens() {
    let cases = batch_params().into_iter().flat_map(|p| BATCH_SIZES.map(|n| (p, n)));
    for ((params, n), (gn, want)) in cases.zip(QUEUE_BATCH_GOLDEN) {
        assert_eq!(n, gn);
        let got = queue_batch_fingerprint(params, Mode::Batched(n));
        assert_eq!(got, want, "queue {params:?} enqueue_n/dequeue_n({n}) diverged");
    }
}

#[test]
fn batched_counter_ops_match_goldens() {
    let cases = batch_params().into_iter().flat_map(|p| BATCH_SIZES.map(|n| (p, n)));
    for ((params, n), (gn, want)) in cases.zip(COUNTER_BATCH_GOLDEN) {
        assert_eq!(n, gn);
        let got = counter_batch_fingerprint(params, Mode::Batched(n));
        assert_eq!(got, want, "counter {params:?} add_n({n}) diverged");
    }
}

/// A batch of one is the singular op: same cells, same RNG draws, same
/// counters — except `batched_ops`, which only the `_n` calls count
/// (DESIGN.md §14).
#[test]
fn batch_of_one_is_the_singular_op() {
    let same = |single: BatchFingerprint, batch: BatchFingerprint, what: &str| {
        assert_eq!(single.5, 0, "{what}: singular ops count no batched ops");
        assert_eq!(batch.5, batch.6, "{what}: every n=1 call is one batched op");
        assert_eq!((single.0, single.1, single.2, single.3, single.4, single.6), {
            let b = batch;
            (b.0, b.1, b.2, b.3, b.4, b.6)
        });
    };
    for (name, cfg) in stack_cases() {
        same(
            stack_batch_fingerprint(cfg, Mode::Singular),
            stack_batch_fingerprint(cfg, Mode::Batched(1)),
            name,
        );
        // The singular batch workload is the golden workload above.
        let (h, probes, up, down, empty, _, _) = stack_batch_fingerprint(cfg, Mode::Singular);
        assert_eq!((h, probes, up, down, empty), stack_fingerprint(cfg), "{name}");
    }
    for params in batch_params() {
        same(
            queue_batch_fingerprint(params, Mode::Singular),
            queue_batch_fingerprint(params, Mode::Batched(1)),
            "queue",
        );
        same(
            counter_batch_fingerprint(params, Mode::Singular),
            counter_batch_fingerprint(params, Mode::Batched(1)),
            "counter",
        );
    }
}

/// Regenerates the golden tables (run with `-- --ignored --nocapture`).
#[test]
#[ignore = "golden generator, not a check"]
fn print_goldens() {
    println!("const STACK_GOLDEN: [(&str, Fingerprint); 8] = [");
    for (name, cfg) in stack_cases() {
        println!("    ({name:?}, {:?}),", stack_fingerprint(cfg));
    }
    println!("];");
    println!("const QUEUE_GOLDEN: [Fingerprint; 2] = [");
    for params in [p(4, 2, 1), p(8, 4, 2)] {
        println!("    {:?},", queue_fingerprint(params));
    }
    println!("];");
    println!("const COUNTER_GOLDEN: [Fingerprint; 2] = [");
    for params in [p(4, 2, 1), p(8, 4, 2)] {
        println!("    {:?},", counter_fingerprint(params));
    }
    println!("];");
    println!("const STACK_BATCH_GOLDEN: [(&str, usize, BatchFingerprint); 4] = [");
    for (name, cfg) in batch_stack_cases() {
        for n in BATCH_SIZES {
            println!("    ({name:?}, {n}, {:?}),", stack_batch_fingerprint(cfg, Mode::Batched(n)));
        }
    }
    println!("];");
    println!("const QUEUE_BATCH_GOLDEN: [(usize, BatchFingerprint); 4] = [");
    for params in batch_params() {
        for n in BATCH_SIZES {
            println!("    ({n}, {:?}),", queue_batch_fingerprint(params, Mode::Batched(n)));
        }
    }
    println!("];");
    println!("const COUNTER_BATCH_GOLDEN: [(usize, BatchFingerprint); 4] = [");
    for params in batch_params() {
        for n in BATCH_SIZES {
            println!("    ({n}, {:?}),", counter_batch_fingerprint(params, Mode::Batched(n)));
        }
    }
    println!("];");
}
