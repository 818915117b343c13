//! # stack2d — the 2D-Stack
//!
//! A reproduction of **"Brief Announcement: 2D-Stack — A Scalable Lock-Free
//! Stack Design that Continuously Relaxes Semantics for Better Performance"**
//! (Rukundo, Atalar, Tsigas — PODC 2018).
//!
//! Concurrent stacks bottleneck on their single access point. The 2D-Stack
//! relaxes LIFO semantics in a *controlled* way to remove that bottleneck:
//! items live in `width` lock-free sub-stacks (disjoint access parallelism —
//! the **horizontal** dimension), and a shared window of `depth` items per
//! sub-stack (the **vertical** dimension, exploited for locality) keeps the
//! sub-stacks so close in length that a pop can only ever be `k` positions
//! out of order, with the deterministic bound of the paper's Theorem 1:
//!
//! ```text
//! k = (2 * shift + depth) * (width - 1)
//! ```
//!
//! *(Reproduction finding: for `shift < (depth-1)/2` the stated formula is
//! exceedable and the implementation guarantees
//! `(2*depth - 1)*(width - 1)` instead — see [`Params::k_bound`]; every
//! preset configuration is unaffected.)*
//!
//! ## Quick start
//!
//! ```
//! use stack2d::Stack2D;
//!
//! # fn main() -> Result<(), stack2d::ParamsError> {
//! // A stack tuned for 4 worker threads (width = 4P, paper §4), through
//! // the validated builder — the unified construction surface shared by
//! // Stack2D, Queue2D and Counter2D.
//! let stack = Stack2D::builder().for_threads(4).build()?;
//!
//! std::thread::scope(|s| {
//!     for t in 0..4 {
//!         let stack = &stack;
//!         s.spawn(move || {
//!             let mut h = stack.handle(); // per-thread handle: locality + hop RNG
//!             for i in 0..1_000 {
//!                 h.push(t * 1_000 + i);
//!             }
//!             for _ in 0..1_000 {
//!                 h.pop();
//!             }
//!         });
//!     }
//! });
//! assert!(stack.is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! ## Choosing parameters
//!
//! * [`Builder::for_threads`] — the paper's high-throughput preset
//!   (`width = 4P`, tightest window).
//! * [`Builder::for_bound`] — invert a relaxation budget `k` into the
//!   maximal-width window staying within it; [`Params::for_k`] is the
//!   thread-capped variant behind the harness registry's Figure 1
//!   configurations.
//! * [`Builder::width`] / [`Builder::depth`] / [`Builder::shift`] — full
//!   manual control, validated once at [`Builder::build`].
//!
//! ## Crate layout
//!
//! * [`builder`] / [`Builder`] — the typed, validated construction surface
//!   shared by all three windowed structures (with [`Builder::seed`] for
//!   deterministic handle sequences and [`Builder::elastic_capacity`] for
//!   retunable headroom);
//! * [`traits`] — [`RelaxedOps`]/[`OpsHandle`], the one structure-generic
//!   produce/consume contract that the workload runner, the harness, the
//!   quality oracle and the server drive, implemented by every structure
//!   and every baseline;
//! * [`stack`] / [`Stack2D`] — the 2D window algorithm;
//! * [`substack`] — the descriptor-based lock-free sub-stack (public because
//!   the paper's `random` / `random-c2` / `k-robin` baselines in
//!   `stack2d-baselines` are built from the same block);
//! * [`search`] — the two-phase search policy, its ablation variants and
//!   the structure-shared [`SearchConfig`]; the policies execute in one
//!   crate-internal window-search *engine* (`engine.rs`, DESIGN.md §9)
//!   that drives the stack's push/pop, the queue's put/get ends and the
//!   counter's increments through a per-cell probe trait;
//! * [`params`] — window parameters and the Theorem 1 bound;
//! * [`window`] — the structure-agnostic hot-swappable window descriptor
//!   behind `retune`: online ("elastic") width/depth/shift changes with
//!   per-generation relaxation bounds, shared by the stack, the queue and
//!   the counter and driven through the [`ElasticTarget`] trait by the
//!   feedback controllers in the `stack2d-adaptive` crate;
//! * [`metrics`] — contention / probe / window-shift / retune counters
//!   ([`Stack2D::metrics`](stack::Stack2D::metrics), and the same block on
//!   [`Queue2D`] and [`Counter2D`]);
//! * [`telemetry`] — the [`Recorder`] emission hooks (sampled op spans,
//!   window-shift/retune/shrink-fence and controller-decision events)
//!   behind [`Builder::recorder`](builder::Builder::recorder), plus the
//!   shared telemetry clock; the ring-buffered sink lives in the
//!   `stack2d-telemetry` crate;
//! * [`queue2d`] and [`counter2d`] — the paper's stated future work (§5):
//!   the same window design generalized to a FIFO queue and a sharded
//!   counter, both elastic since PR 3;
//! * [`rng`] — the xorshift hop RNG.
//!
//! ## Memory reclamation
//!
//! The paper updates each sub-stack's `(top, count)` pair with a 16-byte
//! compare-and-exchange. This crate realizes the same atomicity by keeping
//! the count in the list — every node carries its height — so one
//! single-word CAS on `top` moves both fields, and popped nodes are retired
//! through epoch-based reclamation (`crossbeam-epoch`), which also rules
//! out ABA on `top`; see `DESIGN.md` §3 for the full substitution argument.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod counter2d;
mod engine;
#[cfg(test)]
mod layout;
pub mod metrics;
pub mod params;
mod pool;
pub mod queue2d;
pub mod rng;
pub mod search;
pub mod stack;
pub mod substack;
pub mod sync;
pub mod telemetry;
pub mod traits;
pub mod window;

pub use builder::{Buildable, Builder};
pub use counter2d::{Counter2D, CounterHandle};
pub use metrics::MetricsSnapshot;
pub use params::{Params, ParamsError};
pub use pool::{pool_stats, PoolStats};
pub use queue2d::{Queue2D, QueueHandle};
pub use search::{SearchConfig, SearchPolicy};
pub use stack::{Handle2D, Stack2D};
pub use telemetry::{NoopRecorder, Recorder};
pub use traits::{ElasticTarget, OpsHandle, RelaxedOps};
pub use window::{RetuneError, WindowInfo};
