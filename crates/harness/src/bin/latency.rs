//! Supplementary latency experiment: per-operation latency percentiles for
//! every algorithm (push and pop separately).
//!
//! ```text
//! STACK2D_THREADS=4 cargo run --release -p stack2d-harness --bin latency
//! ```

use stack2d_harness::latency::{run_latency, to_table, LatencySpec};
use stack2d_harness::{write_csv, Algorithm, AnyRelaxed, BuildSpec, StructureKind};

fn main() {
    let threads: usize =
        std::env::var("STACK2D_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);
    let ops: usize =
        std::env::var("STACK2D_QUALITY_OPS").ok().and_then(|v| v.parse().ok()).unwrap_or(50_000);
    let spec = LatencySpec { threads, ops_per_thread: ops / threads.max(1), ..Default::default() };
    eprintln!("latency: P={threads}, {} timed ops/thread", spec.ops_per_thread);
    let mut rows = Vec::new();
    for algo in Algorithm::ALL {
        let stack =
            AnyRelaxed::build(StructureKind::Stack(algo), BuildSpec::high_throughput(threads));
        rows.push((algo.name().to_string(), run_latency(&stack, &spec)));
    }
    let table = to_table(&rows);
    println!("{}", table.to_text());
    match write_csv("latency.csv", &table) {
        Ok(path) => eprintln!("csv written to {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
}
