//! The relaxation/throughput dial, hands-on: sweep the k budget on this
//! machine and print both sides of the trade — a miniature, single-config
//! version of the paper's Figure 1.
//!
//! ```text
//! cargo run --release --example relaxation_tuning
//! ```

use std::time::Duration;

use stack2d::{Params, Stack2D};
use stack2d_harness::{fmt_ops, Table};
use stack2d_harness::{run_quality, QualityConfig};
use stack2d_quality::MeasuredStack;
use stack2d_workload::{run_throughput, OpMix, RunConfig};

fn main() {
    let threads = 4;
    let budgets = [0usize, 9, 81, 729, 6_561];

    let mut table = Table::new(["k budget", "params", "throughput", "mean err", "max err"]);

    for &k in &budgets {
        // The thread-capped budget preset (Figure 1's configuration
        // mapping), fed through the unified builder.
        let stack: Stack2D<u64> =
            Stack2D::builder().params(Params::for_k(k, threads)).build().expect("preset is valid");
        let params = stack.params().to_string();
        let run = run_throughput(
            &stack,
            &RunConfig {
                threads,
                duration: Duration::from_millis(150),
                mix: OpMix::symmetric(),
                prefill: 4_096,
                seed: 7,
                think_work: 0,
            },
        );
        // Fresh instance for the quality pass (the oracle serializes ops);
        // seeded so the measured run is reproducible.
        let stack = Stack2D::builder()
            .params(Params::for_k(k, threads))
            .seed(11)
            .build()
            .expect("preset is valid");
        let quality = run_quality(
            &MeasuredStack::new(&stack),
            &QualityConfig {
                threads,
                ops_per_thread: 10_000,
                mix: OpMix::symmetric(),
                prefill: 4_096,
                seed: 11,
            },
        );
        table.push_row([
            k.to_string(),
            params,
            fmt_ops(run.throughput()),
            format!("{:.2}", quality.mean()),
            quality.max().to_string(),
        ]);
    }

    println!("2D-stack relaxation dial ({threads} threads, symmetric mix):\n");
    println!("{}", table.to_text());
    println!("reading guide: throughput should rise with k while the error");
    println!("distance stays well under the Theorem 1 bound; k=0 is a strict");
    println!("(Treiber-equivalent) stack.");
}
