//! Runs the complete experiment suite — Figures 1–3, the ablations (on
//! all three structures), the asymmetry sweep and the latency table — and
//! writes every CSV, regenerating all data behind EXPERIMENTS.md in one
//! command.
//!
//! ```text
//! # CI-sized
//! cargo run --release -p stack2d-harness --bin all
//! # paper-sized
//! STACK2D_DURATION_MS=5000 STACK2D_REPEATS=5 STACK2D_PREFILL=32768 \
//! STACK2D_MAX_THREADS=16 STACK2D_THREADS=8 cargo run --release -p stack2d-harness --bin all
//! ```

use stack2d_harness::latency::{run_latency, LatencySpec};
use stack2d_harness::{
    ablation, asymmetry, fig1, fig2, fig3, latency, write_csv, Algorithm, AnyRelaxed, BuildSpec,
    Settings, StructureKind,
};

fn main() {
    let settings = Settings::from_env();
    let threads: usize =
        std::env::var("STACK2D_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);

    eprintln!("== figure 1 (relaxation sweep, P={threads}) ==");
    let f1 = fig1::run(&fig1::Fig1Spec::new(threads), &settings);
    let t = fig1::to_table(&f1);
    println!("figure 1\n{}", t.to_text());
    let _ = write_csv(&format!("fig1_p{threads}.csv"), &t);

    eprintln!("== figure 2 (scalability sweep) ==");
    let f2 = fig2::run(&fig2::Fig2Spec::new(settings.max_threads), &settings);
    let t = fig2::to_table(&f2);
    println!("figure 2\n{}", t.to_text());
    let _ = write_csv("fig2.csv", &t);

    eprintln!("== figure 3 (queue/counter extension sweep) ==");
    let spec3 = fig3::Fig3Spec::new(threads, settings.max_threads);
    let t = fig3::throughput_table(&fig3::run_throughput(&spec3, &settings));
    println!("figure 3a (structure scalability)\n{}", t.to_text());
    let _ = write_csv("fig3_throughput.csv", &t);
    let t = fig3::queue_quality_table(&fig3::run_queue_quality(&spec3, &settings));
    println!("figure 3b (queue overtake quality)\n{}", t.to_text());
    let _ = write_csv("fig3_queue_quality.csv", &t);
    let t = fig3::counter_quality_table(&fig3::run_counter_quality(&spec3, &settings));
    println!("figure 3c (counter spread/exactness)\n{}", t.to_text());
    let _ = write_csv("fig3_counter_quality.csv", &t);

    eprintln!("== ablations ==");
    let spec = ablation::AblationSpec::new(threads);
    let mech = ablation::run_mechanisms(&spec, &settings);
    let t = ablation::to_table(&mech);
    println!("mechanism ablation\n{}", t.to_text());
    let _ = write_csv("ablation_mechanisms.csv", &t);
    let t = ablation::run_mechanism_metrics(&spec, 20_000);
    println!("mechanism event rates\n{}", t.to_text());
    let _ = write_csv("ablation_metrics.csv", &t);
    let t = ablation::to_table(&ablation::run_queue_mechanisms(&spec, &settings));
    println!("queue mechanism ablation\n{}", t.to_text());
    let _ = write_csv("ablation_queue.csv", &t);
    let t = ablation::to_table(&ablation::run_counter_mechanisms(&spec, &settings));
    println!("counter mechanism ablation\n{}", t.to_text());
    let _ = write_csv("ablation_counter.csv", &t);
    let dims = ablation::run_dimension_split(12 * (4 * threads - 1), threads, &settings);
    let t = ablation::to_table(&dims);
    println!("dimension split\n{}", t.to_text());
    let _ = write_csv("ablation_dimensions.csv", &t);

    eprintln!("== asymmetry ==");
    let pts = asymmetry::run(&asymmetry::AsymmetrySpec::new(threads), &settings);
    let t = asymmetry::to_table(&pts);
    println!("asymmetry\n{}", t.to_text());
    let _ = write_csv("asymmetry.csv", &t);

    eprintln!("== latency ==");
    let spec = LatencySpec {
        threads,
        ops_per_thread: settings.quality_ops / threads.max(1),
        ..Default::default()
    };
    let mut rows = Vec::new();
    for algo in Algorithm::ALL {
        let stack =
            AnyRelaxed::build(StructureKind::Stack(algo), BuildSpec::high_throughput(threads));
        rows.push((algo.name().to_string(), run_latency(&stack, &spec)));
    }
    let t = latency::to_table(&rows);
    println!("latency\n{}", t.to_text());
    let _ = write_csv("latency.csv", &t);

    eprintln!("all results written to {}", stack2d_harness::out_dir().display());
}
