//! Emits a perf-trajectory snapshot (`BENCH_<n>.json`) for the repo root.
//!
//! The snapshot has two halves:
//!
//! * **criterion** — every `stack2d-bench` target is run via `cargo bench`
//!   and its report lines are parsed into `{id, median_ns, p95_ns, mad_ns,
//!   mean_ns, samples}` records (the vendored criterion prints exactly one
//!   such line per benchmark);
//! * **fig3_throughput** — the Figure 3 thread-scalability sweep (queue,
//!   counter, locked-queue baseline, 2D-stack reference) run in-process,
//!   recorded as ops/s per `(structure, threads)`.
//!
//! A third section, **code_lines**, counts the git-tracked `.rs` files of
//! each `crates/*` directory and of the root `src`, `tests` and `examples`
//! (`vendor/` and `perfbench/` are left out): physical lines, and code
//! lines (neither blank nor starting with `//`), so the size trend sits
//! next to the nanoseconds.
//!
//! Scale knobs are the usual `STACK2D_*` / `STACK2D_BENCH_*` environment
//! variables; `STACK2D_SNAPSHOT_ID` (default `6`) names the output file and
//! `STACK2D_SNAPSHOT_OUT` (default `.`) picks the directory. Snapshots are
//! committed so that future "faster" claims can be checked against history:
//!
//! ```text
//! cargo run --release -p stack2d-harness --bin bench_snapshot
//! ```
//!
//! Numbers are container-shaped, not lab-shaped: compare snapshots to each
//! other (same knobs, similar machines), not to the paper's absolute values.

use std::fmt::Write as _;
use std::process::Command;

use stack2d_harness::experiment::Settings;
use stack2d_harness::fig3::{self, Fig3Spec};

/// The bench targets of `crates/bench`, in manifest order.
const BENCH_TARGETS: [&str; 8] = [
    "fig1_relaxation",
    "fig2_scalability",
    "ablation_search",
    "micro_ops",
    "mem_batch",
    "elastic_adapt",
    "telemetry_overhead",
    "served_round_trip",
];

/// One parsed criterion report line.
struct BenchLine {
    id: String,
    median_ns: f64,
    p95_ns: f64,
    mad_ns: f64,
    mean_ns: f64,
    samples: usize,
}

/// Parses one vendored-criterion line:
/// `{id:<50} {median} ns/iter (p95 {p95}, MAD {mad}, mean {mean})...
/// ({iters} iters, {n} samples)`.
fn parse_line(line: &str) -> Option<BenchLine> {
    let marker = " ns/iter (p95 ";
    let at = line.find(marker)?;
    let (head, tail) = line.split_at(at);
    // `head` is "{id:<50} {median:>14.1}": the median is the last
    // whitespace-separated token, everything before it is the padded id.
    let (id_part, median_token) = head.trim_end().rsplit_once(char::is_whitespace)?;
    let median_ns: f64 = median_token.parse().ok()?;
    let id = id_part.trim().to_string();
    let tail = &tail[marker.len()..];
    let p95_ns: f64 = tail.split(',').next()?.trim().parse().ok()?;
    let mad_ns: f64 = tail.split("MAD ").nth(1)?.split(',').next()?.trim().parse().ok()?;
    let mean_ns: f64 = tail.split("mean ").nth(1)?.split(')').next()?.trim().parse().ok()?;
    let samples: usize =
        tail.rsplit_once(" samples)")?.0.rsplit_once(", ")?.1.trim().parse().ok()?;
    if id.is_empty() {
        return None;
    }
    Some(BenchLine { id, median_ns, p95_ns, mad_ns, mean_ns, samples })
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` for JSON (finite; one decimal is plenty for ns).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Physical and code lines of one area of the tree.
#[derive(Default)]
struct AreaLines {
    lines: usize,
    code: usize,
}

/// The area a tracked path counts under, or `None` outside the counted set.
fn area_of(path: &str) -> Option<String> {
    let mut parts = path.split('/');
    match (parts.next()?, parts.next()) {
        ("crates", Some(name)) => Some(format!("crates/{name}")),
        (top @ ("src" | "tests" | "examples"), Some(_)) => Some(top.to_string()),
        _ => None,
    }
}

/// Counts the git-tracked `.rs` files of the repository around the
/// working directory, per area, in area order.
fn code_lines() -> Vec<(String, AreaLines)> {
    let git = |args: &[&str]| {
        let out = Command::new("git")
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn git {args:?}: {e}"));
        assert!(out.status.success(), "git {args:?} failed");
        String::from_utf8(out.stdout).expect("git prints UTF-8 paths")
    };
    let root = git(&["rev-parse", "--show-toplevel"]).trim().to_string();
    let mut areas = std::collections::BTreeMap::<String, AreaLines>::new();
    for path in git(&["-C", &root, "ls-files", "--", "*.rs"]).lines() {
        let Some(area) = area_of(path) else { continue };
        let text = std::fs::read_to_string(format!("{root}/{path}"))
            .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let a = areas.entry(area).or_default();
        for line in text.lines() {
            a.lines += 1;
            let t = line.trim_start();
            if !t.is_empty() && !t.starts_with("//") {
                a.code += 1;
            }
        }
    }
    areas.into_iter().collect()
}

fn run_bench_target(target: &str) -> Vec<BenchLine> {
    eprintln!("bench_snapshot: running cargo bench --bench {target} ...");
    let out = Command::new("cargo")
        .args(["bench", "-p", "stack2d-bench", "--bench", target])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo bench for {target}: {e}"));
    if !out.status.success() {
        panic!("cargo bench --bench {target} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<BenchLine> = stdout.lines().filter_map(parse_line).collect();
    assert!(!lines.is_empty(), "no criterion report lines parsed from {target}");
    lines
}

fn main() {
    let id = env_usize("STACK2D_SNAPSHOT_ID", 6);
    let out_dir = std::env::var("STACK2D_SNAPSHOT_OUT").unwrap_or_else(|_| ".".into());
    let settings = Settings::from_env();
    let threads = env_usize("STACK2D_THREADS", 2);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"snapshot\": {id},");
    json.push_str(
        "  \"description\": \"Perf-trajectory snapshot: vendored-criterion medians per bench \
         target, the fig3 throughput sweep and per-area Rust line counts. Container-shaped \
         numbers; compare across snapshots, not to the paper.\",\n",
    );
    let _ = writeln!(
        json,
        "  \"scale\": {{\"bench_threads\": {}, \"bench_ops\": {}, \"bench_prefill\": {}, \
         \"duration_ms\": {}, \"repeats\": {}, \"prefill\": {}, \"max_threads\": {}, \
         \"threads\": {}}},",
        env_usize("STACK2D_BENCH_THREADS", 2),
        env_usize("STACK2D_BENCH_OPS", 4_096),
        env_usize("STACK2D_BENCH_PREFILL", 1_024),
        settings.duration_ms,
        settings.repeats,
        settings.prefill,
        settings.max_threads,
        threads,
    );

    // Half one: the criterion targets.
    json.push_str("  \"criterion\": {\n");
    for (t_idx, target) in BENCH_TARGETS.iter().enumerate() {
        let lines = run_bench_target(target);
        let _ = writeln!(json, "    \"{target}\": [");
        for (i, l) in lines.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"id\": \"{}\", \"median_ns\": {}, \"p95_ns\": {}, \"mad_ns\": {}, \
                 \"mean_ns\": {}, \"samples\": {}}}{}",
                json_escape(&l.id),
                num(l.median_ns),
                num(l.p95_ns),
                num(l.mad_ns),
                num(l.mean_ns),
                l.samples,
                if i + 1 == lines.len() { "" } else { "," },
            );
        }
        let _ = writeln!(json, "    ]{}", if t_idx + 1 == BENCH_TARGETS.len() { "" } else { "," });
    }
    json.push_str("  },\n");

    // Half two: the fig3 throughput sweep, in-process.
    eprintln!("bench_snapshot: running the fig3 throughput sweep ...");
    let spec = Fig3Spec::new(threads, settings.max_threads);
    let points = fig3::run_throughput(&spec, &settings);
    json.push_str("  \"fig3_throughput\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"structure\": \"{}\", \"threads\": {}, \"ops_per_sec\": {}}}{}",
            json_escape(&p.algo),
            p.threads,
            num(p.throughput),
            if i + 1 == points.len() { "" } else { "," },
        );
    }
    json.push_str("  ],\n");

    // Section three: tracked Rust lines per area.
    let areas = code_lines();
    let (lines, code) = areas.iter().fold((0, 0), |(l, c), (_, a)| (l + a.lines, c + a.code));
    json.push_str("  \"code_lines\": {\n    \"areas\": [\n");
    for (i, (area, a)) in areas.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"area\": \"{}\", \"lines\": {}, \"code\": {}}}{}",
            json_escape(area),
            a.lines,
            a.code,
            if i + 1 == areas.len() { "" } else { "," },
        );
    }
    let _ = writeln!(json, "    ],\n    \"total\": {{\"lines\": {lines}, \"code\": {code}}}");
    json.push_str("  }\n}\n");

    let path = format!("{out_dir}/BENCH_{id}.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("bench_snapshot: wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn areas_are_crates_and_the_root_source_dirs() {
        assert_eq!(area_of("crates/core/src/stack.rs").as_deref(), Some("crates/core"));
        assert_eq!(area_of("src/lib.rs").as_deref(), Some("src"));
        assert_eq!(area_of("tests/relaxed_ops.rs").as_deref(), Some("tests"));
        assert_eq!(area_of("examples/quickstart.rs").as_deref(), Some("examples"));
        assert_eq!(area_of("vendor/serde/src/lib.rs"), None);
        assert_eq!(area_of("perfbench/src/main.rs"), None);
        assert_eq!(area_of("build.rs"), None);
    }
}
