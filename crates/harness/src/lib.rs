//! # stack2d-harness — regenerating every figure of the 2D-Stack paper
//!
//! The brief announcement's evaluation (§4) consists of two figures; this
//! crate contains the code that regenerates both, plus the ablation and
//! asymmetry experiments that back the paper's design claims. Each
//! experiment is a library module with a matching binary:
//!
//! | experiment | module | binary | paper artefact |
//! |------------|--------|--------|----------------|
//! | relaxation sweep | [`fig1`] | `cargo run --release -p stack2d-harness --bin fig1` | Figure 1 |
//! | scalability sweep | [`fig2`] | `… --bin fig2` | Figure 2 |
//! | queue/counter sweep | [`fig3`] | `… --bin fig3` | §5 extensions (registry figures) |
//! | mechanism & dimension ablations | [`ablation`] | `… --bin ablation` | §3–4 design claims (all three structures) |
//! | asymmetric mixes | [`asymmetry`] | `… --bin asymmetry` | §2 elimination claim |
//! | static vs elastic retuning | [`elastic`] | `… --bin elastic` | the title's "continuously relaxes" |
//! | networked service load | [`server_load`] | `… --bin server_load` | §5 extensions (relaxed2d-server) |
//!
//! Scale is controlled by `STACK2D_*` environment variables (see
//! [`experiment::Settings`]); defaults are CI-sized, paper-scale values are
//! documented per variable. Binaries print aligned text tables and write
//! CSV files (`target/stack2d-results/*.csv` by default, override with
//! `STACK2D_OUT_DIR`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod algorithms;
pub mod asymmetry;
pub mod elastic;
pub mod experiment;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod latency;
pub mod quality_run;
pub mod report;
pub mod server_load;
pub mod telemetry;
pub mod tuning;

pub use algorithms::{
    AblationVariant, Algorithm, AnyRelaxed, AnyRelaxedHandle, BuildSpec, StructureKind,
};
pub use experiment::{measure, measure_relaxed, measure_stack, DataPoint, Settings};
pub use quality_run::{run_quality, QualityConfig};
pub use report::{fmt_ops, Table};
pub use telemetry::TelemetrySession;

use std::path::PathBuf;

/// Directory where binaries drop CSV results (`STACK2D_OUT_DIR`, default
/// `target/stack2d-results`).
pub fn out_dir() -> PathBuf {
    std::env::var_os("STACK2D_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/stack2d-results"))
}

/// Writes a table as CSV into [`out_dir`], creating it if needed; returns
/// the written path.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or the write.
pub fn write_csv(name: &str, table: &Table) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_csv_round_trips() {
        let tmp = std::env::temp_dir().join("stack2d-harness-test-out");
        std::env::set_var("STACK2D_OUT_DIR", &tmp);
        let mut t = Table::new(["a"]);
        t.push_row(["1"]);
        let path = write_csv("unit.csv", &t).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "a\n1\n");
        std::env::remove_var("STACK2D_OUT_DIR");
        let _ = std::fs::remove_dir_all(tmp);
    }
}
