//! Open-loop load generator binary for the relaxed2d server.
//!
//! ```text
//! server_load [--addr HOST:PORT] [--conns N] [--tenants N] [--depth N]
//!             [--frames N (default 2000)] [--zipf S] [--rate F/S]
//!             [--seed N] [--batch N] [--shutdown]
//! ```
//!
//! Without `--addr` an in-process server is spawned on an ephemeral port
//! (handy for a one-command demo). Results land in `server_load.csv`
//! under `STACK2D_OUT_DIR` with one row per personality; `--shutdown`
//! sends the protocol shutdown request at the end, which is how the CI
//! smoke job asks the external server process to exit 0.

use std::process::ExitCode;
use std::time::Duration;

use relaxed2d_server::{Server, ServerConfig, TenantConfig};
use stack2d_harness::server_load::{run_load, shutdown_server, to_table, LoadSpec};
use stack2d_harness::write_csv;

fn usage() -> ! {
    eprintln!(
        "usage: server_load [--addr HOST:PORT] [--conns N] [--tenants N] [--depth N] \
         [--frames N (default 2000)] [--zipf S] [--rate F/S] [--seed N] [--batch N] \
         [--shutdown]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("bad or missing value for {flag}");
            usage();
        }
    }
}

fn main() -> ExitCode {
    let mut spec = LoadSpec::default();
    let mut external_addr = None;
    let mut shutdown = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => external_addr = Some(parse::<String>("--addr", args.next())),
            "--conns" => spec.conns = parse("--conns", args.next()),
            "--tenants" => spec.tenants = parse("--tenants", args.next()),
            "--depth" => spec.depth = parse("--depth", args.next()),
            "--frames" => spec.frames = parse("--frames", args.next()),
            "--zipf" => spec.zipf = parse("--zipf", args.next()),
            "--rate" => spec.rate = parse("--rate", args.next()),
            "--seed" => spec.seed = parse("--seed", args.next()),
            "--batch" => spec.batch = parse("--batch", args.next()),
            "--shutdown" => shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    // No --addr: run against a private in-process server.
    let local = if external_addr.is_none() {
        match Server::spawn(ServerConfig {
            tenants: TenantConfig { cadence: Duration::from_millis(1), ..TenantConfig::default() },
            ..ServerConfig::default()
        }) {
            Ok(handle) => {
                spec.addr = handle.local_addr().to_string();
                eprintln!("spawned in-process server on {}", spec.addr);
                Some(handle)
            }
            Err(e) => {
                eprintln!("in-process server spawn failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        spec.addr = external_addr.unwrap_or_default();
        None
    };

    eprintln!(
        "server_load: addr={} conns={}/personality tenants={} depth={} frames={} zipf={} \
         rate={} batch={}",
        spec.addr,
        spec.conns,
        spec.tenants,
        spec.depth,
        spec.frames,
        spec.zipf,
        spec.rate,
        spec.batch
    );
    let results = match run_load(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("load run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = to_table(&spec, &results);
    println!("{}", table.to_text());
    match write_csv("server_load.csv", &table) {
        Ok(path) => eprintln!("csv written to {}", path.display()),
        Err(e) => {
            eprintln!("csv write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if shutdown {
        if let Err(e) = shutdown_server(&spec.addr) {
            eprintln!("shutdown request failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("shutdown requested");
    }
    if let Some(handle) = local {
        if let Err(e) = handle.shutdown() {
            eprintln!("local server drain failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
