//! `skynet-perf` — one seeded end-to-end benchmark for the alert-ingest
//! service: four workloads, the end-to-end metrics a user of the service
//! would see, and a traced run that splits them by layer. See `README.md`.
//!
//! ```text
//! skynet-perf --workload W --seed N --seconds S --trace 0|1   the driver's form (BENCHMARK.json)
//! skynet-perf run   [--seed N] [--seconds S] [--quick]        every workload, every metric by name
//! skynet-perf trace [--seed N] [--seconds S] [--quick]        the same with spans and the per-layer table
//! skynet-perf check [--seeds 1,2] [--runs K] [--seconds S]    two sets of runs against the bounds
//! skynet-perf pins  [--seeds 1,2]                             digests in the shape of pins.json
//! ```

mod alloc;
mod client;
mod digest;
mod env;
mod inputs;
mod legs;
mod report;
mod span;
mod stats;
mod suite;

use report::LegOpts;
use std::path::PathBuf;
use suite::{Places, RunOpts};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// `--name value` pairs and bare `--flags`, after the verb.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name} does not take {text:?}")),
            None => Ok(default),
        }
    }

    fn places(&self) -> Places {
        let mut places = Places::default();
        if let Some(dir) = self.value("--out-dir") {
            places.out_dir = PathBuf::from(dir);
            places.wal_root = places.out_dir.join("wal");
        }
        if let Some(dir) = self.value("--wal-root") {
            places.wal_root = PathBuf::from(dir);
        }
        places
    }
}

const USAGE: &str = "usage:
  skynet-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
  skynet-perf run   [--seed <n>] [--seconds <s>] [--quick] [--json <file>]
  skynet-perf trace [--seed <n>] [--seconds <s>] [--quick] [--json <file>]
  skynet-perf check [--seeds <a,b,..>] [--runs <k>] [--seconds <s>] [--json <file>]
  skynet-perf pins  [--seeds <a,b,..>]      (prints a new pins.json)
common: [--wal-root <dir>] [--out-dir <dir>]";

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let verb = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => "driver".to_string(),
    };
    let args = Args(argv);
    match dispatch(&verb, &args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("skynet-perf: {message}");
            std::process::exit(2);
        }
    }
}

/// `--seeds a,b,..`; seeds 1 and 2 (the pinned ones) when absent.
fn seeds(args: &Args) -> Result<Vec<u64>, String> {
    args.value("--seeds")
        .unwrap_or("1,2")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad seed {s:?}")))
        .collect()
}

/// `Ok(false)` is a run that finished and found something wrong.
fn dispatch(verb: &str, args: &Args) -> Result<bool, String> {
    let places = args.places();
    std::fs::create_dir_all(&places.wal_root)
        .map_err(|e| format!("creating {}: {e}", places.wal_root.display()))?;
    let json_out = args.value("--json").map(PathBuf::from);
    match verb {
        "driver" => {
            let workload = args.value("--workload").ok_or(USAGE)?;
            let opts = RunOpts {
                seed: args.parsed("--seed", 1)?,
                trace: args.parsed::<u8>("--trace", 0)? != 0,
                quick: false,
                places,
            };
            let run_seconds = suite::Benchmark::load()?.run_seconds as f64;
            suite::driver(
                workload,
                args.parsed("--seconds", run_seconds)?,
                &opts,
                json_out.as_ref(),
            )?;
            Ok(true)
        }
        "run" | "trace" => {
            let opts = RunOpts {
                seed: args.parsed("--seed", 1)?,
                trace: verb == "trace",
                quick: args.flag("--quick"),
                places,
            };
            let run_seconds = suite::Benchmark::load()?.run_seconds as f64;
            suite::run_and_print(
                &opts,
                args.parsed("--seconds", run_seconds)?,
                json_out.as_ref(),
            )
        }
        "check" => {
            let seeds = seeds(args)?;
            let run_seconds = suite::Benchmark::load()?.run_seconds as f64;
            suite::check(
                &seeds,
                args.parsed("--runs", 3)?,
                args.parsed("--seconds", run_seconds)?,
                &places,
                json_out.as_ref(),
            )
        }
        "pins" => suite::print_pins(&seeds(args)?, &places),
        // One workload, in this process: what the other verbs start as
        // children and give turns to over standard input. Prints its report
        // as the last line of standard output.
        "leg" => {
            let opts = LegOpts {
                workload: args.value("--workload").ok_or(USAGE)?.to_string(),
                seed: args.parsed("--seed", 1)?,
                trace: args.parsed::<u8>("--trace", 0)? != 0,
                quick: args.flag("--quick"),
                wal_root: places.wal_root,
                out_dir: places.out_dir,
            };
            let report = legs::run(&opts)?;
            println!(
                "{}",
                serde_json::to_string(&report).map_err(|e| format!("report: {e}"))?
            );
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}
