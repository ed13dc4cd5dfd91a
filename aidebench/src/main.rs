//! `aidebench`: the end-to-end and per-layer benchmark of the AIDE
//! server. See `README.md` beside this package for the workloads and
//! metrics.
//!
//! ```text
//! aidebench drive --workload W --seed N --seconds S [--tiny] [--poison-digest]
//! aidebench trace --workload W --seed N --seconds S [--tiny]
//! aidebench serve <fixture spec…> <store dir>
//! ```
//!
//! `drive` and `trace` print a human-readable summary and, as the last
//! line, one JSON object with the metrics. `serve` is the server
//! process `drive` spawns.

mod client;
mod drive;
mod fixture;
mod report;
mod server;
mod spec;
mod trace;
mod verify;

use spec::{FixtureSpec, Plan, Workload};
use std::path::PathBuf;

/// Scratch space, inside the directory the benchmark runs from.
const SCRATCH: &str = ".bench_scratch";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    tiny: bool,
    poison: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut tiny = false;
    let mut poison = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--tiny" => tiny = true,
            "--poison-digest" => poison = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        tiny,
        poison,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.split_first() {
        Some((cmd, rest)) if cmd == "serve" => match rest.split_last() {
            Some((store, spec)) => match FixtureSpec::from_args(spec) {
                Some(spec) => report_err(server::run(&spec, &PathBuf::from(store))),
                None => report_err(Err("bad fixture spec".to_string())),
            },
            None => report_err(Err("serve needs a fixture spec".to_string())),
        },
        Some((cmd, rest)) if cmd == "drive" || cmd == "trace" => match parse_args(rest) {
            Ok(args) => report_err(run(cmd == "trace", &args)),
            Err(e) => report_err(Err(e)),
        },
        _ => report_err(Err(
            "usage: aidebench drive|trace --workload W --seed N --seconds S".to_string(),
        )),
    };
    std::process::exit(code);
}

fn report_err(r: Result<(), String>) -> i32 {
    match r {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("aidebench: {e}");
            1
        }
    }
}

fn run(traced: bool, args: &Args) -> Result<(), String> {
    let spec = FixtureSpec::new(args.workload, args.seed, args.tiny);
    let plan = Plan::new(&spec, args.seed, args.seconds, args.tiny);
    let scratch = PathBuf::from(SCRATCH).join(args.workload.name());
    std::fs::create_dir_all(&scratch).map_err(|e| format!("scratch: {e}"))?;
    let line = if traced {
        let r = trace::run(&spec, &plan, &scratch)?;
        report::json_line(r.failed == 0, r.attempted, r.failed, &r.metrics)
    } else {
        let r = drive::run(&drive::DriveOpts {
            spec,
            plan,
            scratch,
            tiny: args.tiny,
            poison: args.poison,
        })?;
        report::json_line(r.correct, r.attempted, r.failed, &r.metrics)
    };
    println!("{line}");
    Ok(())
}
