//! The benchmark binary; `run.py` builds and invokes it.
//!
//! ```text
//! perfbench --workload <main-trace|nat-device|fleet-resume> --seed N
//!           --seconds S --trace <0|1> --scratch DIR
//! ```
//!
//! Prints one line per metric for people, then the result as one JSON
//! object on the last line.

use perfbench::fleet_resume::{self, FleetResume};
use perfbench::main_trace::{self, MainTrace};
use perfbench::metrics::{result_json, END_TO_END, PER_LAYER};
use perfbench::nat_device::{self, NatDeviceWorkload};
use perfbench::{run, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "main-trace" => Box::new(MainTrace::new(
            args.seed,
            main_trace::SEEDS_PER_ROUND,
            main_trace::HOURS,
        )),
        "nat-device" => Box::new(NatDeviceWorkload::new(
            args.seed,
            nat_device::SEEDS_PER_ROUND,
        )),
        "fleet-resume" => Box::new(FleetResume::new(
            args.seed,
            fleet_resume::SERVERS,
            fleet_resume::MINUTES,
            &args.scratch,
        )),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(workload.as_mut(), args.seconds, args.trace);
    for reason in &outcome.checks.reasons {
        eprintln!("perfbench: check failed: {reason}");
    }
    let mut correct = outcome.checks.failed == 0;
    for (i, r) in outcome.traced.iter().enumerate() {
        if r.self_s_sum > r.busy_capacity_s {
            eprintln!(
                "perfbench: traced round {i}: layer self times {:.6} s exceed {:.6} s",
                r.self_s_sum, r.busy_capacity_s
            );
            correct = false;
        }
    }
    if !args.trace {
        print!("{}", outcome.diagnostics.render_lines(&args.workload));
    }
    print!("{}", outcome.metrics.render_lines(&args.workload));
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    match result_json(
        correct,
        outcome.checks.attempted,
        outcome.checks.failed,
        &outcome.metrics,
        declared,
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
