//! `svcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one per line with units, then
//! a JSON summary as the last line. Exits 1 if any answer was wrong and 2
//! on a usage or set-up error (printing no summary).

use std::process::ExitCode;

use svcbench::bench::{self, Inputs, Report};
use svcbench::gen::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print(args: &Args, report: &Report) {
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "{} seed={} ({mode}): {} attempted, {} failed; machine ran at {:.3}× nominal time",
        args.workload.name(),
        args.seed,
        report.attempted,
        report.failed,
        report.speed
    );
    for m in &report.metrics {
        println!("  {:<38} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", report.json());
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: svcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::new(args.workload, args.seed);
    let report = if args.trace {
        let spans = bench::spans_path(args.workload, args.seed);
        bench::run_traced(args.workload, &inputs, args.seconds, &spans)
    } else {
        bench::run_untraced(args.workload, &inputs, args.seconds)
    };
    match report {
        Ok(report) => {
            print(&args, &report);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
