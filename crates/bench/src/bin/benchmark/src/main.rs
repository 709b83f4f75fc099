//! `benchmark` — the repository benchmark of the DBI reproduction.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark --write-pins [--workload NAME]
//! ```
//!
//! Runs one workload (see README.md in this directory) and prints each
//! metric as `name value unit`, then, as the last line of standard
//! output, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. Without `--trace` (or with `--trace 0`) the metrics are
//! the end-to-end ones, measured untraced; with `--trace` they are the
//! per-layer ones from the traced run. Outputs are checked; the exit
//! code is 1 when a check failed, 2 on a usage error.
//!
//! Scratch stores live under `.bench_out/` in the working directory and
//! are removed at exit; the traced run leaves its spans there as
//! `.bench_out/<workload>.spans.jsonl`.

mod alloc;
mod measure;
mod metrics;
mod pins;
mod replica;
mod spans;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "\
usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
       benchmark --write-pins [--workload NAME]
workloads: quad_write, quad_read, oct_light, campaign";

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<workload::Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_pins: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        write_pins: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds needs a non-negative number, got {v:?}"))?;
            }
            "--trace" => {
                args.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--write-pins" => args.write_pins = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && !args.write_pins {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Regenerates the pins of `selected` workloads (all when `None`) at
/// every pinned seed, keeping the other workloads' pins.
fn write_pins(selected: Option<workload::Workload>, scratch: &Path) -> Result<(), String> {
    let mut all = pins::compiled();
    for w in workload::WORKLOADS {
        if selected.is_some_and(|s| s.name != w.name) {
            continue;
        }
        for seed in pins::PINNED_SEEDS {
            let units = w.units(seed);
            let store = scratch.join("pins");
            let pass = measure::cold_pass(&w, &units, &store);
            let _ = std::fs::remove_dir_all(&store);
            let hashes = pass
                .results
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    r.as_ref()
                        .map(pins::hash)
                        .ok_or_else(|| format!("{} seed {seed}: unit {i} failed", w.name))
                })
                .collect::<Result<Vec<u64>, String>>()?;
            eprintln!(
                "benchmark: pinned {} seed {seed} ({} units)",
                w.name,
                hashes.len()
            );
            all.insert((w.name.to_string(), seed), hashes);
        }
    }
    let path = pins::path();
    std::fs::write(&path, pins::render(&all))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "benchmark: wrote {}; rebuild to compile the new pins in",
        path.display()
    );
    Ok(())
}

/// Prints the metrics named in `catalogue` as `name value unit` lines and
/// the closing JSON line.
fn report(outcome: &measure::Outcome, catalogue: &[(String, &'static str)]) -> Result<(), String> {
    let mut json = Vec::new();
    for (name, unit) in catalogue {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            return Err(format!("metric {name} has no finite value ({value})"));
        }
        println!("{name} {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let c = &outcome.checks;
    eprintln!(
        "fail_frac {} ({} failed of {} attempted)",
        stats::ratio(c.failed as f64, c.attempted as f64),
        c.failed,
        c.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0,
        c.attempted,
        c.failed,
        json.join(", ")
    );
    Ok(())
}

/// Runs what `args` asks for; `Ok(false)` when a check failed.
fn run(args: &Args, out: &Path, scratch: &Path) -> Result<bool, String> {
    let Some(w) = args.workload.filter(|_| !args.write_pins) else {
        write_pins(args.workload, scratch)?;
        return Ok(true);
    };
    let pinned = pins::compiled().remove(&(w.name.to_string(), args.seed));
    if pinned.is_none() {
        eprintln!(
            "benchmark: seed {} is not pinned (pins: seeds {:?}); checking repeatability \
             and warm reruns only",
            args.seed,
            pins::PINNED_SEEDS
        );
    }
    let (outcome, catalogue) = if args.trace {
        let spans = out.join(format!("{}.spans.jsonl", w.name));
        let o = traced::run(&w, &w.units(args.seed), scratch, &spans, pinned.as_deref())?;
        (o, metrics::per_layer())
    } else {
        let o = measure::run(
            &w,
            &w.units(args.seed),
            args.seconds,
            scratch,
            pinned.as_deref(),
        )?;
        (o, metrics::end_to_end())
    };
    report(&outcome, &catalogue)?;
    Ok(outcome.checks.failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".bench_out");
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))
        .and_then(|()| run(&args, &out, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
