//! robustness_check — runs every mechanism under the full correctness
//! harness: the shadow-memory functional checker plus the online invariant
//! sanitizer.
//!
//! Two modes:
//!
//! * **Clean** (default): all nine mechanisms of Table 2, each on a
//!   write-heavy and a read-heavy benchmark. Everything must verify; the
//!   per-unit verdicts are written to `results/robustness_check.txt` and
//!   the binary exits nonzero on any violation, lost write, or
//!   quarantined unit, as the runner counts them.
//! * **Fault-injected** (`--fault CLASS`): only the mechanisms that
//!   exercise that class run, and the expectation inverts — the injected
//!   fault *must* be detected, so CI asserts a nonzero exit and a
//!   violation report. A fault the harness cannot see would otherwise
//!   rot silently.

use dbi_bench::{config_for, BenchArgs, RunUnit, Runner};
use system_sim::{FaultClass, Mechanism, MixResult};
use trace_gen::Benchmark;

/// The mechanisms on which a fault class is observable (e.g. only VWQ has
/// an SSV to go stale); keeps the CI fault smoke minutes, not hours.
fn fault_targets(class: FaultClass) -> Vec<Mechanism> {
    match class {
        FaultClass::DropWriteback => vec![
            Mechanism::Baseline,
            Mechanism::Dbi {
                awb: true,
                clb: true,
            },
        ],
        FaultClass::FlipDbiBit | FaultClass::SkipDrain => vec![Mechanism::Dbi {
            awb: false,
            clb: false,
        }],
        FaultClass::StaleSsv => vec![Mechanism::Vwq],
    }
}

/// One unit's verdict line.
fn verdict(unit: &RunUnit, result: Option<&MixResult>) -> String {
    let mech = unit.config.mechanism.label();
    let bench = unit.mix.benchmarks()[0].label();
    let Some(result) = result else {
        return format!("{mech:12} {bench:10} QUARANTINED");
    };
    let check = match &result.check {
        Some(Ok(())) => "pass".to_string(),
        Some(Err(lost)) => format!("FAIL({} lost writes)", lost.len()),
        None => "off".to_string(),
    };
    let report = result.sanitizer.as_ref().expect("sanitizer forced on");
    let sanitizer = if report.is_clean() {
        format!("pass({} scans)", report.scans)
    } else {
        format!("FAIL({} violations)", report.total_violations)
    };
    let fault = report.fault.map_or("none".to_string(), |f| {
        format!("{}@{:#x}", f.class, f.target)
    });
    let mut line =
        format!("{mech:12} {bench:10} check={check} sanitizer={sanitizer} fault={fault}");
    if !report.is_clean() {
        for violation in &report.violations {
            line.push_str(&format!("\n    violation: {violation}"));
        }
    }
    line
}

fn main() {
    let mut args = BenchArgs::parse();
    // This binary *is* the correctness suite: both checkers are always on.
    args.check = true;
    let runner = Runner::new("robustness_check", &args);

    let (mechanisms, benchmarks) = match args.fault {
        None => (
            Mechanism::ALL.to_vec(),
            vec![Benchmark::Lbm, Benchmark::Mcf],
        ),
        Some(class) => (fault_targets(class), vec![Benchmark::Lbm]),
    };
    let units: Vec<RunUnit> = mechanisms
        .iter()
        .flat_map(|&mech| {
            benchmarks
                .iter()
                .map(move |&b| RunUnit::alone(b, config_for(1, mech, args.effort)))
        })
        .collect();

    let (results, failures) = runner.try_run_units("robustness", &units);
    let lines: Vec<String> = units
        .iter()
        .zip(&results)
        .map(|(unit, result)| verdict(unit, result.as_ref()))
        .collect();
    let header = format!(
        "robustness_check: {} units, checker + sanitizer on every mechanism",
        units.len()
    );
    let body = format!("{header}\n{}\n", lines.join("\n"));
    print!("{body}");

    if args.fault.is_none() {
        let dir = args.results_dir();
        let path = dir.join("robustness_check.txt");
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body.as_bytes()))
        {
            eprintln!("robustness_check: could not write {}: {e}", path.display());
        } else {
            eprintln!("robustness_check: wrote {}", path.display());
        }
    }

    runner.finish();
    // The runner counts every lost write and sanitizer violation of the
    // units it simulated; a quarantined unit verified nothing.
    let violations = runner.violations();
    if violations > 0 || !failures.is_empty() {
        eprintln!(
            "robustness_check: {violations} lost writes or violations, {} quarantined unit(s)",
            failures.len()
        );
        std::process::exit(1);
    }
}
