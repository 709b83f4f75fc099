//! The untraced run: the end-to-end metrics.
//!
//! A run sets up every unit's system several times (`setup_s`), then
//! makes cold passes over the unit list until `--seconds` have passed
//! (at least [`MIN_PASSES`]). After each cold pass it serves the whole
//! list [`WARM_PER_COLD`] times from a warm result store. Each timing is
//! the median over its passes; `peak_rss_mb` is the first cold pass's.
//! Every pass is checked: each unit must complete, match its pin when the
//! seed is pinned, repeat the first pass's result exactly, and come back
//! from the warm store identical with zero simulations.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use dbi_bench::{parallel_map_jobs, unit_key, BenchArgs, ResultStore, RunUnit, Runner};
use system_sim::{MixResult, System};

use crate::alloc::{peak_rss_mib, reset_peak_rss};
use crate::pins;
use crate::stats::median;
use crate::workload::{unit_label, Kind, Workload};

/// Cold passes per run, however long each one takes.
const MIN_PASSES: usize = 3;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Warm passes after each cold pass; `warm_ms` is the median of all of
/// them. Spreading them over the run samples the host the way the cold
/// passes do, instead of in one burst of a few milliseconds.
const WARM_PER_COLD: usize = 10;

/// Operations attempted and how many failed a check. Each failure is
/// named on stderr as it happens.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("benchmark: check failed: {why}");
        }
    }
}

/// What a run reports: metric values by name, and its checks.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub checks: Checks,
}

/// Arguments for a runner storing into `store` with `jobs` threads;
/// everything else at the figure binaries' defaults.
pub fn runner_args(store: &Path, jobs: usize) -> BenchArgs {
    BenchArgs {
        cache_dir: Some(store.to_path_buf()),
        jobs: Some(jobs),
        ..BenchArgs::default()
    }
}

pub fn runner_name(w: &Workload) -> String {
    format!("benchmark-{}", w.name)
}

/// One cold pass over the unit list.
pub struct Pass {
    /// Per-unit results; `None` for a unit that panicked or was
    /// quarantined.
    pub results: Vec<Option<MixResult>>,
    /// Wall clock of the whole pass.
    pub wall: f64,
    /// Wall clock spent simulating: Σ `System::run` for sim workloads,
    /// the whole runner pass for `campaign`.
    pub sim_wall: f64,
}

impl Pass {
    pub fn records(&self) -> u64 {
        self.results
            .iter()
            .flatten()
            .map(|r| r.records_processed)
            .sum()
    }
}

/// Runs every unit from an empty state: sim workloads build and run each
/// `System` on this thread; `campaign` drives the list through a runner
/// into a fresh store at `store`.
pub fn cold_pass(w: &Workload, units: &[RunUnit], store: &Path) -> Pass {
    match w.kind {
        Kind::Sim(_) => {
            let start = Instant::now();
            let mut sim_wall = 0.0;
            let results = units
                .iter()
                .map(|u| {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        let sys = System::new(&u.mix, &u.config);
                        let t = Instant::now();
                        let r = sys.run();
                        (r, t.elapsed().as_secs_f64())
                    }));
                    run.ok().map(|(r, secs)| {
                        sim_wall += secs;
                        r
                    })
                })
                .collect();
            Pass {
                results,
                wall: start.elapsed().as_secs_f64(),
                sim_wall,
            }
        }
        Kind::Campaign => {
            let _ = std::fs::remove_dir_all(store);
            let runner = Runner::new(&runner_name(w), &runner_args(store, w.jobs));
            let start = Instant::now();
            let (results, failures) = runner.try_run_units("cold", units);
            let wall = start.elapsed().as_secs_f64();
            for f in &failures {
                eprintln!("benchmark: {f}");
            }
            Pass {
                results,
                wall,
                sim_wall: wall,
            }
        }
    }
}

/// Checks unit `i`'s result against its pin and against the reference
/// digest of an earlier run of the same unit.
pub fn verify(
    units: &[RunUnit],
    i: usize,
    result: Option<&MixResult>,
    pin: Option<u64>,
    reference: Option<&str>,
) -> Result<(), String> {
    let name = || format!("unit {i} ({})", unit_label(&units[i]));
    let r = result.ok_or_else(|| format!("{} did not complete", name()))?;
    if let Some(pin) = pin {
        let h = pins::hash(r);
        if h != pin {
            return Err(format!(
                "{} digest {h:016x} differs from its pin {pin:016x}",
                name()
            ));
        }
    }
    if reference.is_some_and(|d| d != r.digest()) {
        return Err(format!("{} differs from its reference result", name()));
    }
    Ok(())
}

/// One timed set-up: the runner (which opens its store) plus every
/// unit's `System::new`. Teardown is not timed.
fn setup_once(w: &Workload, units: &[RunUnit], store: &Path) -> f64 {
    let t = Instant::now();
    let runner = Runner::new(&runner_name(w), &runner_args(store, w.jobs));
    let mut secs = t.elapsed().as_secs_f64();
    drop(runner);
    for u in units {
        let t = Instant::now();
        let sys = System::new(&u.mix, &u.config);
        secs += t.elapsed().as_secs_f64();
        drop(sys);
    }
    secs
}

/// Saves `results` under their units' store keys, as the runner would.
fn populate(store: &Path, units: &[RunUnit], results: &[Option<MixResult>]) -> Result<(), String> {
    let s = ResultStore::open(store.to_path_buf());
    for (u, r) in units.iter().zip(results) {
        if let Some(r) = r {
            s.save(&unit_key(&u.config, u.mix.benchmarks()), r)
                .map_err(|e| format!("cannot write the warm store: {e}"))?;
        }
    }
    Ok(())
}

/// One warm pass: every unit served from the warm store through
/// `Runner::run_unit` on the workload's threads. Every result must equal
/// `expected`. Returns the pass's wall clock.
fn warm_pass(
    w: &Workload,
    runner: &Runner,
    units: &[RunUnit],
    expected: &[Option<String>],
    checks: &mut Checks,
) -> f64 {
    let t = Instant::now();
    let results = parallel_map_jobs(units, Some(w.jobs), |u| {
        catch_unwind(AssertUnwindSafe(|| runner.run_unit(u))).ok()
    });
    let wall = t.elapsed().as_secs_f64();
    for (i, r) in results.iter().enumerate() {
        let want = expected[i].as_deref().unwrap_or("missing cold result");
        checks
            .check(verify(units, i, r.as_ref(), None, Some(want)).map_err(|e| format!("warm {e}")));
    }
    wall
}

/// The untraced run of workload `w` over `units`, in scratch directory
/// `scratch`. `pins` are the unit hashes to hold the results to, when
/// the seed is pinned.
pub fn run(
    w: &Workload,
    units: &[RunUnit],
    seconds: f64,
    scratch: &Path,
    pins: Option<&[u64]>,
) -> Result<Outcome, String> {
    let warm_store = scratch.join("warm");
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| setup_once(w, units, &warm_store))
        .collect();

    // The first pass runs into the warm store (the runner's own store, for
    // `campaign`). Its peak RSS is `peak_rss_mb`: later passes in the same
    // process inherit heap the allocator kept, and how much depends on
    // thread timing.
    let mut checks = Checks::default();
    let start = Instant::now();
    reset_peak_rss()?;
    let mut passes = vec![cold_pass(w, units, &warm_store)];
    let peak_rss = peak_rss_mib()?;
    if matches!(w.kind, Kind::Sim(_)) {
        populate(&warm_store, units, &passes[0].results)?;
    }
    let first: Vec<Option<String>> = passes[0]
        .results
        .iter()
        .map(|r| r.as_ref().map(MixResult::digest))
        .collect();
    let warm_runner = Runner::new(&runner_name(w), &runner_args(&warm_store, w.jobs));
    let mut warm = Vec::new();
    loop {
        for _ in 0..WARM_PER_COLD {
            warm.push(warm_pass(w, &warm_runner, units, &first, &mut checks));
        }
        let last = passes[passes.len() - 1].wall;
        if passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() + last > seconds {
            break;
        }
        passes.push(cold_pass(w, units, &scratch.join("cold")));
    }
    let warm_sims = warm_runner.sims();
    checks.check(if warm_sims == 0 {
        Ok(())
    } else {
        Err(format!("warm passes simulated {warm_sims} units"))
    });

    for (k, pass) in passes.iter().enumerate() {
        eprintln!(
            "benchmark: {} cold pass {}: {:.3} s, {} records, {:.0} records/s",
            w.name,
            k + 1,
            pass.wall,
            pass.records(),
            pass.records() as f64 / pass.sim_wall,
        );
        for (i, r) in pass.results.iter().enumerate() {
            let pin = pins.and_then(|p| p.get(i).copied());
            checks.check(verify(units, i, r.as_ref(), pin, first[i].as_deref()));
        }
    }

    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.records() as f64 / p.sim_wall)
        .collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let metrics = BTreeMap::from([
        ("records_per_s".to_string(), median(&rates)),
        ("cold_s".to_string(), median(&walls)),
        ("warm_ms".to_string(), median(&warm) * 1e3),
        ("setup_s".to_string(), median(&setup)),
        ("peak_rss_mb".to_string(), peak_rss),
    ]);
    eprintln!(
        "benchmark: {} passes: {} cold, {} warm, {} set-ups (medians reported)",
        w.name,
        passes.len(),
        warm.len(),
        setup.len()
    );
    Ok(Outcome { metrics, checks })
}
