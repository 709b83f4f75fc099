//! The traced run: per-layer metrics.
//!
//! Four phases over the workload's unit list, each on the workload's
//! thread count; the first two alternate unit by unit:
//!
//! 1. untraced — `System::new` + `System::run` per unit, timing `run()`
//!    and counting its heap allocations; these results are the
//!    reference every later phase must reproduce exactly;
//! 2. replica — the same unit through the span-instrumented replica
//!    ([`crate::replica`]), whose result must equal phase 1's;
//! 3. runner — `Runner::run_unit` per unit into a fresh store, timing
//!    each call, then one warm `try_run_units` pass that must hit on
//!    every unit and simulate none;
//! 4. store — phase 1's results replayed through a fresh `ResultStore`,
//!    timing its open, every save and every load.
//!
//! Simulated counters (DBI, DRAM, LLC) come from the reference results
//! and repeat exactly; host times come from phases 1–4.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use dbi_bench::{parallel_map_jobs, unit_key, ResultStore, RunUnit, Runner};
use system_sim::{Mechanism, MixResult, System};

use crate::alloc::thread_allocations;
use crate::measure::{runner_args, runner_name, verify, Checks, Outcome};
use crate::replica::{Replica, SetupTimes};
use crate::spans::{self, Layer, Span, Totals, Tracer};
use crate::stats::{median, quantile, ratio};
use crate::workload::{slug, Workload};

/// Spans kept for the JSONL export per run, split evenly across units.
const SPAN_EXPORT_BUDGET: usize = 1 << 16;

/// How old a temp file must be before a store open collects it (the
/// runner's own threshold).
const TMP_ORPHAN_AGE: Duration = Duration::from_secs(900);

type Metrics = BTreeMap<String, f64>;

struct Untraced {
    result: MixResult,
    secs: f64,
    allocs: u64,
}

struct Traced {
    result: MixResult,
    secs: f64,
    setup: SetupTimes,
    tracer: Tracer,
}

fn secs_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer metrics from the sampled spans and the replica's counts.
fn layer_metrics(m: &mut Metrics, t: &Totals, setups: &[SetupTimes]) {
    let layer = |l: Layer| t.self_ns[l as usize];
    let llc: f64 = Layer::LLC.iter().map(|&l| layer(l)).sum();
    let total: f64 = layer(Layer::Record) + layer(Layer::Trace) + layer(Layer::Cache) + llc;
    let sampled = t.sampled() as f64;
    for (name, ns) in [
        ("trace", layer(Layer::Trace)),
        ("core", layer(Layer::Record)),
        ("cache", layer(Layer::Cache)),
        ("llc", llc),
    ] {
        m.insert(format!("{name}.ns_per_record"), ratio(ns, sampled));
        m.insert(format!("{name}.share"), ratio(ns, total));
    }
    m.insert(
        "cache.l1_hit".into(),
        ratio(t.l1_hits as f64, t.l1_lookups as f64),
    );
    m.insert(
        "cache.l2_hit".into(),
        ratio(t.l2_hits as f64, t.l2_lookups as f64),
    );
    m.insert(
        "llc.calls_per_record".into(),
        ratio(t.llc_calls as f64, t.records as f64),
    );
    for (name, l) in [
        ("llc.read_hit_ns", Layer::LlcReadHit),
        ("llc.read_dram_ns", Layer::LlcReadDram),
        ("llc.bypass_ns", Layer::LlcBypass),
        ("llc.writeback_ns", Layer::LlcWriteback),
        ("llc.drain_ns", Layer::LlcDrain),
    ] {
        m.insert(name.into(), ratio(layer(l), t.calls[l as usize] as f64));
    }
    m.insert("llc.drain_share".into(), ratio(layer(Layer::LlcDrain), llc));
    let per_unit = |f: fn(&SetupTimes) -> Duration| -> f64 {
        median(&setups.iter().map(|s| secs_ms(f(s))).collect::<Vec<_>>())
    };
    m.insert("setup.llc_new_ms".into(), per_unit(|s| s.llc));
    m.insert("setup.dram_new_ms".into(), per_unit(|s| s.dram));
    m.insert("setup.cache_new_ms".into(), per_unit(|s| s.cache));
    m.insert("setup.trace_new_ms".into(), per_unit(|s| s.trace));
}

/// Simulated per-layer counters, summed over every unit's measured
/// window (the DBI ones over the DBI mechanisms' units).
fn model_metrics(m: &mut Metrics, results: &[&MixResult]) {
    let sum = |f: &dyn Fn(&MixResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let kinst = sum(&|r| r.total_insts()) / 1e3;
    let pki = |f: &dyn Fn(&MixResult) -> u64| ratio(sum(f), kinst);
    m.insert("llc.tag_lookups_pki".into(), pki(&|r| r.llc.tag_lookups));
    m.insert("llc.sweep_wb_pki".into(), pki(&|r| r.llc.sweep_writebacks));
    m.insert(
        "llc.bypass_rate".into(),
        ratio(sum(&|r| r.llc.bypasses), sum(&|r| r.llc.demand_reads)),
    );
    let dbi = |f: fn(&dbi::DbiStats) -> u64| sum(&|r| r.dbi.as_ref().map_or(0, f));
    m.insert(
        "dbi.marks_pki".into(),
        ratio(dbi(|d| d.mark_requests), kinst),
    );
    m.insert(
        "dbi.evictions_pki".into(),
        ratio(dbi(|d| d.entry_evictions), kinst),
    );
    m.insert(
        "dbi.wb_per_eviction".into(),
        ratio(dbi(|d| d.eviction_writebacks), dbi(|d| d.entry_evictions)),
    );
    m.insert("dram.reads_pki".into(), pki(&|r| r.dram.reads));
    m.insert("dram.writes_pki".into(), pki(&|r| r.dram.writes));
    m.insert("dram.drains_pki".into(), pki(&|r| r.dram.drains));
    m.insert(
        "dram.read_row_hit".into(),
        ratio(sum(&|r| r.dram.read_row_hits), sum(&|r| r.dram.reads)),
    );
    m.insert(
        "dram.write_row_hit".into(),
        ratio(sum(&|r| r.dram.write_row_hits), sum(&|r| r.dram.writes)),
    );
    // Simulated time of a unit's window is its slowest core's cycles.
    m.insert(
        "dram.drain_cycle_share".into(),
        ratio(
            sum(&|r| r.dram.drain_cycles),
            sum(&|r| r.cores.iter().map(|c| c.cycles).max().unwrap_or(0)),
        ),
    );
}

/// Runs unit `i` untraced and then through the replica, back to back so
/// that both see the same host conditions.
fn simulate(
    units: &[RunUnit],
    i: usize,
    epoch: Instant,
    export_cap: usize,
    calib: spans::Calibration,
) -> Result<(Option<Untraced>, Option<Traced>), String> {
    let u = &units[i];
    let untraced = catch_unwind(AssertUnwindSafe(|| {
        let sys = System::new(&u.mix, &u.config);
        let allocs = thread_allocations();
        let t = Instant::now();
        let result = sys.run();
        let secs = t.elapsed().as_secs_f64();
        Untraced {
            result,
            secs,
            allocs: thread_allocations() - allocs,
        }
    }))
    .ok();
    let unit = u32::try_from(i).expect("unit lists are short");
    let mut tracer = Tracer::new(epoch, unit, export_cap, calib);
    let replica = Replica::new(&u.mix, &u.config)?;
    let setup = replica.setup;
    let traced = catch_unwind(AssertUnwindSafe(move || {
        let t = Instant::now();
        let result = replica.run(&mut tracer);
        Traced {
            result,
            secs: t.elapsed().as_secs_f64(),
            setup,
            tracer,
        }
    }))
    .ok();
    Ok((untraced, traced))
}

/// Phases 1 and 2, unit by unit: the untraced reference, then the
/// span-instrumented replica. Returns the reference results.
fn simulation_phases(
    w: &Workload,
    units: &[RunUnit],
    spans_path: &Path,
    pins: Option<&[u64]>,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<Vec<Option<MixResult>>, String> {
    let calib = spans::calibrate();
    eprintln!(
        "benchmark: span cost {:.1} ns inside, {:.1} ns added to the parent",
        calib.inner_ns, calib.outer_ns
    );
    let epoch = Instant::now();
    let cap = SPAN_EXPORT_BUDGET / units.len();
    let indices: Vec<usize> = (0..units.len()).collect();
    let runs = parallel_map_jobs(&indices, Some(w.jobs), |&i| {
        simulate(units, i, epoch, cap, calib)
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    let (untraced, traced): (Vec<Option<Untraced>>, Vec<Option<Traced>>) = runs.into_iter().unzip();
    for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
        let reference = u.as_ref().map(|u| &u.result);
        let pin = pins.and_then(|p| p.get(i).copied());
        checks.check(verify(units, i, reference, pin, None));
        let digest = reference.map(MixResult::digest);
        checks.check(
            verify(
                units,
                i,
                t.as_ref().map(|t| &t.result),
                None,
                digest.as_deref(),
            )
            .map_err(|e| format!("replica of {e}")),
        );
    }

    let done: Vec<&Untraced> = untraced.iter().flatten().collect();
    let records: u64 = done.iter().map(|u| u.result.records_processed).sum();
    let untraced_secs: f64 = done.iter().map(|u| u.secs).sum();
    let allocs: u64 = done.iter().map(|u| u.allocs).sum();
    m.insert(
        "alloc.per_record".into(),
        ratio(allocs as f64, records as f64),
    );
    for mech in Mechanism::ALL {
        let (secs, recs) = units
            .iter()
            .zip(&untraced)
            .filter(|(u, _)| u.config.mechanism == mech)
            .filter_map(|(_, r)| r.as_ref())
            .fold((0.0, 0u64), |(s, n), r| {
                (s + r.secs, n + r.result.records_processed)
            });
        m.insert(
            format!("mech.{}.ns_per_record", slug(mech)),
            ratio(secs * 1e9, recs as f64),
        );
    }
    model_metrics(m, &done.iter().map(|u| &u.result).collect::<Vec<_>>());

    let mut totals = Totals::default();
    let mut setups = Vec::new();
    let mut export: Vec<Span> = Vec::new();
    let mut traced_secs = 0.0;
    for t in traced.iter().flatten() {
        totals.merge(&t.tracer.totals);
        setups.push(t.setup);
        export.extend_from_slice(&t.tracer.export);
        traced_secs += t.secs;
    }
    layer_metrics(m, &totals, &setups);
    m.insert(
        "tracing.overhead_pct".into(),
        (ratio(traced_secs, totals.records as f64) / ratio(untraced_secs, records as f64) - 1.0)
            * 100.0,
    );
    spans::write_jsonl(spans_path, &export)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    eprintln!(
        "benchmark: {} spans of {} sampled records written to {}",
        export.len(),
        totals.sampled(),
        spans_path.display()
    );
    Ok(untraced.into_iter().map(|u| u.map(|u| u.result)).collect())
}

/// Phase 3: every unit through `Runner::run_unit` into a fresh store at
/// `store`, then one warm pass over the same store.
fn runner_phase(
    w: &Workload,
    units: &[RunUnit],
    store: &Path,
    reference: &[Option<String>],
    checks: &mut Checks,
    m: &mut Metrics,
) {
    let runner = Runner::new(&runner_name(w), &runner_args(store, w.jobs));
    let start = Instant::now();
    let timed: Vec<(Option<MixResult>, f64)> = parallel_map_jobs(units, Some(w.jobs), |u| {
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| runner.run_unit(u))).ok();
        (r, t.elapsed().as_secs_f64())
    });
    let wall = start.elapsed().as_secs_f64();
    let sims = runner.sims();
    let (warm, _) = runner.try_run_units("warm", units);
    for (i, ((cold, _), warm)) in timed.iter().zip(&warm).enumerate() {
        for (label, r) in [("runner", cold), ("warm runner", warm)] {
            checks.check(
                verify(units, i, r.as_ref(), None, reference[i].as_deref())
                    .map_err(|e| format!("{label} {e}")),
            );
        }
    }
    let warm_sims = runner.sims() - sims;
    checks.check(if warm_sims == 0 {
        Ok(())
    } else {
        Err(format!("the warm runner pass simulated {warm_sims} units"))
    });
    let unit_secs: Vec<f64> = timed.iter().map(|(_, s)| *s).collect();
    m.insert("runner.unit_s_p50".into(), median(&unit_secs));
    m.insert("runner.unit_s_p90".into(), quantile(&unit_secs, 0.9));
    m.insert(
        "runner.parallel_eff".into(),
        ratio(unit_secs.iter().sum(), wall * w.jobs as f64),
    );
    m.insert("runner.sims".into(), sims as f64);
    m.insert("runner.hits".into(), runner.hits() as f64);
}

/// Phase 4: the reference results saved into a fresh store at `dir`,
/// which is then reopened and read back.
fn store_phase(
    units: &[RunUnit],
    reference: &[Option<MixResult>],
    dir: &Path,
    checks: &mut Checks,
    m: &mut Metrics,
) -> Result<(), String> {
    let keyed: Vec<_> = units
        .iter()
        .zip(reference)
        .filter_map(|(u, r)| Some((unit_key(&u.config, u.mix.benchmarks()), r.as_ref()?)))
        .collect();
    let store = ResultStore::open(dir.to_path_buf());
    let mut save_ms = Vec::new();
    let mut bytes = Vec::new();
    for (key, r) in &keyed {
        let t = Instant::now();
        store
            .save(key, r)
            .map_err(|e| format!("cannot save to {}: {e}", dir.display()))?;
        save_ms.push(secs_ms(t.elapsed()));
        bytes.push(std::fs::metadata(store.entry_path(key)).map_or(0.0, |md| md.len() as f64));
    }
    // Open the populated store as the runner does, up to its first lookup
    // (which scans for compacted segments).
    let t = Instant::now();
    let store = ResultStore::open(dir.to_path_buf());
    store.scavenge(TMP_ORPHAN_AGE);
    let _ = keyed.first().map(|(k, _)| store.contains(k));
    m.insert("store.open_ms".into(), secs_ms(t.elapsed()));
    let mut load_ms = Vec::new();
    for (key, r) in &keyed {
        let t = Instant::now();
        let loaded = store.load(key);
        load_ms.push(secs_ms(t.elapsed()));
        checks.check(match loaded {
            Some(l) if l.digest() == r.digest() => Ok(()),
            _ => Err(format!("store entry {:016x} did not load back", key.hash)),
        });
    }
    m.insert("store.save_ms_p50".into(), median(&save_ms));
    m.insert("store.save_ms_p90".into(), quantile(&save_ms, 0.9));
    m.insert("store.load_ms_p50".into(), median(&load_ms));
    m.insert("store.load_ms_p90".into(), quantile(&load_ms, 0.9));
    m.insert("store.entry_bytes".into(), median(&bytes));
    Ok(())
}

/// The traced run of workload `w` over `units`. Spans go to
/// `spans_path` as JSONL.
pub fn run(
    w: &Workload,
    units: &[RunUnit],
    scratch: &Path,
    spans_path: &Path,
    pins: Option<&[u64]>,
) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut m = Metrics::new();
    let reference = simulation_phases(w, units, spans_path, pins, &mut checks, &mut m)?;
    let digests: Vec<Option<String>> = reference
        .iter()
        .map(|r| r.as_ref().map(MixResult::digest))
        .collect();
    runner_phase(
        w,
        units,
        &scratch.join("runner"),
        &digests,
        &mut checks,
        &mut m,
    );
    store_phase(
        units,
        &reference,
        &scratch.join("store"),
        &mut checks,
        &mut m,
    )?;
    Ok(Outcome { metrics: m, checks })
}
