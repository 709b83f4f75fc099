//! `bench_harness` — measures the experiment harness itself.
//!
//! Runs the full `run_all.sh` binary list twice against one shared result
//! store — a cold pass (empty store) and a warm pass — and records
//! per-binary wall clock plus the runner's hit/sim counters, asserting
//! that the warm pass performs zero simulations and reproduces every
//! machine-readable output byte for byte. A third step probes the
//! flattened work-list scheduling: `fig7_multicore` cold with `--jobs 1`
//! versus all cores. Writes `BENCH_harness.json` at the workspace root;
//! the committed copy pins the suite's cold/warm cost the same way
//! `BENCH_hotpath.json` pins the simulation hot path.
//!
//! Usage: `cargo run --release -p dbi-bench --bin bench_harness
//! [--quick|--full] [--out PATH]`

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use dbi_bench::{BenchArgs, Effort};

/// The `run_all.sh` list (everything except `simulate`, which is an
/// interactive tool, and `perf_baseline`/`bench_harness`, which measure
/// rather than reproduce).
const SUITE: [&str; 18] = [
    "fig6_single_core",
    "fig7_multicore",
    "fig8_scurve",
    "table3_fairness",
    "table4_storage",
    "table5_power",
    "table6_awb_sensitivity",
    "table6b_clb_sensitivity",
    "table7_cache_size",
    "case_study",
    "ablation_replacement",
    "ablation_awb_filter",
    "ablation_dbi_assoc",
    "ablation_drain_policy",
    "ablation_l2_dbi",
    "ablation_channels",
    "ablation_bankgroups",
    "workload_report",
];

/// One child-binary invocation, with the counters parsed from its
/// `runner[...]` stderr summary (absent for binaries that run no
/// simulations, e.g. `table4_storage`).
struct BinRun {
    name: &'static str,
    wall_seconds: f64,
    hits: u64,
    sims: u64,
}

/// Runs `name` from this binary's own directory and parses its summary.
fn run_bin(dir: &Path, name: &'static str, extra: &[&str]) -> BinRun {
    let exe = std::env::current_exe()
        .expect("current_exe")
        .with_file_name(name);
    let start = Instant::now();
    let output = Command::new(&exe)
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("could not spawn {}: {e}", exe.display()));
    let wall_seconds = start.elapsed().as_secs_f64();
    assert!(
        output.status.success(),
        "{name} failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let (mut hits, mut sims) = (0, 0);
    for line in stderr.lines().filter(|l| l.starts_with("runner[")) {
        for field in line.split(' ') {
            if let Some(v) = field.strip_prefix("hits=") {
                hits += v.parse::<u64>().unwrap_or(0);
            } else if let Some(v) = field.strip_prefix("sims=") {
                sims += v.parse::<u64>().unwrap_or(0);
            }
        }
    }
    let _ = dir; // runs share the scratch dirs passed via `extra`
    BinRun {
        name,
        wall_seconds,
        hits,
        sims,
    }
}

/// Recursively collects `(relative name, contents)` of every file under
/// `dir`, sorted, for byte-exact output comparison.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    if let Ok(rd) = std::fs::read_dir(dir) {
        for entry in rd.flatten() {
            let path = entry.path();
            if path.is_file() {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                out.push((name, std::fs::read(&path).unwrap_or_default()));
            }
        }
    }
    out.sort();
    out
}

fn suite_pass(effort_flag: &str, out_dir: &Path, cache_dir: &Path) -> (f64, Vec<BinRun>) {
    let start = Instant::now();
    let runs: Vec<BinRun> = SUITE
        .iter()
        .map(|&name| {
            eprintln!("bench_harness: {name}...");
            run_bin(
                out_dir,
                name,
                &[
                    effort_flag,
                    "--out-dir",
                    &out_dir.to_string_lossy(),
                    "--cache-dir",
                    &cache_dir.to_string_lossy(),
                ],
            )
        })
        .collect();
    (start.elapsed().as_secs_f64(), runs)
}

fn json_runs(runs: &[BinRun]) -> String {
    runs.iter()
        .map(|r| {
            format!(
                "        {{ \"binary\": \"{}\", \"wall_seconds\": {:.3}, \"hits\": {}, \"sims\": {} }}",
                r.name, r.wall_seconds, r.hits, r.sims
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let (args, extras) = BenchArgs::parse_with(&["--out"]);
    // Like perf_baseline, this binary measures — the short window is the
    // meaningful default, `--full` opts into the paper-scale suite.
    let effort_flag = if args.effort == Effort::Full {
        "--full"
    } else {
        "--quick"
    };
    let out_path = extras.iter().find(|(flag, _)| flag == "--out").map_or_else(
        || dbi_bench::workspace_root().join("BENCH_harness.json"),
        |(_, value)| PathBuf::from(value),
    );

    let scratch = std::env::temp_dir().join(format!("dbi-bench-harness-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cache_dir = scratch.join("cache");
    let cold_out = scratch.join("cold");
    let warm_out = scratch.join("warm");

    eprintln!("== cold pass (empty store) ==");
    let (cold_wall, cold_runs) = suite_pass(effort_flag, &cold_out, &cache_dir);
    eprintln!("== warm pass (shared store) ==");
    let (warm_wall, warm_runs) = suite_pass(effort_flag, &warm_out, &cache_dir);

    let warm_sims: u64 = warm_runs.iter().map(|r| r.sims).sum();
    assert_eq!(warm_sims, 0, "warm pass must perform zero simulations");
    assert_eq!(
        dir_contents(&cold_out),
        dir_contents(&warm_out),
        "warm outputs must be byte-identical to cold outputs"
    );
    eprintln!("warm pass: zero simulations, outputs byte-identical");

    // Scheduling probe: the flattened fig7 work list, serial vs parallel,
    // each from its own cold store. On a single-core host the two are
    // equivalent; the committed numbers record the host's `cpus` so the
    // speedup is interpreted against the hardware that produced it.
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!("== scheduling probe (fig7_multicore, {cpus} cpu(s)) ==");
    let probe = |jobs: Option<usize>, tag: &str| {
        let cache = scratch.join(format!("probe-{tag}"));
        let out = scratch.join(format!("probe-out-{tag}"));
        let mut flags: Vec<String> = vec![
            effort_flag.to_string(),
            "--out-dir".into(),
            out.to_string_lossy().into_owned(),
            "--cache-dir".into(),
            cache.to_string_lossy().into_owned(),
        ];
        if let Some(j) = jobs {
            flags.push("--jobs".into());
            flags.push(j.to_string());
        }
        let flag_refs: Vec<&str> = flags.iter().map(String::as_str).collect();
        run_bin(&out, "fig7_multicore", &flag_refs).wall_seconds
    };
    let serial_seconds = probe(Some(1), "serial");
    let parallel_seconds = probe(None, "parallel");

    let cold_sims: u64 = cold_runs.iter().map(|r| r.sims).sum();
    let cold_hits: u64 = cold_runs.iter().map(|r| r.hits).sum();
    let json = format!(
        "{{\n  \"schema\": \"dbi-harness-perf/v1\",\n  \"effort\": \"{}\",\n  \"build\": \"{}\",\n  \"cpus\": {cpus},\n  \"cold\": {{\n    \"wall_seconds\": {:.3},\n    \"sims\": {cold_sims},\n    \"hits\": {cold_hits},\n    \"binaries\": [\n{}\n    ]\n  }},\n  \"warm\": {{\n    \"wall_seconds\": {:.3},\n    \"sims\": {warm_sims},\n    \"outputs_bit_identical\": true,\n    \"binaries\": [\n{}\n    ]\n  }},\n  \"fig7_scheduling\": {{\n    \"jobs_1_cold_seconds\": {:.3},\n    \"jobs_all_cold_seconds\": {:.3},\n    \"speedup\": {:.3}\n  }}\n}}\n",
        if args.effort == Effort::Full { "full" } else { "quick" },
        if cfg!(debug_assertions) { "debug" } else { "release" },
        cold_wall,
        json_runs(&cold_runs),
        warm_wall,
        json_runs(&warm_runs),
        serial_seconds,
        parallel_seconds,
        serial_seconds / parallel_seconds,
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("wrote {}", out_path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", out_path.display());
            std::process::exit(1);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "cold {cold_wall:.1}s ({cold_sims} sims) -> warm {warm_wall:.1}s (0 sims); \
         fig7 serial {serial_seconds:.1}s vs parallel {parallel_seconds:.1}s on {cpus} cpu(s)"
    );
}
