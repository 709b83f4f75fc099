//! Figure 7 — multi-core system performance.
//!
//! Average weighted speedup of 2-, 4-, and 8-core systems under Baseline,
//! TA-DIP, DAWB, DBI, DBI+AWB, DBI+CLB, and DBI+AWB+CLB (the paper's
//! Figure 7 set — VWQ is omitted there because DAWB dominates it).
//!
//! Usage: `cargo run --release -p dbi-bench --bin fig7_multicore
//! [--quick|--full] [--seeds N]`, where `--seeds N` averages every cell
//! over N trace seeds (default 1).

use dbi_bench::{
    config_for, pct, print_table, write_tsv, AloneIpcCache, BenchArgs, RunUnit, Runner,
};
use system_sim::{metrics, Mechanism};
use trace_gen::mix::generate_mixes;

const MECHANISMS: [Mechanism; 7] = [
    Mechanism::Baseline,
    Mechanism::TaDip,
    Mechanism::Dawb,
    Mechanism::Dbi {
        awb: false,
        clb: false,
    },
    Mechanism::Dbi {
        awb: true,
        clb: false,
    },
    Mechanism::Dbi {
        awb: false,
        clb: true,
    },
    Mechanism::Dbi {
        awb: true,
        clb: true,
    },
];

const CORE_COUNTS: [usize; 3] = [2, 4, 8];

fn main() {
    let (args, extras) = BenchArgs::parse_with(&["--seeds"]);
    let seeds: u64 = extras
        .iter()
        .find(|(flag, _)| flag == "--seeds")
        .map_or(1, |(_, value)| match value.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("fig7_multicore: --seeds needs a positive integer, got '{value}'");
                std::process::exit(2);
            }
        });
    let effort = args.effort;
    let runner = Runner::new("fig7_multicore", &args);
    let alone = AloneIpcCache::new(&runner);

    // Alone baselines first (parallel within each geometry; the store
    // deduplicates across binaries and reruns)...
    let mixes_per_cores: Vec<_> = CORE_COUNTS
        .iter()
        .map(|&cores| generate_mixes(cores, effort.mix_count(cores), 42))
        .collect();
    for (&cores, mixes) in CORE_COUNTS.iter().zip(&mixes_per_cores) {
        alone.prime(mixes, &config_for(cores, Mechanism::Baseline, effort));
    }
    let alone_per_mix: Vec<Vec<Vec<f64>>> = CORE_COUNTS
        .iter()
        .zip(&mixes_per_cores)
        .map(|(&cores, mixes)| {
            let config = config_for(cores, Mechanism::Baseline, effort);
            mixes
                .iter()
                .map(|m| alone.for_mix(m.benchmarks(), &config))
                .collect()
        })
        .collect();

    // ...then every (geometry, mix, mechanism, seed) cell flattens into
    // one work list: mechanisms and core counts overlap instead of
    // running serially.
    let mut units = Vec::new();
    let mut cells = Vec::new(); // (geometry index, mix index, mechanism index)
    for (ci, (&cores, mixes)) in CORE_COUNTS.iter().zip(&mixes_per_cores).enumerate() {
        for (wi, mix) in mixes.iter().enumerate() {
            for (mi, &mechanism) in MECHANISMS.iter().enumerate() {
                for seed in 0..seeds {
                    let mut config = config_for(cores, mechanism, effort);
                    config.seed = config.seed.wrapping_add(seed * 10_007);
                    units.push(RunUnit::new(mix.clone(), config));
                    cells.push((ci, wi, mi));
                }
            }
        }
    }
    let results = runner.run_units("mix runs", &units);

    let header: Vec<String> = std::iter::once("system".to_string())
        .chain(MECHANISMS.iter().map(|m| m.label().to_string()))
        .collect();
    let mut rows = Vec::new();
    let mut improvements = Vec::new();
    for (ci, (&cores, mixes)) in CORE_COUNTS.iter().zip(&mixes_per_cores).enumerate() {
        let mut sums = vec![0.0; MECHANISMS.len()];
        for (&(cell_ci, wi, mi), result) in cells.iter().zip(&results) {
            if cell_ci == ci {
                sums[mi] += metrics::weighted_speedup(&result.ipcs(), &alone_per_mix[ci][wi]);
            }
        }
        let means: Vec<f64> = sums
            .iter()
            .map(|s| s / (mixes.len() as u64 * seeds) as f64)
            .collect();
        let mut row = vec![format!("{cores}-core")];
        row.extend(means.iter().map(|v| format!("{v:.3}")));
        rows.push(row);
        improvements.push((
            cores,
            means[6] / means[0] - 1.0, // DBI+AWB+CLB vs Baseline
            means[6] / means[2] - 1.0, // DBI+AWB+CLB vs DAWB
            means[4] / means[2] - 1.0, // DBI+AWB vs DAWB
        ));
    }

    println!("\n== Figure 7: average weighted speedup ==");
    print_table(8, 11, &header, &rows);
    write_tsv(&args.results_dir(), "fig7.tsv", &header, &rows);

    println!("\nHeadline improvements (DBI+AWB+CLB):");
    for (cores, vs_base, vs_dawb, awb_vs_dawb) in improvements {
        println!(
            "  {cores}-core: {} vs Baseline, {} vs DAWB (DBI+AWB vs DAWB: {})",
            pct(vs_base),
            pct(vs_dawb),
            pct(awb_vs_dawb)
        );
    }
    println!("  (paper, 8-core: +31% vs Baseline, +6% vs best previous; DBI+AWB vs DAWB +3%)");
    runner.finish();
}
