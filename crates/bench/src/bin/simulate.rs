//! `simulate` — run one custom experiment from the command line.
//!
//! The general-purpose front end for exploring configurations the paper
//! does not tabulate. Examples:
//!
//! ```text
//! simulate --benchmarks lbm --mechanism dbi+awb+clb
//! simulate --benchmarks GemsFDTD,libquantum --mechanism dawb --llc-mb 4
//! simulate --benchmarks stream --mechanism dbi --alpha 1/2 --granularity 128
//! simulate --benchmarks mcf --mechanism baseline --insts 8000000 --check
//! ```
//!
//! Run `simulate --help` for the full flag list.

use cache_sim::CacheConfig;
use dbi::Alpha;
use system_sim::{Mechanism, System, SystemConfig, MAX_CORES};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

const HELP: &str = "\
simulate — run one DBI-paper experiment with custom parameters

USAGE:
    simulate --benchmarks <b1,b2,...> [OPTIONS]

OPTIONS:
    --benchmarks <list>   comma-separated benchmark names (mcf, lbm,
                          GemsFDTD, soplex, omnetpp, cactusADM, stream,
                          leslie3d, milc, sphinx3, libquantum, bzip2,
                          astar, bwaves); one per core, at most 64
    --mechanism <m>       baseline | ta-dip | dawb | vwq | skip-cache |
                          dbi | dbi+awb | dbi+clb | dbi+awb+clb
                          (default: dbi+awb+clb)
    --llc-mb <n>          LLC megabytes per core (default 2)
    --alpha <1/4|1/2|1>   DBI size ratio (default 1/4)
    --granularity <n>     DBI granularity in blocks (default 64)
    --warmup <n>          warmup instructions per core (default 12000000)
    --insts <n>           measured instructions per core (default 4000000)
    --seed <n>            trace seed (default 42)
    --check               run the shadow-memory functional checker
    --help                print this help
";

fn parse_mechanism(s: &str) -> Result<Mechanism, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "baseline" => Mechanism::Baseline,
        "ta-dip" | "tadip" => Mechanism::TaDip,
        "dawb" => Mechanism::Dawb,
        "vwq" => Mechanism::Vwq,
        "skip-cache" | "skipcache" => Mechanism::SkipCache,
        "dbi" => Mechanism::Dbi {
            awb: false,
            clb: false,
        },
        "dbi+awb" => Mechanism::Dbi {
            awb: true,
            clb: false,
        },
        "dbi+clb" => Mechanism::Dbi {
            awb: false,
            clb: true,
        },
        "dbi+awb+clb" => Mechanism::Dbi {
            awb: true,
            clb: true,
        },
        other => return Err(format!("unknown mechanism '{other}'")),
    })
}

fn parse_benchmark(s: &str) -> Result<Benchmark, String> {
    s.parse::<Benchmark>().map_err(|e| e.to_string())
}

fn parse_alpha(s: &str) -> Result<Alpha, String> {
    let (num, den) = match s.split_once('/') {
        Some((n, d)) => (n, d),
        None => (s, "1"),
    };
    let num: u32 = num.parse().map_err(|_| format!("bad alpha '{s}'"))?;
    let den: u32 = den.parse().map_err(|_| format!("bad alpha '{s}'"))?;
    Alpha::new(num, den).map_err(|e| e.to_string())
}

/// Builds the experiment from the command line (without the program
/// name), validating the LLC and DBI geometry so a bad value is an error
/// here rather than a panic inside the simulator.
fn parse_args(args: &[String]) -> Result<(Vec<Benchmark>, SystemConfig), String> {
    let mut benchmarks: Vec<Benchmark> = Vec::new();
    let mut mechanism = Mechanism::Dbi {
        awb: true,
        clb: true,
    };
    let mut llc_mb: u64 = 2;
    let mut alpha = Alpha::QUARTER;
    let mut granularity: usize = 64;
    let mut warmup: u64 = 12_000_000;
    let mut insts: u64 = 4_000_000;
    let mut seed: u64 = 42;
    let mut check = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--benchmarks" => {
                benchmarks = value()?
                    .split(',')
                    .map(parse_benchmark)
                    .collect::<Result<_, _>>()?;
            }
            "--mechanism" => mechanism = parse_mechanism(&value()?)?,
            "--llc-mb" => llc_mb = value()?.parse().map_err(|e| format!("--llc-mb: {e}"))?,
            "--alpha" => alpha = parse_alpha(&value()?)?,
            "--granularity" => {
                granularity = value()?
                    .parse()
                    .map_err(|e| format!("--granularity: {e}"))?;
            }
            "--warmup" => warmup = value()?.parse().map_err(|e| format!("--warmup: {e}"))?,
            "--insts" => insts = value()?.parse().map_err(|e| format!("--insts: {e}"))?,
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--check" => check = true,
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if benchmarks.is_empty() {
        return Err("--benchmarks is required (try --help)".into());
    }
    if benchmarks.len() > MAX_CORES {
        return Err(format!(
            "--benchmarks: {} benchmarks, but a system has at most {MAX_CORES} cores",
            benchmarks.len()
        ));
    }
    if insts == 0 {
        return Err("--insts 0: the measurement window must be nonempty".into());
    }

    let cores = benchmarks.len();
    let mut config = SystemConfig::for_cores(cores, mechanism);
    config.llc_bytes_per_core = llc_mb
        .checked_mul(1024 * 1024)
        .filter(|per_core| per_core.checked_mul(cores as u64).is_some())
        .ok_or_else(|| format!("--llc-mb {llc_mb}: LLC size overflows 64-bit bytes"))?;
    config.dbi.alpha = alpha;
    config.dbi.granularity = granularity;
    config.warmup_insts = warmup;
    config.measure_insts = insts;
    config.seed = seed;
    config.check = check;
    // The two checkers validate complementary halves of the correctness
    // contract (lost data vs. diverged tracking state); one flag runs both.
    config.sanitize = check;

    CacheConfig::new(config.llc_bytes(), config.llc_ways, config.block_bytes)
        .map_err(|e| format!("--llc-mb {llc_mb}: invalid LLC: {e}"))?;
    if mechanism.uses_dbi() {
        config
            .dbi
            .build(config.llc_blocks())
            .map_err(|e| format!("invalid DBI: {e}"))?;
    }
    Ok((benchmarks, config))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return Ok(());
    }
    let (benchmarks, config) = parse_args(&args)?;
    let (mechanism, cores) = (config.mechanism, config.cores);
    let llc_mb = config.llc_bytes_per_core / (1024 * 1024);

    let mix = WorkloadMix::new(benchmarks);
    eprintln!("running {mix} under {mechanism} ({cores} core(s), {llc_mb} MB/core LLC)...");
    let result = System::try_new(&mix, &config)
        .map_err(|e| format!("cannot allocate a {llc_mb} MB/core LLC: {e}"))?
        .run();

    println!("mechanism     : {mechanism}");
    println!("workload      : {mix}");
    for (i, core) in result.cores.iter().enumerate() {
        println!(
            "core {i} ({:10}): IPC {:.3}  MPKI {:5.1}  WPKI {:5.1}",
            core.benchmark,
            core.ipc(),
            core.mpki(),
            core.wpki()
        );
    }
    println!(
        "LLC           : {} tag lookups PKI, {} bypasses, {} writebacks received",
        result.tag_lookups_pki().round(),
        result.llc.bypasses,
        result.llc.writebacks_received
    );
    println!(
        "DRAM          : write row-hit {:.0}%, read row-hit {:.0}%, {:.2} mJ",
        100.0 * result.dram.write_row_hit_rate().unwrap_or(0.0),
        100.0 * result.dram.read_row_hit_rate().unwrap_or(0.0),
        result.energy.total_mj()
    );
    if let Some(dbi) = &result.dbi {
        println!(
            "DBI           : {} marks, {} entry evictions, {:.1} writebacks/eviction",
            dbi.mark_requests,
            dbi.entry_evictions,
            dbi.writebacks_per_eviction().unwrap_or(0.0)
        );
    }
    match result.check {
        None => {}
        Some(Ok(())) => println!("check         : PASS (no dirty data lost)"),
        Some(Err(lost)) => return Err(format!("check FAILED: {} lost writes", lost.len())),
    }
    match &result.sanitizer {
        None => {}
        Some(report) if report.is_clean() => {
            println!(
                "sanitizer     : PASS ({} scans, {} shadow dirty blocks)",
                report.scans, report.shadow_dirty_blocks
            );
        }
        Some(report) => return Err(format!("sanitizer FAILED:\n{report}")),
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("simulate: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanisms_parse_case_insensitively() {
        assert_eq!(parse_mechanism("BASELINE").unwrap(), Mechanism::Baseline);
        assert_eq!(parse_mechanism("ta-dip").unwrap(), Mechanism::TaDip);
        assert_eq!(
            parse_mechanism("dbi+awb+clb").unwrap(),
            Mechanism::Dbi {
                awb: true,
                clb: true
            }
        );
        assert!(parse_mechanism("dbi+clb+awb").is_err(), "order is fixed");
        assert!(parse_mechanism("magic").is_err());
    }

    #[test]
    fn alphas_parse_fractions_and_integers() {
        assert_eq!(parse_alpha("1/4").unwrap(), Alpha::QUARTER);
        assert_eq!(parse_alpha("1/2").unwrap(), Alpha::HALF);
        assert_eq!(parse_alpha("1").unwrap(), Alpha::ONE);
        assert!(parse_alpha("0/4").is_err());
        assert!(parse_alpha("3/2").is_err(), "alpha cannot exceed 1");
        assert!(parse_alpha("x/y").is_err());
    }

    fn parse_error(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_args(&args).expect_err("bad input must be rejected")
    }

    #[test]
    fn bad_dbi_granularity_is_an_error() {
        for g in ["48", "0"] {
            let err = parse_error(&["--benchmarks", "lbm", "--granularity", g]);
            assert!(err.contains(&format!("granularity {g}")), "{err}");
        }
        // Without a DBI the granularity is never used, so it is not checked.
        let args = [
            "--benchmarks",
            "lbm",
            "--mechanism",
            "baseline",
            "--granularity",
            "48",
        ];
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        assert!(parse_args(&args).is_ok());
    }

    #[test]
    fn more_benchmarks_than_cores_is_an_error() {
        let list = |n: usize| vec!["mcf"; n].join(",");
        let err = parse_error(&["--benchmarks", &list(MAX_CORES + 1)]);
        assert!(err.contains("at most 64 cores"), "{err}");
        assert!(parse_error(&["--benchmarks", &list(256)]).contains("256 benchmarks"));
        let args = ["--benchmarks".to_string(), list(MAX_CORES)];
        assert_eq!(parse_args(&args).unwrap().1.cores, MAX_CORES);
    }

    #[test]
    fn empty_measurement_window_is_an_error() {
        let err = parse_error(&["--benchmarks", "lbm", "--insts", "0"]);
        assert!(err.contains("--insts 0"), "{err}");
    }

    #[test]
    fn zero_llc_is_an_error() {
        let err = parse_error(&["--benchmarks", "lbm", "--llc-mb", "0"]);
        assert!(err.contains("invalid LLC"), "{err}");
    }

    #[test]
    fn overflowing_llc_size_is_an_error() {
        let err = parse_error(&["--benchmarks", "lbm", "--llc-mb", "17592186044416"]);
        assert!(err.contains("overflows"), "{err}");
        let err = parse_error(&["--benchmarks", "lbm,mcf", "--llc-mb", "8796093022208"]);
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn benchmarks_parse_paper_spellings() {
        assert_eq!(parse_benchmark("GemsFDTD").unwrap(), Benchmark::GemsFdtd);
        assert_eq!(parse_benchmark("gemsfdtd").unwrap(), Benchmark::GemsFdtd);
        assert!(parse_benchmark("gcc").is_err());
    }
}
