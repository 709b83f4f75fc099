//! Command-line arguments shared by every experiment binary.
//!
//! Each binary parses its process arguments exactly once into a
//! [`BenchArgs`] via [`BenchArgs::parse`]. Unknown flags are a hard error
//! with usage text — the old behaviour of scanning the argument list for
//! known flags and silently ignoring the rest hid typos like `--ful` or
//! `--outdir` behind a default-effort run.
//!
//! The flag spellings (`--quick`, `--full`, `--seeds`, `--out-dir`) are
//! unchanged from the pre-`BenchArgs` harness, so `run_all.sh` and CI
//! invocations keep working verbatim.

use std::path::PathBuf;

use system_sim::{FaultClass, FaultPlan};

use crate::failpoints::FailSpec;
use crate::{workspace_root, Effort};

/// Usage text printed on `--help` and on any parse error.
const USAGE: &str = "\
Common options for every dbi-bench experiment binary:
    --quick           smoke-test effort (CI scale)
    --full            the paper's own workload counts (102/259/120 mixes)
    --seeds N         average runs over N trace seeds (default 1)
    --out-dir PATH    machine-readable output directory (default results/
                      under the workspace root)
    --cache-dir PATH  persistent result-store directory (default
                      results/.cache/ under the workspace root)
    --no-cache        disable the persistent result store entirely
                      (every unit simulates, nothing is written back)
    --jobs N          worker threads for the experiment runner
                      (default: all available cores)
    --check           enable the shadow-memory checker and the online
                      invariant sanitizer on every unit (such units
                      bypass the result store)
    --fault CLASS     inject one deterministic fault per unit; CLASS is
                      drop-writeback, flip-dbi-bit, skip-drain, or
                      stale-ssv (faulted units bypass the store)
    --fault-seed N    seed selecting the fault's firing point (default 1)
    --io-fault SITE[:MODE]
                      arm one deterministic I/O failpoint in the result
                      store's write protocol; SITE is record.STAGE
                      (record.write, record.sync, record.rename, or
                      record.dirsync) and MODE is crash (default),
                      torn, short, drop-sync, or eio.
                      A firing crash exits the process with code 86.
                      `--io-fault list` prints every site and its modes.
    --io-fault-seed N seed selecting which occurrence of the site fires
                      and the torn/short cut point (default 1)
    --watchdog SECS   per-unit wall-clock limit: a unit exceeding it is
                      retried once, then quarantined (default 600,
                      0 disables the watchdog)
    --help            print this help

Completed units persist in the result store as they finish. SIGINT or
SIGTERM skips the queued units, lets the running ones finish, prints the
summary and exits 128+signal; a rerun simulates only what is missing.
";

/// Parsed command-line arguments of an experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Effort level (`--quick` / default / `--full`).
    pub effort: Effort,
    /// Trace-seed replication count (`--seeds N`, default 1).
    pub seeds: u64,
    /// Output directory override (`--out-dir PATH`).
    pub out_dir: Option<PathBuf>,
    /// Result-store directory override (`--cache-dir PATH`).
    pub cache_dir: Option<PathBuf>,
    /// Disable the persistent result store (`--no-cache`).
    pub no_cache: bool,
    /// Worker-thread override for the runner (`--jobs N`).
    pub jobs: Option<usize>,
    /// Force the shadow-memory checker + invariant sanitizer (`--check`).
    pub check: bool,
    /// Fault class to inject into every unit (`--fault CLASS`).
    pub fault: Option<FaultClass>,
    /// Seed selecting the fault's firing point (`--fault-seed N`).
    pub fault_seed: u64,
    /// I/O failpoint to arm in the store's write protocol (`--io-fault`).
    pub io_fault: Option<FailSpec>,
    /// Seed for the failpoint's firing occurrence (`--io-fault-seed N`).
    pub io_fault_seed: u64,
    /// Per-unit wall-clock limit in seconds; 0 disables (`--watchdog`).
    pub watchdog_secs: u64,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            effort: Effort::Default,
            seeds: 1,
            out_dir: None,
            cache_dir: None,
            no_cache: false,
            jobs: None,
            check: false,
            fault: None,
            fault_seed: 1,
            io_fault: None,
            io_fault_seed: 1,
            watchdog_secs: 600,
        }
    }
}

impl BenchArgs {
    /// Parses the process arguments, exiting with usage text on any
    /// unknown flag, missing value, or malformed number.
    #[must_use]
    pub fn parse() -> BenchArgs {
        Self::parse_with(&[]).0
    }

    /// Like [`BenchArgs::parse`], but additionally accepts the given
    /// binary-specific value flags (e.g. `perf_baseline`'s `--out PATH`).
    /// Returns the matched `(flag, value)` pairs alongside the common
    /// arguments.
    #[must_use]
    pub fn parse_with(extra_value_flags: &[&str]) -> (BenchArgs, Vec<(String, String)>) {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match Self::try_parse(&argv, extra_value_flags) {
            Ok(parsed) => parsed,
            Err(e) => {
                let bin = std::env::args()
                    .next()
                    .map(|p| {
                        PathBuf::from(p).file_name().map_or_else(
                            || "experiment".to_string(),
                            |n| n.to_string_lossy().into_owned(),
                        )
                    })
                    .unwrap_or_else(|| "experiment".to_string());
                eprintln!("{bin}: {e}\n\nUSAGE:\n    {bin} [OPTIONS]\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The fallible core of [`BenchArgs::parse_with`], separated for tests.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first unknown flag, missing value,
    /// or malformed number. `--help` is also surfaced as `Err` (carrying
    /// the usage text) so callers never continue past it.
    fn try_parse(
        argv: &[String],
        extra_value_flags: &[&str],
    ) -> Result<(BenchArgs, Vec<(String, String)>), String> {
        let mut args = BenchArgs::default();
        let mut extras = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            match flag.as_str() {
                "--quick" => args.effort = Effort::Quick,
                "--full" => args.effort = Effort::Full,
                "--seeds" => {
                    let v = value("--seeds")?;
                    args.seeds =
                        v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--seeds needs a positive integer, got '{v}'")
                        })?;
                }
                "--out-dir" => args.out_dir = Some(PathBuf::from(value("--out-dir")?)),
                "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
                "--no-cache" => args.no_cache = true,
                "--jobs" => {
                    let v = value("--jobs")?;
                    args.jobs =
                        Some(v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--jobs needs a positive integer, got '{v}'")
                        })?);
                }
                "--check" => args.check = true,
                "--fault" => {
                    let v = value("--fault")?;
                    args.fault = Some(FaultClass::parse(&v)?);
                }
                "--fault-seed" => {
                    let v = value("--fault-seed")?;
                    args.fault_seed = v
                        .parse()
                        .map_err(|_| format!("--fault-seed needs an integer, got '{v}'"))?;
                }
                "--io-fault" => {
                    let v = value("--io-fault")?;
                    if v == "list" {
                        // A requested listing, surfaced like --help so no
                        // caller continues past it.
                        return Err(format!(
                            "failpoint catalog requested\n\n{}",
                            crate::failpoints::catalog()
                        ));
                    }
                    args.io_fault = Some(FailSpec::parse(&v)?);
                }
                "--io-fault-seed" => {
                    let v = value("--io-fault-seed")?;
                    args.io_fault_seed = v
                        .parse()
                        .map_err(|_| format!("--io-fault-seed needs an integer, got '{v}'"))?;
                }
                "--watchdog" => {
                    let v = value("--watchdog")?;
                    args.watchdog_secs = v
                        .parse()
                        .map_err(|_| format!("--watchdog needs a number of seconds, got '{v}'"))?;
                }
                "--help" | "-h" => return Err(format!("usage requested\n\n{USAGE}")),
                other if extra_value_flags.contains(&other) => {
                    extras.push((other.to_string(), value(other)?));
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok((args, extras))
    }

    /// Directory for machine-readable outputs: `--out-dir` if given,
    /// otherwise `results/` under the workspace root.
    #[must_use]
    pub fn results_dir(&self) -> PathBuf {
        self.out_dir
            .clone()
            .unwrap_or_else(|| workspace_root().join("results"))
    }

    /// The fault plan requested on the command line, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault
            .map(|class| FaultPlan::new(class, self.fault_seed))
    }

    /// The per-unit watchdog limit (`None` when disabled with 0).
    #[must_use]
    pub fn watchdog(&self) -> Option<std::time::Duration> {
        (self.watchdog_secs > 0).then(|| std::time::Duration::from_secs(self.watchdog_secs))
    }

    /// Directory of the persistent result store: `--cache-dir` if given,
    /// otherwise `results/.cache/` under the workspace root. `None` when
    /// `--no-cache` disables the store.
    #[must_use]
    pub fn store_dir(&self) -> Option<PathBuf> {
        if self.no_cache {
            return None;
        }
        Some(
            self.cache_dir
                .clone()
                .unwrap_or_else(|| workspace_root().join("results").join(".cache")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn defaults_without_flags() {
        let (args, extras) = BenchArgs::try_parse(&[], &[]).unwrap();
        assert_eq!(args, BenchArgs::default());
        assert!(extras.is_empty());
        assert!(args.results_dir().ends_with("results"));
        assert!(args.store_dir().unwrap().ends_with("results/.cache"));
    }

    #[test]
    fn historical_spellings_parse() {
        let (args, _) = BenchArgs::try_parse(
            &argv(&["--quick", "--seeds", "3", "--out-dir", "/tmp/r"]),
            &[],
        )
        .unwrap();
        assert_eq!(args.effort, Effort::Quick);
        assert_eq!(args.seeds, 3);
        assert_eq!(args.results_dir(), PathBuf::from("/tmp/r"));

        let (args, _) = BenchArgs::try_parse(&argv(&["--full"]), &[]).unwrap();
        assert_eq!(args.effort, Effort::Full);
    }

    #[test]
    fn cache_flags_parse() {
        let (args, _) =
            BenchArgs::try_parse(&argv(&["--cache-dir", "/tmp/c", "--jobs", "4"]), &[]).unwrap();
        assert_eq!(args.store_dir(), Some(PathBuf::from("/tmp/c")));
        assert_eq!(args.jobs, Some(4));

        let (args, _) = BenchArgs::try_parse(&argv(&["--no-cache"]), &[]).unwrap();
        assert_eq!(args.store_dir(), None);
    }

    #[test]
    fn unknown_flags_are_hard_errors() {
        assert!(BenchArgs::try_parse(&argv(&["--ful"]), &[])
            .unwrap_err()
            .contains("unknown flag '--ful'"));
        assert!(BenchArgs::try_parse(&argv(&["quick"]), &[]).is_err());
        assert!(BenchArgs::try_parse(&argv(&["--seeds"]), &[])
            .unwrap_err()
            .contains("needs a value"));
        assert!(BenchArgs::try_parse(&argv(&["--seeds", "0"]), &[])
            .unwrap_err()
            .contains("positive integer"));
        assert!(BenchArgs::try_parse(&argv(&["--jobs", "x"]), &[]).is_err());
        // Multi-machine sharding and the dry-run listing are gone.
        for gone in [&["--shard", "1/2"][..], &["--list-units"]] {
            assert!(BenchArgs::try_parse(&argv(gone), &[])
                .unwrap_err()
                .contains(&format!("unknown flag '{}'", gone[0])));
        }
    }

    #[test]
    fn robustness_flags_parse() {
        let (args, _) = BenchArgs::try_parse(
            &argv(&["--check", "--fault", "skip-drain", "--fault-seed", "9"]),
            &[],
        )
        .unwrap();
        assert!(args.check);
        assert_eq!(
            args.fault_plan(),
            Some(FaultPlan::new(FaultClass::SkipDrain, 9))
        );

        assert!(BenchArgs::try_parse(&argv(&["--fault", "melt-cpu"]), &[])
            .unwrap_err()
            .contains("unknown fault class"));
    }

    #[test]
    fn io_fault_flags_parse() {
        use crate::failpoints::{FailMode, Site};
        let (args, _) = BenchArgs::try_parse(&[], &[]).unwrap();
        assert_eq!(args.io_fault, None);
        assert_eq!(args.io_fault_seed, 1);
        let (args, _) = BenchArgs::try_parse(
            &argv(&["--io-fault", "record.rename", "--io-fault-seed", "7"]),
            &[],
        )
        .unwrap();
        let spec = args.io_fault.unwrap();
        assert_eq!(spec.site, Site::Rename);
        assert_eq!(spec.mode, FailMode::Crash);
        assert_eq!(args.io_fault_seed, 7);
        let (args, _) =
            BenchArgs::try_parse(&argv(&["--io-fault", "record.write:torn"]), &[]).unwrap();
        assert_eq!(args.io_fault.unwrap().mode, FailMode::Torn);
        assert!(
            BenchArgs::try_parse(&argv(&["--io-fault", "record.rename:torn"]), &[])
                .unwrap_err()
                .contains("does not apply")
        );
        let err = BenchArgs::try_parse(&argv(&["--io-fault", "floppy.write"]), &[]).unwrap_err();
        assert!(err.contains("unknown failpoint site"));
        // The segment, merge and lease tiers and the per-kind entry, blob
        // and checkpoint sites are gone: their sites are unknown like any
        // typo, and each error carries the full catalog.
        for gone in [
            "segment.rename",
            "merge.write",
            "lease.write",
            "entry.write",
            "blob.rename",
            "ckpt.rename",
        ] {
            let err = BenchArgs::try_parse(&argv(&["--io-fault", gone]), &[]).unwrap_err();
            assert!(err.contains(&format!("unknown failpoint site '{gone}'")));
            for site in crate::failpoints::all_sites() {
                assert!(err.contains(&site.to_string()), "catalog names {site}");
            }
        }
    }

    #[test]
    fn io_fault_list_prints_the_catalog() {
        let err = BenchArgs::try_parse(&argv(&["--io-fault", "list"]), &[]).unwrap_err();
        assert!(err.contains("failpoint catalog requested"));
        for site in crate::failpoints::all_sites() {
            assert!(err.contains(&site.to_string()), "catalog names {site}");
        }
        assert!(err.contains("modes:"));
    }

    #[test]
    fn watchdog_flag_parses_and_zero_disables() {
        let (args, _) = BenchArgs::try_parse(&[], &[]).unwrap();
        assert_eq!(args.watchdog(), Some(std::time::Duration::from_secs(600)));
        let (args, _) = BenchArgs::try_parse(&argv(&["--watchdog", "30"]), &[]).unwrap();
        assert_eq!(args.watchdog(), Some(std::time::Duration::from_secs(30)));
        let (args, _) = BenchArgs::try_parse(&argv(&["--watchdog", "0"]), &[]).unwrap();
        assert_eq!(args.watchdog(), None);
        assert!(BenchArgs::try_parse(&argv(&["--watchdog", "soon"]), &[]).is_err());
    }

    #[test]
    fn extra_value_flags_are_binary_specific() {
        let (args, extras) =
            BenchArgs::try_parse(&argv(&["--quick", "--out", "/tmp/x.json"]), &["--out"]).unwrap();
        assert_eq!(args.effort, Effort::Quick);
        assert_eq!(
            extras,
            vec![("--out".to_string(), "/tmp/x.json".to_string())]
        );
        // ...and rejected everywhere else.
        assert!(BenchArgs::try_parse(&argv(&["--out", "/tmp/x.json"]), &[]).is_err());
    }
}
