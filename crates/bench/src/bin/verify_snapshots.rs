//! Determinism verifier for the checkpoint/restore layer.
//!
//! For every mechanism of Table 2 (plus a fully-loaded DBI configuration
//! with the AWB rewrite filter and per-core L2 DBIs), runs one small
//! workload twice: straight through, and crash-resumed — killed at every
//! checkpoint and restarted from the snapshot just written. The two runs
//! must agree on a digest covering *every* result field, with the
//! shadow-memory checker and invariant sanitizer enabled so their state
//! is exercised through the snapshot too. Any divergence exits nonzero
//! naming the configuration.
//!
//! This is the executable form of the guarantee the `--quick`/`--full`
//! campaigns rely on: a `kill -9` mid-campaign costs wall-clock time, not
//! correctness.

use system_sim::{CheckpointCadence, Mechanism, SessionOutcome, SimSession, System, SystemConfig};
use trace_gen::mix::WorkloadMix;
use trace_gen::Benchmark;

/// Records between checkpoints — small enough that every run suspends
/// several times.
const CHECKPOINT_EVERY: u64 = 700;

fn config_for(mechanism: Mechanism) -> SystemConfig {
    let mut c = SystemConfig::for_cores(2, mechanism);
    c.llc_bytes_per_core = 256 * 1024;
    c.llc_ways = 16;
    c.warmup_insts = 30_000;
    c.measure_insts = 30_000;
    c.predictor_epoch_cycles = 50_000;
    c.seed = 12;
    c.check = true;
    c.sanitize = true;
    c
}

/// Runs to completion while "crashing" at every checkpoint: each
/// suspension throws the live system away and restores a fresh one from
/// the snapshot just written.
fn run_with_crashes(mix: &WorkloadMix, config: &SystemConfig) -> (String, u32) {
    let mut resume: Option<Vec<u8>> = None;
    let mut crashes = 0u32;
    loop {
        let mut saved: Option<Vec<u8>> = None;
        let mut sink = |bytes: &[u8]| {
            saved = Some(bytes.to_vec());
            false
        };
        let outcome = SimSession::new(mix, config)
            .resume(resume.as_deref())
            .cadence(CheckpointCadence::EveryRecords(CHECKPOINT_EVERY))
            .sink(&mut sink)
            .run()
            .expect("snapshot written by this process must restore");
        match outcome {
            SessionOutcome::Finished(result) => return (result.digest(), crashes),
            SessionOutcome::Suspended => {
                crashes += 1;
                resume = Some(saved.expect("suspension implies a checkpoint"));
            }
        }
    }
}

fn main() {
    let mix = WorkloadMix::new(vec![Benchmark::Lbm, Benchmark::Mcf]);
    let mut configs: Vec<(String, SystemConfig)> = Mechanism::ALL
        .iter()
        .map(|&m| (m.label().to_string(), config_for(m)))
        .collect();
    // A fully-loaded DBI system: AWB + CLB, the rewrite filter, and
    // per-core L2 DBIs — the widest snapshot the simulator can produce.
    let mut loaded = config_for(Mechanism::Dbi {
        awb: true,
        clb: true,
    });
    loaded.awb_rewrite_filter = true;
    loaded.l2_dbi = true;
    configs.push(("DBI+AWB+CLB+filter+L2DBI".to_string(), loaded));

    let mut failed = 0;
    for (label, config) in &configs {
        let straight = System::new(&mix, config).run().digest();
        let (resumed, crashes) = run_with_crashes(&mix, config);
        if straight == resumed {
            println!("verify_snapshots: PASS {label} ({crashes} crash-resumes, bit-identical)");
        } else {
            failed += 1;
            eprintln!(
                "verify_snapshots: FAIL {label}: resumed digest diverges after {crashes} \
                 crash-resumes"
            );
        }
    }
    if failed > 0 {
        eprintln!(
            "verify_snapshots: {failed}/{} configurations diverged",
            configs.len()
        );
        std::process::exit(1);
    }
    println!(
        "verify_snapshots: all {} configurations resume bit-identically",
        configs.len()
    );
}
