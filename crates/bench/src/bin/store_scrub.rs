//! Validates and repairs a result-store directory offline.
//!
//! ```text
//! store_scrub [--lease-stale SECS] DIR
//! ```
//!
//! Walks the store at `DIR` once: every `.entry`, `.blob`, and `.ckpt`
//! file is re-validated (checksums, embedded fingerprints against file
//! names, checkpoint hash guards), corrupt files are moved into
//! `DIR/quarantine/` for post-mortem, orphaned temp files from crashed
//! writers are deleted, and leases staler than `--lease-stale` (default
//! 300 seconds; 0 treats every lease as dead) are released. A lease
//! carrying a heartbeat promise is never released before twice its
//! promised interval, whatever `--lease-stale` says. Any other file —
//! such as a segment file left by an older compacting release — is
//! left untouched.
//! Run it after a crash — or any time — before resuming a campaign: a
//! scrubbed store serves only verified entries, and the resumed run
//! recomputes whatever was quarantined.
//!
//! Exits 0 whether or not repairs were needed (the summary line says
//! which), 1 on I/O failure, 2 on usage errors.

use std::path::PathBuf;
use std::time::Duration;

use dbi_bench::{scrub_store, ScrubOptions};

const USAGE: &str = "\
store_scrub [--lease-stale SECS] [--list-checks] DIR

    --lease-stale SECS  age beyond which a lease counts as abandoned
                        (default 300; 0 removes every lease — except
                        leases promising a heartbeat, which survive
                        until twice their promised interval)
    --list-checks       print every validation the scrub performs and
                        the failpoint catalog it heals against, then exit
    DIR                 the result-store directory to scrub
";

const CHECKS: &str = "\
store_scrub validations, in pass order:
    tmp-orphans   delete .tmp-/.tmpb-/.ckpt-/.tmpm- files left by
                  crashed writers
    entry         re-checksum every .entry; embedded fingerprint must
                  hash to the file name; corrupt -> quarantine/
    blob          re-validate .blob byte-counted framing and checksum;
                  corrupt -> quarantine/
    ckpt          re-validate .ckpt hash guard; corrupt -> quarantine/
    lease         release .lease files older than --lease-stale, but
                  never before 2x a lease's promised heartbeat

Failpoint sites the recovery matrix proves this heals (every site x
mode is crash-injected, scrubbed, and re-run to bit-identical results):
";

fn list_checks() -> ! {
    print!("{CHECKS}{}", dbi_bench::catalog());
    std::process::exit(0);
}

fn fail(msg: &str) -> ! {
    eprintln!("store_scrub: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut opts = ScrubOptions::default();
    let mut dir: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--lease-stale" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(secs) => opts.lease_stale_after = Duration::from_secs(secs),
                None => fail("flag --lease-stale needs a number of seconds"),
            },
            "--list-checks" => list_checks(),
            "--help" | "-h" => fail("usage requested"),
            other if other.starts_with("--") => fail(&format!("unknown flag '{other}'")),
            d if dir.is_none() => dir = Some(PathBuf::from(d)),
            _ => fail("exactly one store directory expected"),
        }
    }
    let Some(dir) = dir else {
        fail("a store directory is required");
    };

    match scrub_store(&dir, &opts) {
        Ok(report) => {
            println!("store_scrub: dir={} {report}", dir.display());
        }
        Err(e) => {
            eprintln!("store_scrub: scrub of {} failed: {e}", dir.display());
            std::process::exit(1);
        }
    }
}
