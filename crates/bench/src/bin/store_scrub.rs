//! Validates and repairs a result-store directory offline.
//!
//! ```text
//! store_scrub DIR
//! ```
//!
//! Walks the store at `DIR` once: every `.entry` record is re-validated
//! by the store's one decoder (checksum, header, embedded fingerprint
//! against the file name), corrupt records — schema-5 files included —
//! are moved into `DIR/quarantine/` for post-mortem, and orphaned `.tmp-`
//! files from crashed writers are deleted. Any other file — such as a
//! segment, lease, `.blob` or `.ckpt` file, or a `.tmpb-`/`.ckpt-` temp
//! file, left by an older release — is left untouched.
//! Run it after a crash — or any time — before resuming a campaign: a
//! scrubbed store serves only verified entries, and the resumed run
//! recomputes whatever was quarantined.
//!
//! Exits 0 whether or not repairs were needed (the summary line says
//! which), 1 on I/O failure, 2 on usage errors.

use std::path::PathBuf;

use dbi_bench::scrub_store;

const USAGE: &str = "\
store_scrub [--list-checks] DIR

    --list-checks       print every validation the scrub performs and
                        the failpoint catalog it heals against, then exit
    DIR                 the result-store directory to scrub
";

const CHECKS: &str = "\
store_scrub validations, in pass order:
    tmp-orphans   delete .tmp- files left by crashed writers
    record        decode every .entry file with the one record codec:
                  byte-counted frame and checksum must hold, the header
                  must name an entry of today's schema, and the embedded
                  fingerprint must hash to the file name;
                  corrupt or schema-5 -> quarantine/

Failpoint sites the recovery matrix proves this heals (every site x
mode is crash-injected into an entry write, scrubbed, and re-run to
bit-identical results):
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
    let mut dir: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
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

    match scrub_store(&dir) {
        Ok(report) => {
            println!("store_scrub: dir={} {report}", dir.display());
        }
        Err(e) => {
            eprintln!("store_scrub: scrub of {} failed: {e}", dir.display());
            std::process::exit(1);
        }
    }
}
