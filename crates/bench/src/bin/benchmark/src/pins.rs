//! Output pins: a hash of `MixResult::digest()` for every unit of every
//! workload at seeds 1, 2 and 3.
//!
//! Seed 1 is the default; 2 and 3 are held out for checking that a claim
//! holds on a seed it was not developed on. A run at a pinned seed fails
//! if any unit's digest moved. Only a change that deliberately alters the
//! model regenerates the pins, with `--write-pins`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use system_sim::MixResult;

pub const PINNED_SEEDS: [u64; 3] = [1, 2, 3];

const PINS: &str = include_str!("../pins.tsv");

/// Pins keyed by (workload, seed), hashes in unit order.
pub type Pins = BTreeMap<(String, u64), Vec<u64>>;

/// Where `--write-pins` writes (the file compiled into the binary).
pub fn path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/pins.tsv"))
}

/// The pinned value of one unit's result.
pub fn hash(result: &MixResult) -> u64 {
    dbi_bench::fingerprint_hash(&result.digest())
}

/// The compiled-in pins.
pub fn compiled() -> Pins {
    parse(PINS).expect("the committed pins file parses")
}

/// Parses `workload<TAB>seed<TAB>unit<TAB>hash` lines; `#` starts a
/// comment line. Units of one (workload, seed) must be listed in order.
fn parse(text: &str) -> Result<Pins, String> {
    let mut pins = Pins::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = || format!("pins.tsv line {}: {line:?}", n + 1);
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, seed, unit, hash] = f[..] else {
            return Err(bad());
        };
        let seed: u64 = seed.parse().map_err(|_| bad())?;
        let unit: usize = unit.parse().map_err(|_| bad())?;
        let hash = u64::from_str_radix(hash, 16).map_err(|_| bad())?;
        let list = pins.entry((workload.to_string(), seed)).or_default();
        if unit != list.len() {
            return Err(bad());
        }
        list.push(hash);
    }
    Ok(pins)
}

pub fn render(pins: &Pins) -> String {
    let mut out = String::from(
        "# Hash (FNV-1a 64) of MixResult::digest() per unit, in unit order.\n\
         # Regenerate only for a deliberate model change: benchmark --write-pins\n",
    );
    for ((workload, seed), hashes) in pins {
        for (unit, h) in hashes.iter().enumerate() {
            out.push_str(&format!("{workload}\t{seed}\t{unit}\t{h:016x}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_round_trip_and_cover_every_workload_and_seed() {
        let pins = compiled();
        assert_eq!(parse(&render(&pins)).unwrap(), pins);
        for w in crate::workload::WORKLOADS {
            for seed in PINNED_SEEDS {
                let hashes = &pins[&(w.name.to_string(), seed)];
                assert_eq!(hashes.len(), w.units(seed).len(), "{} seed {seed}", w.name);
            }
        }
        assert!(
            parse("quad_write\t1\t1\tff\n").is_err(),
            "units must start at 0"
        );
    }
}
