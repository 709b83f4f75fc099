//! Tier-1 tests of the benchmark. Run them with
//! `cargo test --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml`.

use std::collections::BTreeSet;
use std::time::Instant;

use dbi_bench::RunUnit;
use system_sim::{Mechanism, System};
use trace_gen::Benchmark;

use super::*;
use crate::replica::Replica;
use crate::spans::{Calibration, Tracer};
use crate::workload::{by_name, unit_label, Kind, WORKLOADS};

/// A fresh directory under the package's `.bench_out/`.
fn test_dir(name: &str) -> PathBuf {
    let d = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".bench_out")
        .join(format!("test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("test directory");
    d
}

#[test]
fn replica_equals_system_run_for_every_mechanism_on_every_sim_mix() {
    let units: Vec<RunUnit> = WORKLOADS
        .iter()
        .filter(|w| matches!(w.kind, Kind::Sim(_)))
        .flat_map(|w| w.scaled(200_000, 200_000).units(1))
        .collect();
    assert_eq!(units.len(), 27);
    let mismatched: Vec<String> = dbi_bench::parallel_map(&units, |u| {
        let want = System::new(&u.mix, &u.config).run().digest();
        let mut tracer = Tracer::new(Instant::now(), 0, 0, Calibration::default());
        let got = Replica::new(&u.mix, &u.config)
            .expect("default configuration")
            .run(&mut tracer)
            .digest();
        (got != want).then(|| unit_label(u))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(mismatched.is_empty(), "replica diverged on {mismatched:?}");
}

#[test]
fn replica_refuses_configurations_it_does_not_model() {
    let mut u = by_name("quad_write").unwrap().units(1).remove(0);
    u.config.l2_dbi = true;
    assert!(Replica::new(&u.mix, &u.config).is_err());
    u.config.l2_dbi = false;
    u.config.sanitize = true;
    assert!(Replica::new(&u.mix, &u.config).is_err());
}

#[test]
fn campaign_warm_rerun_simulates_nothing_and_matches_cold() {
    let w = by_name("campaign").unwrap().scaled(50_000, 50_000);
    let units: Vec<RunUnit> = w
        .units(1)
        .into_iter()
        .filter(|u| {
            [Benchmark::Lbm, Benchmark::Mcf].contains(&u.mix.benchmarks()[0])
                && [
                    Mechanism::TaDip,
                    Mechanism::Dbi {
                        awb: true,
                        clb: true,
                    },
                ]
                .contains(&u.config.mechanism)
        })
        .collect();
    assert_eq!(units.len(), 4);
    let dir = test_dir("campaign");
    let outcome = measure::run(&w, &units, 0.0, &dir, None).expect("run completes");
    let _ = std::fs::remove_dir_all(&dir);
    // Three cold passes and thirty warm passes of four units each, plus
    // the zero-simulation check of the warm runner.
    assert_eq!(outcome.checks.attempted, (3 + 3 * 10) * 4 + 1);
    assert_eq!(outcome.checks.failed, 0);
}

/// A minimal JSON reader for `BENCHMARK.json`.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key}: not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn parse(text: &str) -> Json {
        let mut p = JsonParser(text.trim().as_bytes());
        let v = p.value();
        assert!(
            p.0.iter().all(u8::is_ascii_whitespace),
            "trailing JSON text"
        );
        v
    }
}

struct JsonParser<'a>(&'a [u8]);

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.0.first().is_some_and(u8::is_ascii_whitespace) {
            self.0 = &self.0[1..];
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.0.first() == Some(&b);
        if hit {
            self.0 = &self.0[1..];
        }
        hit
    }

    fn list<T>(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let mut out = Vec::new();
        if self.eat(close) {
            return out;
        }
        loop {
            out.push(item(self));
            if self.eat(close) {
                return out;
            }
            assert!(self.eat(b','), "expected ',' in JSON list");
        }
    }

    fn string(&mut self) -> String {
        assert!(self.eat(b'"'), "expected a JSON string");
        let end = self
            .0
            .iter()
            .position(|&b| b == b'"')
            .expect("closed string");
        let s = std::str::from_utf8(&self.0[..end]).expect("UTF-8");
        assert!(!s.contains('\\'), "escapes are not used in BENCHMARK.json");
        self.0 = &self.0[end + 1..];
        s.to_string()
    }

    fn value(&mut self) -> Json {
        self.skip_ws();
        match self.0.first().copied() {
            Some(b'{') => {
                self.0 = &self.0[1..];
                Json::Obj(self.list(b'}', |p| {
                    let k = p.string();
                    assert!(p.eat(b':'), "expected ':'");
                    (k, p.value())
                }))
            }
            Some(b'[') => {
                self.0 = &self.0[1..];
                Json::Arr(self.list(b']', Self::value))
            }
            Some(b'"') => Json::Str(self.string()),
            _ => {
                let end = self
                    .0
                    .iter()
                    .position(|b| b",]} \n\r\t".contains(b))
                    .unwrap_or(self.0.len());
                let word = std::str::from_utf8(&self.0[..end]).expect("UTF-8");
                self.0 = &self.0[end..];
                match word {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad JSON token {n:?}"))),
                }
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn owned(catalogue: Vec<(String, &str)>) -> Vec<(String, String)> {
    catalogue
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_lists_the_catalogue_and_workloads() {
    let json = benchmark_json();
    assert_eq!(listed(&json, "end_to_end"), owned(metrics::end_to_end()));
    assert_eq!(listed(&json, "per_layer"), owned(metrics::per_layer()));
    let workloads: Vec<&str> = json
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS.map(|w| w.name));
    assert_eq!(json.get("run_seconds"), &Json::Num(DEFAULT_SECONDS));
    let mut seen = BTreeSet::new();
    for (name, _) in listed(&json, "end_to_end")
        .into_iter()
        .chain(listed(&json, "per_layer"))
    {
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(seen.insert(name.clone()), "duplicate metric name {name:?}");
    }
}

#[test]
fn every_run_reports_exactly_the_catalogue() {
    let catalogue =
        |c: Vec<(String, &str)>| -> BTreeSet<String> { c.into_iter().map(|(n, _)| n).collect() };
    for name in ["oct_light", "campaign"] {
        let w = by_name(name).unwrap().scaled(20_000, 20_000);
        let units = w.units(7);
        let dir = test_dir(&format!("catalogue-{name}"));
        let untraced = measure::run(&w, &units, 0.0, &dir, None).expect("untraced run");
        let traced =
            traced::run(&w, &units, &dir, &dir.join("spans.jsonl"), None).expect("traced run");
        let _ = std::fs::remove_dir_all(&dir);
        for (outcome, want) in [
            (&untraced, catalogue(metrics::end_to_end())),
            (&traced, catalogue(metrics::per_layer())),
        ] {
            assert_eq!(outcome.checks.failed, 0, "{name}");
            assert_eq!(
                outcome.metrics.keys().cloned().collect::<BTreeSet<_>>(),
                want,
                "{name}"
            );
            assert!(outcome.metrics.values().all(|v| v.is_finite()), "{name}");
        }
    }
}

#[test]
fn arguments_parse_like_the_usage_says() {
    let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let a = parse(&argv("--workload quad_read --seed 9 --seconds 3 --trace 1")).unwrap();
    assert_eq!(
        (a.workload.unwrap().name, a.seed, a.seconds, a.trace),
        ("quad_read", 9, 3.0, true)
    );
    assert!(!parse(&argv("--workload campaign --trace 0")).unwrap().trace);
    assert!(parse(&argv("--trace --workload campaign")).unwrap().trace);
    assert!(parse(&argv("--write-pins")).unwrap().write_pins);
    for bad in [
        "",
        "--workload nope",
        "--workload campaign --seed x",
        "--seconds -1 --workload campaign",
        "--frobnicate",
    ] {
        assert!(parse(&argv(bad)).is_err(), "{bad:?} should not parse");
    }
}
