//! The case runner: deterministic per-test seeding and failure reporting.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runner configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test (default 256, as upstream).
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per test.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Rejected cases a test may draw before it fails, as upstream's default
/// `max_global_rejects`.
const MAX_REJECTS: u32 = 1024;

/// A failed or rejected property case (carried by early `return Err(..)`
/// from the `prop_assert*` and `prop_assume!` macros).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
    rejected: bool,
}

impl TestCaseError {
    /// Wraps a failure message.
    #[must_use]
    pub fn fail(message: String) -> Self {
        TestCaseError {
            message,
            rejected: false,
        }
    }

    /// A case whose input is outside the property's domain: it is drawn
    /// again instead of failing.
    #[must_use]
    pub fn reject(message: String) -> Self {
        TestCaseError {
            message,
            rejected: true,
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// FNV-1a, used to turn a test's name into a stable seed base.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Runs `case` on deterministic seeds derived from `name` until
/// `config.cases` cases pass, panicking (with case index and seed) on the
/// first failure. A rejected case is replaced by the next seed.
///
/// # Panics
///
/// Panics when a case fails, mirroring a failing `#[test]`, or after
/// more than 1024 rejected cases.
pub fn run<F>(config: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut SmallRng) -> Result<(), TestCaseError>,
{
    let base = fnv1a(name.as_bytes());
    let (mut passed, mut rejected) = (0, 0);
    let mut i = 0u64;
    while passed < config.cases {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = SmallRng::seed_from_u64(seed);
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(e) if e.rejected => {
                rejected += 1;
                assert!(
                    rejected <= MAX_REJECTS,
                    "property '{name}' rejected too many cases ({rejected}); last: {e}"
                );
            }
            Err(e) => panic!("property '{name}' failed at case {i} (seed {seed:#x}): {e}"),
        }
        i += 1;
    }
}
