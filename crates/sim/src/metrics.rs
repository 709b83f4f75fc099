//! Evaluation metrics (paper Section 5, "Metrics").
//!
//! Single-core performance is instruction throughput (IPC); multi-core
//! results use weighted speedup, instruction throughput, harmonic speedup,
//! and maximum slowdown, exactly the four the paper reports in Table 3.

/// Per-core outcome of a simulation's measurement window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreResult {
    /// Benchmark label driving this core.
    pub benchmark: String,
    /// Instructions retired in the measurement window.
    pub insts: u64,
    /// Cycles elapsed in the measurement window.
    pub cycles: u64,
    /// LLC demand read accesses from this core.
    pub llc_reads: u64,
    /// LLC demand read misses from this core.
    pub llc_read_misses: u64,
    /// DRAM writes attributed to this core.
    pub dram_writes: u64,
}

impl CoreResult {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// LLC read misses per kilo-instruction (paper: "LLC MPKI").
    #[must_use]
    pub fn mpki(&self) -> f64 {
        per_kilo(self.llc_read_misses, self.insts)
    }

    /// DRAM writes per kilo-instruction (paper Figure 6d).
    #[must_use]
    pub fn wpki(&self) -> f64 {
        per_kilo(self.dram_writes, self.insts)
    }
}

impl dbi::snap::Snapshot for CoreResult {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        let CoreResult {
            benchmark,
            insts,
            cycles,
            llc_reads,
            llc_read_misses,
            dram_writes,
        } = self;
        w.str(benchmark);
        for &x in [insts, cycles, llc_reads, llc_read_misses, dram_writes] {
            w.u64(x);
        }
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        self.benchmark = r.str()?;
        self.insts = r.u64()?;
        self.cycles = r.u64()?;
        self.llc_reads = r.u64()?;
        self.llc_read_misses = r.u64()?;
        self.dram_writes = r.u64()?;
        Ok(())
    }
}

/// Events per kilo-instruction.
#[must_use]
pub fn per_kilo(events: u64, insts: u64) -> f64 {
    if insts == 0 {
        0.0
    } else {
        events as f64 * 1000.0 / insts as f64
    }
}

/// Geometric mean of positive values; 0 if the slice is empty.
#[must_use]
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "gmean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Weighted speedup: `Σ IPC_shared / IPC_alone` (Snavely & Tullsen).
///
/// # Panics
///
/// Panics if the slices differ in length or an alone-IPC is not positive.
#[must_use]
pub fn weighted_speedup(shared: &[f64], alone: &[f64]) -> f64 {
    assert_eq!(shared.len(), alone.len(), "per-core IPC lists must align");
    shared
        .iter()
        .zip(alone)
        .map(|(&s, &a)| {
            assert!(a > 0.0, "alone IPC must be positive");
            s / a
        })
        .sum()
}

/// Instruction throughput: `Σ IPC_shared`.
#[must_use]
pub fn instruction_throughput(shared: &[f64]) -> f64 {
    shared.iter().sum()
}

/// Harmonic speedup (Luo et al.): `n / Σ (IPC_alone / IPC_shared)` —
/// balances throughput and fairness.
///
/// # Panics
///
/// Panics if the slices differ in length or any shared IPC is zero.
#[must_use]
pub fn harmonic_speedup(shared: &[f64], alone: &[f64]) -> f64 {
    assert_eq!(shared.len(), alone.len(), "per-core IPC lists must align");
    let denom: f64 = shared
        .iter()
        .zip(alone)
        .map(|(&s, &a)| {
            assert!(s > 0.0, "shared IPC must be positive");
            a / s
        })
        .sum();
    shared.len() as f64 / denom
}

/// Maximum slowdown (Das et al., Kim et al.): `max_i IPC_alone / IPC_shared`
/// — lower is fairer.
///
/// # Panics
///
/// Panics if the slices differ in length or any shared IPC is zero.
#[must_use]
pub fn maximum_slowdown(shared: &[f64], alone: &[f64]) -> f64 {
    assert_eq!(shared.len(), alone.len(), "per-core IPC lists must align");
    shared
        .iter()
        .zip(alone)
        .map(|(&s, &a)| {
            assert!(s > 0.0, "shared IPC must be positive");
            a / s
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_result_rates() {
        let r = CoreResult {
            benchmark: "mcf".into(),
            insts: 2000,
            cycles: 8000,
            llc_reads: 100,
            llc_read_misses: 40,
            dram_writes: 10,
        };
        assert!((r.ipc() - 0.25).abs() < 1e-12);
        assert!((r.mpki() - 20.0).abs() < 1e-12);
        assert!((r.wpki() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_gives_zero_ipc() {
        let r = CoreResult {
            benchmark: "x".into(),
            insts: 0,
            cycles: 0,
            llc_reads: 0,
            llc_read_misses: 0,
            dram_writes: 0,
        };
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.mpki(), 0.0);
    }

    #[test]
    fn gmean_of_uniform_is_identity() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn weighted_speedup_is_n_when_undisturbed() {
        let alone = [0.5, 0.8, 0.3];
        assert!((weighted_speedup(&alone, &alone) - 3.0).abs() < 1e-12);
        // Halving every core halves the weighted speedup.
        let shared: Vec<f64> = alone.iter().map(|x| x / 2.0).collect();
        assert!((weighted_speedup(&shared, &alone) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn harmonic_penalizes_imbalance() {
        let alone = [1.0, 1.0];
        let balanced = harmonic_speedup(&[0.5, 0.5], &alone);
        let skewed = harmonic_speedup(&[0.9, 0.1], &alone);
        assert!(balanced > skewed, "{balanced} vs {skewed}");
    }

    #[test]
    fn maximum_slowdown_tracks_worst_core() {
        let alone = [1.0, 1.0];
        let ms = maximum_slowdown(&[0.5, 0.25], &alone);
        assert!((ms - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_lengths_panic() {
        let _ = weighted_speedup(&[1.0], &[1.0, 2.0]);
    }
}
