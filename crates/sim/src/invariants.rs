//! The online invariant sanitizer.
//!
//! An opt-in (`SystemConfig::sanitize`) checker in the style of
//! AddressSanitizer: it maintains its own *shadow* copy of the state the
//! paper's correctness contract is about — the set of dirty blocks the LLC
//! is responsible for, and (under VWQ) what each Set State Vector bit
//! should say — updated at the semantic hook points of `SharedLlc`. At
//! configurable sampling intervals the shadow is compared against the
//! mechanism's actual state, and any divergence is recorded as a
//! structured [`InvariantViolation`] instead of a panic, so a fleet of
//! simulations can report exactly what went wrong and keep running.
//!
//! The invariants checked:
//!
//! - **Dirty coherence** — a block is dirty in the hierarchy iff the
//!   mechanism's dirty metadata (tag-store dirty bits, or the DBI for DBI
//!   mechanisms) says so; DBI-dirty blocks must be resident, and under a
//!   DBI the tag store must hold no dirty bits at all.
//! - **Alpha bound** — the DBI never tracks more dirty blocks than
//!   α × LLC blocks (its sizing contract, paper Section 4.3).
//! - **Eviction writeback** — a DBI entry eviction writes back every
//!   block the entry marked (paper Section 2.2.4).
//! - **Dirty bypass** — a cache lookup bypass never skips a block the
//!   shadow knows is dirty (paper Section 3.2).
//! - **SSV coherence** — each Set State Vector bit matches what a
//!   refresh at the same hook would have computed (a shadow SSV mirrors
//!   the refresh stream, so legitimate staleness between refreshes is
//!   *not* flagged — only a bit that stopped tracking its refreshes is).
//!
//! Detection is proven, not assumed: `crates/sim/tests/fault_matrix.rs`
//! injects every [`crate::faults::FaultClass`] and asserts a checker
//! fires.

use std::collections::{BTreeSet, HashSet};

use cache_sim::ssv::SetStateVector;
use cache_sim::{Cache, SetIdx};
use dbi::Dbi;

use crate::faults::FaultRecord;

/// Violation details kept verbatim in the report (further violations are
/// only counted).
const MAX_DETAILS: usize = 16;

/// Which invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// Shadow dirty-set and mechanism dirty metadata disagree.
    DirtyCoherence,
    /// The DBI tracks more dirty blocks than α × LLC blocks.
    AlphaBound,
    /// A DBI entry eviction did not write back every marked block.
    EvictionWriteback,
    /// A lookup bypass skipped a block the shadow knows is dirty.
    DirtyBypass,
    /// An SSV bit diverged from the mirrored refresh stream.
    SsvCoherence,
}

impl InvariantKind {
    /// Short machine-friendly label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InvariantKind::DirtyCoherence => "dirty-coherence",
            InvariantKind::AlphaBound => "alpha-bound",
            InvariantKind::EvictionWriteback => "eviction-writeback",
            InvariantKind::DirtyBypass => "dirty-bypass",
            InvariantKind::SsvCoherence => "ssv-coherence",
        }
    }
}

impl std::fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The invariant broken.
    pub kind: InvariantKind,
    /// The block (or, for SSV violations, the set) involved.
    pub target: u64,
    /// Human-readable context.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @ {:#x}: {}", self.kind, self.target, self.detail)
    }
}

/// The sanitizer's end-of-run report.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizerReport {
    /// Full-state scans performed.
    pub scans: u64,
    /// Distinct `(kind, target)` violations observed (each is reported
    /// once, however many scans re-observe it).
    pub total_violations: u64,
    /// The first [`MAX_DETAILS`] violations, in observation order.
    pub violations: Vec<InvariantViolation>,
    /// Shadow dirty-set size at report time (context for debugging).
    pub shadow_dirty_blocks: u64,
    /// The injected fault that fired, when a `FaultPlan` was configured.
    pub fault: Option<FaultRecord>,
}

impl SanitizerReport {
    /// True when no invariant was ever violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }
}

impl std::fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sanitizer: scans={} violations={}",
            self.scans, self.total_violations
        )?;
        if let Some(rec) = &self.fault {
            write!(
                f,
                " fault={}@{:#x}(op {})",
                rec.class, rec.target, rec.opportunity
            )?;
        }
        for v in &self.violations {
            write!(f, "\n  violation: {v}")?;
        }
        Ok(())
    }
}

/// The shadow-state sanitizer. Owned by `SharedLlc`; hooks are invoked on
/// the semantic events of the writeback pipeline, [`Sanitizer::scan`] from
/// the run loop at the configured sampling interval.
#[derive(Debug)]
pub struct Sanitizer {
    /// Blocks the LLC currently owes to DRAM: marked when a writeback
    /// arrives from the level above, cleared when the block's data
    /// actually reaches the memory controller. Shares no code with the
    /// DBI it checks; iterates in ascending order.
    shadow_dirty: BTreeSet<u64>,
    /// Mirror of the SSV refresh stream (VWQ only).
    shadow_ssv: Option<Vec<bool>>,
    /// Dedup: `(kind, target)` pairs already reported.
    seen: HashSet<(InvariantKind, u64)>,
    violations: Vec<InvariantViolation>,
    total_violations: u64,
    scans: u64,
}

impl Sanitizer {
    /// Creates the sanitizer; `ssv_sets` is `Some(set count)` when the
    /// mechanism maintains a Set State Vector to mirror.
    #[must_use]
    pub fn new(ssv_sets: Option<u64>) -> Sanitizer {
        Sanitizer {
            shadow_dirty: BTreeSet::new(),
            shadow_ssv: ssv_sets.map(|sets| vec![false; sets as usize]),
            seen: HashSet::new(),
            violations: Vec::new(),
            total_violations: 0,
            scans: 0,
        }
    }

    fn record(&mut self, kind: InvariantKind, target: u64, detail: impl FnOnce() -> String) {
        if !self.seen.insert((kind, target)) {
            return;
        }
        self.total_violations += 1;
        if self.violations.len() < MAX_DETAILS {
            self.violations.push(InvariantViolation {
                kind,
                target,
                detail: detail(),
            });
        }
    }

    /// Hook: a writeback of `block` arrived at the LLC — the hierarchy now
    /// owes this block's data to DRAM.
    pub fn note_dirtied(&mut self, block: u64) {
        self.shadow_dirty.insert(block);
    }

    /// Hook: `block`'s data actually reached the memory controller.
    pub fn note_written_back(&mut self, block: u64) {
        self.shadow_dirty.remove(&block);
    }

    /// Hook: a lookup of `block` is about to bypass the tag store.
    pub fn check_bypass(&mut self, block: u64) {
        if self.shadow_dirty.contains(&block) {
            self.record(InvariantKind::DirtyBypass, block, || {
                "lookup bypassed a block the shadow knows is dirty".to_string()
            });
        }
    }

    /// Hook: a DBI entry eviction drained `written` of the `evicted`
    /// blocks its entry marked.
    pub fn check_eviction_writeback(&mut self, evicted: &[u64], written: u64) {
        if written < evicted.len() as u64 {
            let target = evicted.first().copied().unwrap_or(0);
            let total = evicted.len();
            self.record(InvariantKind::EvictionWriteback, target, || {
                format!("DBI eviction drained {written} of {total} marked blocks")
            });
        }
    }

    /// Hook: the SSV refreshed (or was supposed to refresh) the set of
    /// `probe`; mirror what the refresh should have computed.
    pub fn mirror_ssv(&mut self, cache: &Cache, probe: u64, tracked_ways: usize) {
        if let Some(shadow) = &mut self.shadow_ssv {
            let set = cache.set_of(probe);
            shadow[set.index()] = !cache.dirty().in_lru_ways(set, tracked_ways).is_empty();
        }
    }

    /// Full-state comparison of shadow vs. mechanism, recording any
    /// divergence.
    pub fn scan(&mut self, cache: &Cache, dbi: Option<&Dbi>, ssv: Option<&SetStateVector>) {
        self.scans += 1;

        // The mechanism's own view of which blocks are dirty.
        let mechanism_dirty: HashSet<u64> = match dbi {
            Some(dbi) => {
                let bound = dbi.config().tracked_blocks();
                if dbi.dirty_count() > bound {
                    let count = dbi.dirty_count();
                    self.record(InvariantKind::AlphaBound, count, || {
                        format!("DBI tracks {count} dirty blocks, bound is {bound}")
                    });
                }
                // Under a DBI the tag store must be entirely clean, so the
                // common case is every dirty word zero: sweep them with the
                // bulk mask query and only walk the tags when a word says
                // some set actually holds a dirty bit.
                let view = cache.dirty();
                let sets: Vec<SetIdx> = (0..cache.config().sets()).map(SetIdx).collect();
                let mut words = vec![0u64; sets.len()];
                view.mask_words(&sets, &mut words);
                if words.iter().any(|&w| w != 0) {
                    for (block, tag_dirty, _) in cache.blocks() {
                        if tag_dirty {
                            self.record(InvariantKind::DirtyCoherence, block, || {
                                "tag-store dirty bit set under a DBI mechanism".to_string()
                            });
                        }
                    }
                }
                let dirty_list: Vec<u64> = dbi.dirty_blocks().collect();
                let mut probes = vec![None; dirty_list.len()];
                view.probe_many(&dirty_list, &mut probes);
                for (&block, probe) in dirty_list.iter().zip(&probes) {
                    if probe.is_none() {
                        self.record(InvariantKind::DirtyCoherence, block, || {
                            "DBI-dirty block is not resident in the cache".to_string()
                        });
                    }
                }
                dirty_list.into_iter().collect()
            }
            None => cache
                .blocks()
                .filter(|&(_, dirty, _)| dirty)
                .map(|(block, _, _)| block)
                .collect(),
        };

        let shadow_blocks: Vec<u64> = self.shadow_dirty.iter().copied().collect();
        for block in shadow_blocks {
            if !mechanism_dirty.contains(&block) {
                self.record(InvariantKind::DirtyCoherence, block, || {
                    "shadow-dirty block lost: mechanism no longer tracks it".to_string()
                });
            }
        }
        for &block in &mechanism_dirty {
            if !self.shadow_dirty.contains(&block) {
                self.record(InvariantKind::DirtyCoherence, block, || {
                    "mechanism-dirty block the shadow never saw dirtied".to_string()
                });
            }
        }

        if let (Some(shadow), Some(ssv)) = (&self.shadow_ssv, ssv) {
            let diverged: Vec<u64> = shadow
                .iter()
                .enumerate()
                .filter(|&(set, &bit)| ssv.is_marked(SetIdx(set as u64)) != bit)
                .map(|(set, _)| set as u64)
                .collect();
            for set in diverged {
                self.record(InvariantKind::SsvCoherence, set, || {
                    "SSV bit diverged from the mirrored refresh stream".to_string()
                });
            }
        }
    }

    /// Builds the end-of-run report.
    #[must_use]
    pub fn report(&self, fault: Option<FaultRecord>) -> SanitizerReport {
        SanitizerReport {
            scans: self.scans,
            total_violations: self.total_violations,
            violations: self.violations.clone(),
            shadow_dirty_blocks: self.shadow_dirty.len() as u64,
            fault,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{CacheConfig, InsertPos};

    fn cache() -> Cache {
        // 4 sets x 4 ways of 64 B blocks.
        Cache::new(CacheConfig::new(4 * 4 * 64, 4, 64).unwrap())
    }

    #[test]
    fn clean_shadow_matches_clean_cache() {
        let mut s = Sanitizer::new(None);
        let c = cache();
        s.scan(&c, None, None);
        let r = s.report(None);
        assert!(r.is_clean());
        assert_eq!(r.scans, 1);
    }

    #[test]
    fn dirtied_then_written_back_stays_clean() {
        let mut s = Sanitizer::new(None);
        let mut c = cache();
        c.insert(5, 0, InsertPos::Mru, true);
        s.note_dirtied(5);
        s.scan(&c, None, None);
        assert!(s.report(None).is_clean());
        c.mark_dirty(5, false);
        s.note_written_back(5);
        s.scan(&c, None, None);
        assert!(s.report(None).is_clean());
    }

    #[test]
    fn lost_dirty_block_is_reported_once() {
        let mut s = Sanitizer::new(None);
        let c = cache();
        s.note_dirtied(9); // never reaches the cache or DRAM
        s.scan(&c, None, None);
        s.scan(&c, None, None);
        let r = s.report(None);
        assert_eq!(r.total_violations, 1, "deduplicated across scans");
        assert_eq!(r.violations[0].kind, InvariantKind::DirtyCoherence);
        assert_eq!(r.violations[0].target, 9);
    }

    #[test]
    fn spurious_mechanism_dirty_is_reported() {
        let mut s = Sanitizer::new(None);
        let mut c = cache();
        c.insert(3, 0, InsertPos::Mru, true); // dirty, but shadow never saw it
        s.scan(&c, None, None);
        let r = s.report(None);
        assert_eq!(r.total_violations, 1);
        assert!(r.violations[0].detail.contains("never saw"));
    }

    #[test]
    fn bypass_of_shadow_dirty_block_is_flagged() {
        let mut s = Sanitizer::new(None);
        s.note_dirtied(7);
        s.check_bypass(7);
        s.check_bypass(8); // clean: fine
        let r = s.report(None);
        assert_eq!(r.total_violations, 1);
        assert_eq!(r.violations[0].kind, InvariantKind::DirtyBypass);
    }

    #[test]
    fn short_eviction_drain_is_flagged() {
        let mut s = Sanitizer::new(None);
        s.check_eviction_writeback(&[1, 2, 3], 3); // complete: fine
        s.check_eviction_writeback(&[4, 5], 1); // one dropped
        let r = s.report(None);
        assert_eq!(r.total_violations, 1);
        assert_eq!(r.violations[0].kind, InvariantKind::EvictionWriteback);
        assert!(r.violations[0].detail.contains("1 of 2"));
    }

    #[test]
    fn ssv_divergence_is_flagged() {
        let mut s = Sanitizer::new(Some(4));
        let mut c = cache();
        let mut ssv = SetStateVector::new(4, 1);
        // A dirty block at the LRU end of set 0; both the SSV and the
        // mirror see the refresh.
        c.insert(0, 0, InsertPos::Mru, true);
        c.insert(4, 0, InsertPos::Mru, false);
        ssv.refresh(&c, 0);
        s.mirror_ssv(&c, 0, 1);
        s.scan(&c, None, Some(&ssv));
        // The mirror tracked it, so shadow-dirty bookkeeping aside the SSV
        // agrees. (Dirty-coherence fires for the unseen dirty block; only
        // SSV coherence is asserted here.)
        assert!(!s
            .report(None)
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::SsvCoherence));
        // Now the cache changes but the SSV misses the refresh.
        c.touch(0); // promotes to MRU: bit should clear
        s.mirror_ssv(&c, 0, 1);
        s.scan(&c, None, Some(&ssv));
        assert!(s
            .report(None)
            .violations
            .iter()
            .any(|v| v.kind == InvariantKind::SsvCoherence && v.target == 0));
    }
}
