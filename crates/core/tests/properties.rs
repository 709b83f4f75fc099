//! Property-based tests for the Dirty-Block Index.
//!
//! The key correctness property is policy-independent: whatever entries the
//! DBI chooses to evict, an external observer that applies the returned
//! writebacks to a reference dirty-set must always agree with the DBI about
//! which blocks are dirty. That is exactly the contract the cache relies on
//! for correctness (no dirty data silently lost).

use std::collections::BTreeSet;

use dbi::{Alpha, Dbi, DbiConfig, DbiReplacementPolicy};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Mark(u64),
    Clear(u64),
    FlushRow(u64),
}

fn op_strategy(addr_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..addr_space).prop_map(Op::Mark),
        2 => (0..addr_space).prop_map(Op::Clear),
        1 => (0..addr_space).prop_map(Op::FlushRow),
    ]
}

fn policy_strategy() -> impl Strategy<Value = DbiReplacementPolicy> {
    prop::sample::select(DbiReplacementPolicy::ALL.to_vec())
}

proptest! {
    /// The DBI and a reference set that honours the DBI's eviction reports
    /// agree exactly on the dirty population, and the structural invariants
    /// hold after every operation.
    ///
    /// Granularities 8–32 keep a way's bits inside one `u64` word; 64, 128
    /// and 512 take 1, 2 and 8 whole words per way. The cache (and address
    /// space) grows with the granularity so every DBI has four entries or
    /// more and its rows outnumber them.
    #[test]
    fn agrees_with_reference_dirty_set(
        ops in prop::collection::vec(op_strategy(8192), 1..400),
        policy in policy_strategy(),
        granularity in prop::sample::select(vec![8usize, 16, 32, 64, 128, 512]),
    ) {
        let blocks = 512.max(16 * granularity as u64);
        let config = DbiConfig::new(blocks, Alpha::QUARTER, granularity, 4, policy)
            .expect("valid test geometry");
        let mut dbi = Dbi::new(config);
        let mut reference: BTreeSet<u64> = BTreeSet::new();
        let mut writebacks = Vec::new();

        for op in ops {
            writebacks.clear();
            match op {
                Op::Mark(b) => {
                    let b = b % blocks;
                    let newly = dbi.mark_dirty(b, &mut writebacks);
                    prop_assert_eq!(newly, !reference.contains(&b));
                    reference.insert(b);
                    prop_assert!(writebacks.is_sorted(), "writebacks ascend");
                    for &wb in &writebacks {
                        prop_assert!(
                            reference.remove(&wb),
                            "eviction reported a block that was not dirty: {}",
                            wb
                        );
                        // The marked block must never be a casualty of its
                        // own insertion.
                        prop_assert_ne!(wb, b);
                    }
                }
                Op::Clear(b) => {
                    let b = b % blocks;
                    let was_set = dbi.clear_dirty(b);
                    prop_assert_eq!(was_set, reference.remove(&b));
                }
                Op::FlushRow(b) => {
                    let b = b % blocks;
                    let flushed = dbi.flush_row(b, &mut writebacks);
                    prop_assert_eq!(flushed, !writebacks.is_empty());
                    prop_assert!(writebacks.is_sorted(), "flushed blocks ascend");
                    for &wb in &writebacks {
                        prop_assert_eq!(dbi.row_of(wb), dbi.row_of(b));
                        prop_assert!(reference.remove(&wb));
                    }
                }
            }
            dbi.assert_invariants();
        }

        let mut listed: Vec<u64> = dbi.dirty_blocks().collect();
        listed.sort_unstable();
        let expect: Vec<u64> = reference.iter().copied().collect();
        prop_assert_eq!(listed, expect);
        for b in 0..blocks {
            prop_assert_eq!(dbi.is_dirty(b), reference.contains(&b));
        }
    }

    /// The dirty population never exceeds alpha × cache blocks — property 3
    /// the paper leans on for the ECC optimization.
    #[test]
    fn dirty_population_is_bounded(
        ops in prop::collection::vec(0u64..2048, 1..600),
        policy in policy_strategy(),
    ) {
        let config = DbiConfig::new(2048, Alpha::QUARTER, 64, 4, policy).unwrap();
        let cap = config.tracked_blocks();
        let mut dbi = Dbi::new(config);
        let mut writebacks = Vec::new();
        for b in ops {
            dbi.mark_dirty(b, &mut writebacks);
            prop_assert!(dbi.dirty_count() <= cap);
        }
    }

    /// flush_each visits every dirty block exactly once — rows ascending,
    /// blocks ascending within each row — and leaves the index empty.
    #[test]
    fn flush_each_is_exhaustive(
        marks in prop::collection::btree_set(0u64..1024, 0..200),
    ) {
        let config = DbiConfig::new(4096, Alpha::ONE, 32, 8, DbiReplacementPolicy::Lrw)
            .unwrap();
        let mut dbi = Dbi::new(config);
        let mut live: BTreeSet<u64> = BTreeSet::new();
        let mut writebacks = Vec::new();
        for &b in &marks {
            writebacks.clear();
            dbi.mark_dirty(b, &mut writebacks);
            live.insert(b);
            for &wb in &writebacks {
                live.remove(&wb);
            }
        }
        let mut flushed: Vec<(u64, u64)> = Vec::new();
        dbi.flush_each(|row, block| flushed.push((row, block)));
        // Visit order is globally sorted: (row, block) pairs ascending.
        let mut sorted = flushed.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&flushed, &sorted, "flush order must be ascending");
        let expect: Vec<u64> = live.into_iter().collect();
        let blocks: Vec<u64> = flushed.iter().map(|&(_, b)| b).collect();
        prop_assert_eq!(blocks, expect);
        prop_assert_eq!(dbi.dirty_count(), 0);
        prop_assert_eq!(dbi.valid_entries(), 0);
        for &(row, b) in &flushed {
            prop_assert_eq!(dbi.row_of(b), row);
        }
    }

    /// is_dirty is read-only: querying any address never changes state.
    #[test]
    fn queries_do_not_mutate(
        marks in prop::collection::vec(0u64..256, 0..50),
        probes in prop::collection::vec(0u64..256, 0..100),
    ) {
        let config = DbiConfig::new(256, Alpha::HALF, 8, 4, DbiReplacementPolicy::Lrw)
            .unwrap();
        let mut dbi = Dbi::new(config);
        for b in marks {
            dbi.mark_dirty(b, &mut Vec::new());
        }
        let before: Vec<u64> = dbi.dirty_blocks().collect();
        let count = dbi.dirty_count();
        for p in probes {
            let _ = dbi.is_dirty(p);
            let _ = dbi.row_dirty_blocks(p).count();
            let _ = dbi.contains_row(p);
        }
        let after: Vec<u64> = dbi.dirty_blocks().collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(count, dbi.dirty_count());
    }
}
