//! Property-based tests for the cache substrate: the set-associative cache
//! must agree with a brute-force reference model of LRU semantics and dirty
//! bookkeeping under arbitrary operation sequences — at the small
//! geometries that collide often, at a set count that is not a power of
//! two, and at the LLC's 32 ways — and its tag
//! store invariants must hold after every mutation.

use std::collections::VecDeque;

use cache_sim::{Cache, CacheConfig, InsertPos, SetIdx};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone)]
enum Op {
    Touch(u64),
    TouchDirty(u64),
    InsertMru(u64, bool),
    InsertLru(u64, bool),
    /// `Cache::fill` at MRU (`true`) or LRU; a `Touch` where the block is
    /// resident, since `fill` requires a miss.
    Fill(u64, bool, bool),
    MarkDirty(u64, bool),
    /// `Cache::take_dirty` with a rank bound.
    TakeDirty(u64, usize),
    Invalidate(u64),
}

fn op_strategy(space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..space).prop_map(Op::Touch),
        2 => (0..space).prop_map(Op::TouchDirty),
        3 => (0..space, any::<bool>()).prop_map(|(b, d)| Op::InsertMru(b, d)),
        1 => (0..space, any::<bool>()).prop_map(|(b, d)| Op::InsertLru(b, d)),
        3 => (0..space, any::<bool>(), any::<bool>()).prop_map(|(b, m, d)| Op::Fill(b, m, d)),
        1 => (0..space, any::<bool>()).prop_map(|(b, d)| Op::MarkDirty(b, d)),
        1 => (0..space, 0..40usize).prop_map(|(b, k)| Op::TakeDirty(b, k)),
        1 => (0..space).prop_map(Op::Invalidate),
    ]
}

fn pos(mru: bool) -> InsertPos {
    if mru {
        InsertPos::Mru
    } else {
        InsertPos::Lru
    }
}

/// Applies `op` to `cache` without caring about the outcome (for tests that
/// only need a well-exercised cache state).
fn apply(cache: &mut Cache, op: &Op) {
    match *op {
        Op::Touch(b) => {
            cache.touch(b);
        }
        Op::TouchDirty(b) => {
            cache.touch_dirty(b);
        }
        Op::InsertMru(b, d) => {
            cache.insert(b, 0, InsertPos::Mru, d);
        }
        Op::InsertLru(b, d) => {
            cache.insert(b, 0, InsertPos::Lru, d);
        }
        Op::Fill(b, mru, d) => {
            if cache.probe(b) {
                cache.touch(b);
            } else {
                cache.fill(b, 0, pos(mru), d);
            }
        }
        Op::MarkDirty(b, d) => {
            cache.mark_dirty(b, d);
        }
        Op::TakeDirty(b, k) => {
            cache.take_dirty(b, k);
        }
        Op::Invalidate(b) => {
            cache.invalidate(b);
        }
    }
}

/// Brute-force reference: per-set recency queue (front = LRU) of
/// `(block, dirty)` pairs. A block's queue position *is* its recency rank.
#[derive(Debug)]
struct Reference {
    sets: Vec<VecDeque<(u64, bool)>>,
    ways: usize,
}

impl Reference {
    fn new(sets: usize, ways: usize) -> Self {
        Reference {
            sets: vec![VecDeque::new(); sets],
            ways,
        }
    }

    fn set_of(&self, block: u64) -> usize {
        (block % self.sets.len() as u64) as usize
    }

    fn find(&self, block: u64) -> Option<(usize, usize)> {
        let s = self.set_of(block);
        self.sets[s]
            .iter()
            .position(|&(b, _)| b == block)
            .map(|i| (s, i))
    }

    fn touch(&mut self, block: u64) -> bool {
        match self.find(block) {
            Some((s, i)) => {
                let e = self.sets[s].remove(i).unwrap();
                self.sets[s].push_back(e);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, block: u64, dirty: bool, mru: bool) -> Option<(u64, bool)> {
        if let Some((s, i)) = self.find(block) {
            self.sets[s][i].1 |= dirty;
            return None;
        }
        let s = self.set_of(block);
        let victim = (self.sets[s].len() == self.ways).then(|| {
            self.sets[s].pop_front().unwrap() // LRU eviction
        });
        if mru {
            self.sets[s].push_back((block, dirty));
        } else {
            self.sets[s].push_front((block, dirty));
        }
        victim
    }

    /// The dirty blocks of `set` whose rank (queue position) is below `k`
    /// — the reference answer to [`cache_sim::DirtyView::in_lru_ways`].
    fn dirty_in_lru_ways(&self, set: usize, k: usize) -> Vec<u64> {
        let mut v: Vec<u64> = self.sets[set]
            .iter()
            .take(k)
            .filter(|&&(_, d)| d)
            .map(|&(b, _)| b)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Resolves a cache's `in_lru_ways` mask to a sorted block list.
fn harvest(cache: &Cache, set: SetIdx, k: usize) -> Vec<u64> {
    let view = cache.dirty();
    let mut v: Vec<u64> = view.blocks(set, view.in_lru_ways(set, k)).collect();
    v.sort_unstable();
    v
}

/// Applies `op` to both models, checking that they agree on its outcome:
/// hit or miss, victim identity and dirtiness, residency of a dirty-bit
/// write, the cleaned line, and the invalidated line.
fn apply_both(cache: &mut Cache, reference: &mut Reference, op: &Op) -> Result<(), TestCaseError> {
    match *op {
        Op::Touch(b) => {
            prop_assert_eq!(cache.touch(b), reference.touch(b));
        }
        Op::TouchDirty(b) => {
            let hit = reference.touch(b);
            if hit {
                let s = reference.set_of(b);
                reference.sets[s].back_mut().unwrap().1 = true;
            }
            prop_assert_eq!(cache.touch_dirty(b), hit);
        }
        Op::InsertMru(b, d) | Op::InsertLru(b, d) => {
            let mru = matches!(op, Op::InsertMru(..));
            let got = cache.insert(b, 0, pos(mru), d);
            let want = reference.insert(b, d, mru);
            prop_assert_eq!(got.map(|v| (v.block, v.dirty)), want);
        }
        Op::Fill(b, mru, d) => {
            if reference.find(b).is_some() {
                prop_assert!(cache.touch(b) && reference.touch(b));
            } else {
                let got = cache.fill(b, 0, pos(mru), d);
                let want = reference.insert(b, d, mru);
                prop_assert_eq!(got.map(|v| (v.block, v.dirty)), want);
            }
        }
        Op::MarkDirty(b, d) => {
            let found = reference.find(b);
            prop_assert_eq!(cache.mark_dirty(b, d), found.is_some());
            if let Some((s, i)) = found {
                reference.sets[s][i].1 = d;
            }
        }
        Op::TakeDirty(b, k) => {
            let want = reference
                .find(b)
                .filter(|&(s, i)| reference.sets[s][i].1 && i < k);
            if let Some((_, i)) = want {
                prop_assert_eq!(cache.dirty().probe(b).map(|p| p.rank), Some(i));
            }
            prop_assert_eq!(cache.take_dirty(b, k), want.map(|_| 0));
            if let Some((s, i)) = want {
                reference.sets[s][i].1 = false;
            }
        }
        Op::Invalidate(b) => {
            let got = cache.invalidate(b);
            let want = reference
                .find(b)
                .map(|(s, i)| reference.sets[s].remove(i).unwrap());
            prop_assert_eq!(got.map(|v| (v.block, v.dirty)), want);
        }
    }
    Ok(())
}

/// Checks every resident block's dirty bit and recency rank against the
/// reference, and residency in both directions.
fn check_lines(cache: &Cache, reference: &Reference) -> Result<(), TestCaseError> {
    for (b, d, _) in cache.blocks() {
        prop_assert_eq!(cache.dirty().is_dirty(b), Some(d));
        let p = cache.dirty().probe(b).expect("resident");
        prop_assert_eq!(p.dirty, d);
        let (s, i) = reference.find(b).expect("reference resident");
        prop_assert_eq!(p.rank, i, "rank of block {} in set {}", b, s);
    }
    let resident: usize = reference.sets.iter().map(VecDeque::len).sum();
    prop_assert_eq!(cache.resident(), resident as u64);
    Ok(())
}

proptest! {
    /// The cache agrees with the reference model on residency, dirtiness,
    /// hit/miss outcomes, and victim identity for every LRU operation mix.
    #[test]
    fn lru_cache_matches_reference(
        ops in prop::collection::vec(op_strategy(128), 1..300),
    ) {
        // 8 sets x 4 ways.
        let mut cache = Cache::new(CacheConfig::new(8 * 4 * 64, 4, 64).unwrap());
        let mut reference = Reference::new(8, 4);

        for op in &ops {
            apply_both(&mut cache, &mut reference, op)?;
            // Residency and dirty bits agree exactly after every op.
            let mut got: Vec<(u64, bool)> =
                cache.blocks().map(|(b, d, _)| (b, d)).collect();
            got.sort_unstable();
            let mut want: Vec<(u64, bool)> = reference
                .sets
                .iter()
                .flatten()
                .copied()
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// The incremental dirty/rank index answers every rank-filtered dirty
    /// query exactly like the reference model's rank scan, after every
    /// single mutation, and the tag store's invariants hold throughout.
    #[test]
    fn lru_dirty_index_matches_reference_rank_scan(
        ops in prop::collection::vec(op_strategy(96), 1..250),
    ) {
        // 4 sets x 4 ways keeps sets colliding often.
        let mut cache = Cache::new(CacheConfig::new(4 * 4 * 64, 4, 64).unwrap());
        let mut reference = Reference::new(4, 4);

        for op in &ops {
            apply_both(&mut cache, &mut reference, op)?;
            cache.assert_index_coherent();
            for set in 0..4usize {
                for k in 0..=4usize {
                    prop_assert_eq!(
                        harvest(&cache, SetIdx(set as u64), k),
                        reference.dirty_in_lru_ways(set, k),
                        "set {} k {}", set, k
                    );
                }
                // The full dirty mask is in_lru_ways at k = ways.
                let view = cache.dirty();
                prop_assert_eq!(
                    view.mask(SetIdx(set as u64)),
                    view.in_lru_ways(SetIdx(set as u64), 4)
                );
            }
            check_lines(&cache, &reference)?;
        }
    }

    /// At the LLC's associativity (32 ways, as in the 16 MiB 8-core LLC)
    /// the cache agrees with the reference on every outcome, rank and
    /// rank-filtered dirty query, and its invariants hold, after every op.
    #[test]
    fn lru_llc_geometry_matches_reference(
        ops in prop::collection::vec(op_strategy(4 * 32 * 3), 1..600),
    ) {
        // 4 sets x 32 ways, three blocks competing for every way.
        let mut cache = Cache::new(CacheConfig::new(4 * 32 * 64, 32, 64).unwrap());
        let mut reference = Reference::new(4, 32);

        for op in &ops {
            apply_both(&mut cache, &mut reference, op)?;
            cache.assert_index_coherent();
            check_lines(&cache, &reference)?;
            for set in 0..4usize {
                for k in [0, 1, 8, 31, 32] {
                    prop_assert_eq!(
                        harvest(&cache, SetIdx(set as u64), k),
                        reference.dirty_in_lru_ways(set, k),
                        "set {} k {}", set, k
                    );
                }
            }
        }
    }

    /// With a set count that is not a power of two (6 sets x 4 ways) the
    /// set index is `block % sets` and the stored tag `block / sets`; the
    /// cache still agrees with the reference on every outcome, victim,
    /// rank and rank-filtered dirty query and rebuilds the right blocks.
    #[test]
    fn lru_non_power_of_two_sets_match_reference(
        ops in prop::collection::vec(op_strategy(6 * 4 * 3), 1..300),
    ) {
        let config = CacheConfig::new(6 * 4 * 64, 4, 64).unwrap();
        let mut cache = Cache::new(config);
        let mut reference = Reference::new(6, 4);

        for op in &ops {
            apply_both(&mut cache, &mut reference, op)?;
            cache.assert_index_coherent();
            check_lines(&cache, &reference)?;
            for set in 0..6usize {
                for k in 0..=4usize {
                    prop_assert_eq!(
                        harvest(&cache, SetIdx(set as u64), k),
                        reference.dirty_in_lru_ways(set, k),
                        "set {} k {}", set, k
                    );
                }
            }
        }
    }

    /// Under RRIP — where RRPVs tie and ranks are shared, not a
    /// permutation — the incremental index still matches the reference
    /// rank-scan of the tag metadata after every mutation, and the mask
    /// query agrees with per-block probes.
    #[test]
    fn rrip_dirty_index_matches_reference_rank_scan(
        ops in prop::collection::vec(op_strategy(96), 1..250),
    ) {
        use cache_sim::ReplacementKind;
        let config = CacheConfig::new(4 * 4 * 64, 4, 64)
            .unwrap()
            .with_replacement(ReplacementKind::Rrip);
        let mut cache = Cache::new(config);

        for op in ops {
            apply(&mut cache, &op);
            cache.assert_index_coherent();
            for set in 0..4u64 {
                for k in 0..=4usize {
                    let via_mask = harvest(&cache, SetIdx(set), k);
                    let mut via_probe: Vec<u64> = cache
                        .blocks()
                        .filter(|&(b, d, _)| {
                            d && cache.set_of(b) == SetIdx(set)
                                && cache.dirty().probe(b).expect("resident").rank < k
                        })
                        .map(|(b, _, _)| b)
                        .collect();
                    via_probe.sort_unstable();
                    prop_assert_eq!(via_mask, via_probe, "set {} k {}", set, k);
                }
            }
        }
    }

    /// Residency never exceeds capacity and probe() is consistent with
    /// touch() having inserted earlier.
    #[test]
    fn capacity_is_respected(
        blocks in prop::collection::vec(0u64..4096, 1..500),
    ) {
        let mut cache = Cache::new(CacheConfig::new(16 * 8 * 64, 8, 64).unwrap());
        for b in blocks {
            cache.insert(b, 0, InsertPos::Mru, false);
            prop_assert!(cache.resident() <= cache.config().blocks());
            prop_assert!(cache.probe(b), "just-inserted block must be resident");
        }
    }

    /// Recency ranks are a permutation of 0..n within each LRU set.
    #[test]
    fn lru_ranks_form_permutation(
        blocks in prop::collection::vec(0u64..64, 1..100),
    ) {
        let mut cache = Cache::new(CacheConfig::new(4 * 4 * 64, 4, 64).unwrap());
        for b in blocks {
            cache.insert(b, 0, InsertPos::Mru, false);
        }
        for set in 0..4u64 {
            let members: Vec<u64> = cache
                .blocks()
                .map(|(b, _, _)| b)
                .filter(|&b| cache.set_of(b) == SetIdx(set))
                .collect();
            let mut ranks: Vec<usize> = members
                .iter()
                .map(|&b| cache.dirty().probe(b).expect("resident").rank)
                .collect();
            ranks.sort_unstable();
            let expect: Vec<usize> = (0..members.len()).collect();
            prop_assert_eq!(ranks, expect);
        }
    }
}

proptest! {
    /// RRIP mode: structural sanity under arbitrary mixes — capacity is
    /// respected, inserted blocks are resident, and a block promoted by a
    /// hit survives the very next single eviction in its set.
    #[test]
    fn rrip_structural_sanity(
        blocks in prop::collection::vec(0u64..256, 1..300),
    ) {
        use cache_sim::ReplacementKind;
        let config = CacheConfig::new(8 * 4 * 64, 4, 64)
            .unwrap()
            .with_replacement(ReplacementKind::Rrip);
        let mut cache = Cache::new(config);
        for &b in &blocks {
            cache.insert(b, 0, InsertPos::Mru, false);
            prop_assert!(cache.probe(b));
            prop_assert!(cache.resident() <= cache.config().blocks());
            // Promote and check survival against one conflicting insert.
            cache.touch(b);
            let conflicting = b + 8 * 64; // same set, different tag
            cache.insert(conflicting, 0, InsertPos::Mru, false);
            prop_assert!(
                cache.probe(b),
                "a just-promoted block (RRPV 0) must outlive one insertion"
            );
        }
    }
}
