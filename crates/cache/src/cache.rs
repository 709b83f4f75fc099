//! The set-associative cache model: a tags-only tag store with a
//! word-level dirty/rank index.
//!
//! The paper takes dirty bits out of the tag entry so that a lookup touches
//! only tags; this model does the same to its own host memory. A set's
//! ways live in parallel arrays — 4-byte tags, owner threads, replacement
//! state — and validity and dirtiness live only in one validity word and
//! one dirty word per set ([`WayMask`]). A tag is only the set-relative
//! part of a block address (the bits above the set index), as in the
//! hardware the paper prices, so it fits 32 bits for every block below
//! [`CacheConfig::max_block`]. A lookup compares tags alone, and
//! every dirty-state query a writeback mechanism asks ([`DirtyView`]) is
//! answered from the words plus the replacement state: under LRU one
//! recency rank byte per way and nothing else, under RRIP per-way RRPVs
//! with per-set population counts.
//!
//! LRU upkeep is lane-parallel: a promote or a removal is one pass
//! `r -= (r > k)` over the set's rank bytes, an LRU-position insert one
//! valid-masked `+1` pass, the victim is the way at rank 0, and a
//! rank-filtered dirty query is a `rank < k` lane mask ANDed with the
//! dirty word — each eight ways per `u64` word (SWAR), with no
//! element-by-element shifting of a recency stack.

use std::collections::TryReserveError;
use std::error::Error;
use std::fmt;

use dbi::DirtyWords;

use crate::{BlockAddr, ThreadId};

/// Geometry of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    capacity_bytes: u64,
    ways: usize,
    block_bytes: u32,
    replacement: ReplacementKind,
}

/// Error returned for a degenerate [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheConfigError {
    /// Capacity, associativity, or block size was zero.
    ZeroParameter,
    /// Block size was not a power of two.
    BlockNotPowerOfTwo(u32),
    /// Capacity is not an integer number of sets of `ways` blocks.
    UnevenGeometry {
        /// Total blocks implied by capacity / block size.
        blocks: u64,
        /// Requested associativity.
        ways: usize,
    },
    /// Associativity exceeds the 64 ways one [`WayMask`] word can index.
    TooManyWays(usize),
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::ZeroParameter => {
                write!(f, "cache capacity, ways, and block size must be nonzero")
            }
            CacheConfigError::BlockNotPowerOfTwo(b) => {
                write!(f, "block size {b} is not a power of two")
            }
            CacheConfigError::UnevenGeometry { blocks, ways } => {
                write!(f, "{blocks} blocks do not divide into sets of {ways} ways")
            }
            CacheConfigError::TooManyWays(ways) => {
                write!(f, "{ways} ways exceed the 64-way word-level dirty index")
            }
        }
    }
}

impl Error for CacheConfigError {}

impl CacheConfig {
    /// Creates an LRU cache geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheConfigError`] if any parameter is zero, the block
    /// size is not a power of two, the capacity does not divide evenly
    /// into sets, or the associativity exceeds the 64 ways a [`WayMask`]
    /// word can represent.
    pub fn new(
        capacity_bytes: u64,
        ways: usize,
        block_bytes: u32,
    ) -> Result<CacheConfig, CacheConfigError> {
        if capacity_bytes == 0 || ways == 0 || block_bytes == 0 {
            return Err(CacheConfigError::ZeroParameter);
        }
        if ways > 64 {
            return Err(CacheConfigError::TooManyWays(ways));
        }
        if !block_bytes.is_power_of_two() {
            return Err(CacheConfigError::BlockNotPowerOfTwo(block_bytes));
        }
        let blocks = capacity_bytes / u64::from(block_bytes);
        if blocks == 0 || !blocks.is_multiple_of(ways as u64) {
            return Err(CacheConfigError::UnevenGeometry { blocks, ways });
        }
        Ok(CacheConfig {
            capacity_bytes,
            ways,
            block_bytes,
            replacement: ReplacementKind::Lru,
        })
    }

    /// Selects the replacement machinery (default LRU).
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementKind) -> CacheConfig {
        self.replacement = replacement;
        self
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Block size in bytes.
    #[must_use]
    pub fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// Replacement machinery.
    #[must_use]
    pub fn replacement(&self) -> ReplacementKind {
        self.replacement
    }

    /// Total number of blocks.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.capacity_bytes / u64::from(self.block_bytes)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.blocks() / self.ways as u64
    }

    /// The highest block a cache of this geometry can hold. A tag stores
    /// only the block address above the set index, in 32 bits with the
    /// tag `u32::MAX` reserved for the empty way, so the blocks below
    /// `sets × u32::MAX` are the representable ones. A block beyond them
    /// never hits, and inserting it panics.
    #[must_use]
    pub fn max_block(&self) -> BlockAddr {
        self.sets().saturating_mul(u64::from(u32::MAX)) - 1
    }
}

/// The victim-ranking machinery a cache uses within each set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ReplacementKind {
    /// Classic recency stack. [`InsertPos::Mru`] is the normal insertion;
    /// [`InsertPos::Lru`] is the bimodal/LIP insertion DIP uses.
    #[default]
    Lru,
    /// Re-Reference Interval Prediction (2-bit RRPV). [`InsertPos::Mru`]
    /// maps to the SRRIP "long" insertion (RRPV 2), [`InsertPos::Lru`] to
    /// the BRRIP "distant" insertion (RRPV 3).
    Rrip,
}

/// Where a newly inserted block lands in the replacement order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertPos {
    /// Protected position (MRU / RRPV "long").
    Mru,
    /// Eviction-imminent position (LRU / RRPV "distant").
    Lru,
}

/// A block displaced by an insertion or invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The displaced block.
    pub block: BlockAddr,
    /// Whether the tag store believed the block dirty. Caches whose dirty
    /// bits live in a DBI keep this permanently `false`.
    pub dirty: bool,
    /// The thread that inserted the block.
    pub thread: ThreadId,
}

/// Event counters for a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Recency-updating lookups ([`Cache::touch`] and
    /// [`Cache::touch_dirty`]).
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Blocks inserted.
    pub insertions: u64,
    /// Valid blocks displaced by insertions.
    pub evictions: u64,
    /// Displaced blocks whose tag dirty bit was set.
    pub dirty_evictions: u64,
}

/// Typed index of a cache set — the key of every per-set dirty query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetIdx(pub u64);

impl SetIdx {
    /// The raw set number (for hashing into per-set side structures).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The set number as a vector index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SetIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One bit per way of a single set (bit `w` = way `w`) — the word-level
/// currency of the dirty-query API. Masks combine and iterate without
/// touching the heap, which is what lets per-writeback queries return a
/// whole set's worth of answers in one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WayMask(u64);

impl WayMask {
    /// The mask with no ways set.
    pub const EMPTY: WayMask = WayMask(0);

    /// A mask from its raw bit pattern.
    #[must_use]
    pub fn from_bits(bits: u64) -> WayMask {
        WayMask(bits)
    }

    /// The raw bit pattern.
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Whether no way is set.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of ways set.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether way `way` is set.
    #[must_use]
    pub fn contains(self, way: usize) -> bool {
        way < 64 && self.0 >> way & 1 == 1
    }

    /// Iterates the set way numbers, ascending.
    #[must_use]
    pub fn ways(self) -> WayIter {
        WayIter(self.0)
    }
}

impl IntoIterator for WayMask {
    type Item = usize;
    type IntoIter = WayIter;

    fn into_iter(self) -> WayIter {
        WayIter(self.0)
    }
}

/// Iterator over the way numbers set in a [`WayMask`], ascending.
#[derive(Debug, Clone)]
pub struct WayIter(u64);

impl Iterator for WayIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let way = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(way)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for WayIter {}

/// Everything a writeback sweep wants to know about one resident line,
/// answered from a single tag probe plus the dirty/rank index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbedLine {
    /// Tag-store dirty bit.
    pub dirty: bool,
    /// Thread that inserted the block.
    pub owner: ThreadId,
    /// Recency rank: 0 = next victim, `ways-1` = most protected. Under
    /// RRIP, lines sharing an RRPV share a rank.
    pub rank: usize,
}

/// The stored tag of a way that holds no block. Ways store their
/// set-relative tag inverted (`!tag`), so the empty way is the tag
/// `u32::MAX` and a new tag store is zeroed memory, which the allocator
/// hands out without a fill loop. A block whose tag would be `u32::MAX`
/// or more is beyond [`CacheConfig::max_block`].
const EMPTY: u32 = 0;

const RRPV_MAX: u8 = 3;
const RRPV_LONG: u8 = 2;

/// Bit index of `(set, way)` in the slot-per-word [`DirtyWords`] layout.
#[inline]
fn slot_bit(set: usize, way: usize) -> u64 {
    (set * 64 + way) as u64
}

/// The low bit of every byte lane of a `u64`.
const LANE_LO: u64 = 0x0101_0101_0101_0101;
/// The high bit of every byte lane of a `u64`.
const LANE_HI: u64 = 0x8080_8080_8080_8080;

// Lane-parallel arithmetic over one set's LRU rank words: byte lane `l`
// of word `g` is way `8g + l`'s rank, so every step handles eight ways
// at once. Every lane stays below 64: a valid way's rank is below the
// valid count, an invalid way's stale rank is only ever lowered, and the
// lanes past the last way stay 0. So `lane + (0x80 - k)` with `k <= 64`
// never carries out of its lane, and its high bit says `lane >= k`.

/// Packs the high bit of each byte lane into the low 8 bits, lane 0 first.
#[inline]
fn pack_lanes(hi: u64) -> u64 {
    ((hi >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

/// Spreads the low 8 bits of `bits` to the low bit of each byte lane.
#[inline]
fn spread_lanes(bits: u64) -> u64 {
    let picked = (bits & 0xFF).wrapping_mul(LANE_LO) & 0x8040_2010_0804_0201;
    ((picked + !LANE_HI) & LANE_HI) >> 7
}

/// The lanes whose rank is below `k` (`k <= 64`), as a way mask.
#[inline]
fn ranks_below(words: &[u64], k: u8) -> u64 {
    let bias = LANE_LO * u64::from(0x80 - k);
    // Last word first, shifting the mask along: a handful of scalar ops
    // per word (per-word shift counts would vectorize into slow code).
    words
        .iter()
        .rev()
        .fold(0, |mask, &x| mask << 8 | pack_lanes(!(x + bias) & LANE_HI))
}

/// `r -= (r > k)` in every lane: closes the gap a line at rank `k` leaves
/// when it is promoted or removed.
#[inline]
fn demote_above(words: &mut [u64], k: u8) {
    let bias = LANE_LO * u64::from(0x7F - k);
    for x in words {
        *x -= ((*x + bias) & LANE_HI) >> 7;
    }
}

/// `r += 1` in the lanes of the ways in `ways`: makes room at rank 0.
#[inline]
fn bump_ways(words: &mut [u64], mut ways: u64) {
    for x in words {
        *x += spread_lanes(ways);
        ways >>= 8;
    }
}

/// The rank in `way`'s lane.
#[inline]
fn lane(words: &[u64], way: usize) -> u8 {
    (words[way / 8] >> (8 * (way % 8))) as u8
}

/// Sets `way`'s lane to `rank`.
#[inline]
fn set_lane(words: &mut [u64], way: usize, rank: u8) {
    let shift = 8 * (way % 8);
    let x = &mut words[way / 8];
    *x = *x & !(0xFF << shift) | u64::from(rank) << shift;
}

/// A set-associative, write-back cache state model.
///
/// Blocks are identified by [`BlockAddr`]; the set index is the low bits of
/// the block address (block-interleaved), matching how consecutive blocks of
/// a DRAM row spread across cache sets — the effect that makes DRAM-aware
/// writeback nontrivial (paper Section 3.1).
///
/// Dirty-state and recency-rank queries go through [`Cache::dirty`], which
/// returns a [`DirtyView`] over the word-level index. Dirty bits change
/// through [`Cache::mark_dirty`], and through the single-walk forms of the
/// hot paths: [`Cache::touch_dirty`] (a store hit), [`Cache::fill`] and
/// [`Cache::insert`] (an insertion's dirty state), and
/// [`Cache::take_dirty`] (a row sweep's probe-and-clean).
///
/// The tag store is a struct of arrays indexed by `set * ways + way`, with
/// one source of truth per fact: 32-bit set-relative tags (a lookup
/// compares only these; a block is rebuilt from its set and tag only where
/// it leaves the tag store),
/// owners, the per-set valid/dirty words, and the recency order (a rank
/// byte per way under LRU, per-way RRPVs under RRIP).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `(sets() - 1, log2(sets()))` when the set count is a power of two
    /// (the common geometry), letting the set/tag split mask and shift
    /// instead of divide.
    pow2_split: Option<(u64, u32)>,
    /// Per-way set-relative tags (the block address above the set index),
    /// stored inverted; [`EMPTY`] where the way holds no block.
    tags: Vec<u32>,
    /// Per-way inserting thread; stale where the way holds no block.
    threads: Vec<ThreadId>,
    /// Per-set validity words (bit `set * 64 + w` = way `w` of `set` holds
    /// a block), on the workspace-wide [`DirtyWords`] storage.
    valid: DirtyWords,
    /// Per-set dirty words, same layout; always a subset of `valid`.
    dirty: DirtyWords,
    /// Per-set recency rank words (LRU only; empty under RRIP), `ways`
    /// rounded up to whole words of 8 lanes per set: byte lane `w % 8` of
    /// the set's word `w / 8` is way `w`'s rank, 0 = next victim. The valid ways of a set hold a permutation of `0..n`;
    /// an invalid way's lane is stale but below 64, and the lanes past the
    /// last way are 0, as the lane arithmetic requires.
    rank: Vec<u64>,
    /// Per-way re-reference prediction value (RRIP only; empty under LRU).
    rrpv: Vec<u8>,
    /// Per-set RRPV population counts (RRIP only; empty under LRU), so a
    /// rank is three adds: RRPVs tie, and ranks are shared.
    rrpv_cnt: Vec<[u8; 4]>,
    stats: CacheStats,
}

/// Lengths of a cache's per-way and per-set arrays: (ways, LRU rank words,
/// RRIP ways, RRIP sets).
fn array_lens(config: &CacheConfig) -> (usize, usize, usize, usize) {
    let blocks = usize::try_from(config.blocks()).unwrap_or(usize::MAX);
    let (lru, rrip) = match config.replacement {
        ReplacementKind::Lru => (blocks, 0),
        ReplacementKind::Rrip => (0, blocks),
    };
    (
        blocks,
        lru / config.ways * config.ways.div_ceil(8),
        rrip,
        rrip / config.ways,
    )
}

/// A vector of `n` copies of `value`, or the error if it cannot be
/// allocated.
fn try_filled<T: Clone>(n: usize, value: T) -> Result<Vec<T>, TryReserveError> {
    let mut v = Vec::new();
    v.try_reserve_exact(n)?;
    v.resize(n, value);
    Ok(v)
}

impl Cache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let (blocks, rank, rrip, rrip_sets) = array_lens(&config);
        Cache::assemble(
            config,
            vec![EMPTY; blocks],
            vec![0; blocks],
            vec![0; rank],
            vec![0; rrip],
            vec![[0; 4]; rrip_sets],
        )
    }

    /// Creates an empty cache, or fails without aborting when its tag
    /// store cannot be allocated — for geometries that come from user
    /// input. It touches every page of its arrays, where [`Cache::new`]
    /// leaves the zeroed ones to be faulted in on first use.
    ///
    /// # Errors
    ///
    /// Returns the allocator's error if any per-way or per-set array does
    /// not fit in memory.
    pub fn try_new(config: CacheConfig) -> Result<Self, TryReserveError> {
        let (blocks, rank, rrip, rrip_sets) = array_lens(&config);
        Ok(Cache::assemble(
            config,
            try_filled(blocks, EMPTY)?,
            try_filled(blocks, 0)?,
            try_filled(rank, 0)?,
            try_filled(rrip, 0)?,
            try_filled(rrip_sets, [0; 4])?,
        ))
    }

    fn assemble(
        config: CacheConfig,
        tags: Vec<u32>,
        threads: Vec<ThreadId>,
        rank: Vec<u64>,
        rrpv: Vec<u8>,
        rrpv_cnt: Vec<[u8; 4]>,
    ) -> Self {
        let sets = config.sets();
        Cache {
            config,
            pow2_split: sets
                .is_power_of_two()
                .then(|| (sets - 1, sets.trailing_zeros())),
            tags,
            threads,
            valid: DirtyWords::per_word_slots(sets as usize),
            dirty: DirtyWords::per_word_slots(sets as usize),
            rank,
            rrpv,
            rrpv_cnt,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Set index of `block`.
    #[must_use]
    #[inline]
    pub fn set_of(&self, block: BlockAddr) -> SetIdx {
        SetIdx(self.set_and_tag(block).0)
    }

    /// `block`'s set index and the address bits above it, at full width.
    #[inline]
    fn set_and_tag(&self, block: BlockAddr) -> (u64, u64) {
        match self.pow2_split {
            Some((mask, bits)) => (block & mask, block >> bits),
            None => {
                let sets = self.config.sets();
                (block % sets, block / sets)
            }
        }
    }

    /// Splits `block` into its set and its 32-bit set-relative tag in
    /// stored (inverted) form; `None` if the tag does not fit below
    /// `u32::MAX` (the block is beyond [`CacheConfig::max_block`] and can
    /// never be resident).
    #[inline]
    fn split(&self, block: BlockAddr) -> Option<(usize, u32)> {
        let (set, tag) = self.set_and_tag(block);
        (tag < u64::from(u32::MAX)).then_some((set as usize, !(tag as u32)))
    }

    /// The block whose split is `(set, tag)`: the inverse of
    /// [`split`](Cache::split), where a block leaves the tag store.
    #[inline]
    fn block_of(&self, set: usize, stored: u32) -> BlockAddr {
        debug_assert_ne!(stored, EMPTY, "the empty tag names no block");
        let tag = !stored;
        match self.pow2_split {
            Some((_, bits)) => u64::from(tag) << bits | set as u64,
            None => u64::from(tag) * self.config.sets() + set as u64,
        }
    }

    /// The `(set, way)` holding `block`, from a walk over the set's tags.
    #[inline]
    fn find(&self, block: BlockAddr) -> Option<(usize, usize)> {
        let (set, tag) = self.split(block)?;
        let base = set * self.config.ways;
        self.tags[base..base + self.config.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|way| (set, way))
    }

    /// Probes for `block` without updating replacement state or stats
    /// (a coherence-style or metadata probe).
    #[must_use]
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Recency rank of the valid line at `(set, way)`: 0 = next victim.
    /// O(1) — a byte read under LRU, three adds under RRIP.
    #[inline]
    fn rank_of(&self, set: usize, way: usize) -> usize {
        let i = set * self.config.ways + way;
        match self.config.replacement {
            ReplacementKind::Lru => usize::from(lane(self.ranks(set), way)),
            ReplacementKind::Rrip => self.rrpv_cnt[set][usize::from(self.rrpv[i]) + 1..]
                .iter()
                .map(|&x| usize::from(x))
                .sum(),
        }
    }

    /// The LRU rank words of `set` (LRU only).
    #[inline]
    fn ranks(&self, set: usize) -> &[u64] {
        let words = self.config.ways.div_ceil(8);
        &self.rank[set * words..(set + 1) * words]
    }

    /// Mutable [`ranks`](Cache::ranks).
    #[inline]
    fn ranks_mut(&mut self, set: usize) -> &mut [u64] {
        let words = self.config.ways.div_ceil(8);
        &mut self.rank[set * words..(set + 1) * words]
    }

    /// Empties the valid way `(set, way)`, returning what it held.
    #[inline]
    fn remove(&mut self, set: usize, way: usize) -> Victim {
        let i = set * self.config.ways + way;
        let victim = Victim {
            block: self.block_of(set, self.tags[i]),
            dirty: self.dirty.get(slot_bit(set, way)),
            thread: self.threads[i],
        };
        self.tags[i] = EMPTY;
        self.valid.clear(slot_bit(set, way));
        self.dirty.clear(slot_bit(set, way));
        match self.config.replacement {
            ReplacementKind::Lru => {
                // Every line that was more protected moves one rank down.
                let ranks = self.ranks_mut(set);
                let k = lane(ranks, way);
                demote_above(ranks, k);
            }
            ReplacementKind::Rrip => {
                self.rrpv_cnt[set][usize::from(self.rrpv[i])] -= 1;
            }
        }
        victim
    }

    /// Gives the empty way `(set, way)` its replacement position for an
    /// insertion at `pos`; the caller then marks the way valid.
    #[inline]
    fn place(&mut self, set: usize, way: usize, pos: InsertPos) {
        let base = set * self.config.ways;
        match self.config.replacement {
            ReplacementKind::Lru => match pos {
                // Newer than everything resident: top rank.
                InsertPos::Mru => {
                    let n = self.valid.word(set).count_ones() as u8;
                    set_lane(self.ranks_mut(set), way, n);
                }
                // Older than everything resident: rank 0, rest move up.
                InsertPos::Lru => {
                    let valid = self.valid.word(set);
                    let ranks = self.ranks_mut(set);
                    bump_ways(ranks, valid);
                    set_lane(ranks, way, 0);
                }
            },
            ReplacementKind::Rrip => {
                let v = match pos {
                    InsertPos::Mru => RRPV_LONG,
                    InsertPos::Lru => RRPV_MAX,
                };
                self.rrpv[base + way] = v;
                self.rrpv_cnt[set][usize::from(v)] += 1;
            }
        }
    }

    /// Promotes the valid line at `(set, way)`: the recency update under
    /// LRU (one lane pass over the set's ranks), the RRPV reset under RRIP.
    #[inline]
    fn promote(&mut self, set: usize, way: usize) {
        match self.config.replacement {
            ReplacementKind::Lru => {
                let top = self.valid.word(set).count_ones() as u8 - 1;
                let ranks = self.ranks_mut(set);
                let k = lane(ranks, way);
                demote_above(ranks, k);
                set_lane(ranks, way, top);
            }
            ReplacementKind::Rrip => {
                let v = &mut self.rrpv[set * self.config.ways + way];
                let c = &mut self.rrpv_cnt[set];
                c[usize::from(*v)] -= 1;
                c[0] += 1;
                *v = 0;
            }
        }
    }

    /// The counted, promoting lookup behind [`touch`](Cache::touch) and
    /// [`touch_dirty`](Cache::touch_dirty): the hit's `(set, way)`.
    #[inline]
    fn lookup(&mut self, block: BlockAddr) -> Option<(usize, usize)> {
        self.stats.lookups += 1;
        let (set, way) = self.find(block)?;
        self.stats.hits += 1;
        self.promote(set, way);
        Some((set, way))
    }

    /// Looks up `block` and, on a hit, promotes it (recency update / RRPV
    /// reset). Returns whether it hit. This is the demand-access path.
    #[inline]
    pub fn touch(&mut self, block: BlockAddr) -> bool {
        self.lookup(block).is_some()
    }

    /// [`touch`](Cache::touch) that also sets the dirty bit on a hit — a
    /// store or writeback hit in one tag walk, with the same effect as
    /// `touch` followed by `mark_dirty(block, true)`. Returns whether it
    /// hit; a miss changes nothing but the lookup count.
    #[inline]
    pub fn touch_dirty(&mut self, block: BlockAddr) -> bool {
        let hit = self.lookup(block);
        if let Some((set, way)) = hit {
            self.dirty.set(slot_bit(set, way));
        }
        hit.is_some()
    }

    /// Inserts `block` at `pos`, returning the displaced victim if the set
    /// was full. If the block is already resident, nothing is inserted:
    /// a `dirty` refill sets its dirty bit (a clean one leaves the bit as
    /// it was), its recency stays unchanged, and `None` is returned.
    ///
    /// # Panics
    ///
    /// Panics if `block` is beyond [`CacheConfig::max_block`] (its tag
    /// would not fit below the empty-way tag).
    #[inline]
    pub fn insert(
        &mut self,
        block: BlockAddr,
        thread: ThreadId,
        pos: InsertPos,
        dirty: bool,
    ) -> Option<Victim> {
        if let Some((set, way)) = self.find(block) {
            // Refill of a resident block: merge dirty state, keep recency.
            if dirty {
                self.dirty.set(slot_bit(set, way));
            }
            return None;
        }
        self.fill(block, thread, pos, dirty)
    }

    /// [`insert`](Cache::insert) of a block the caller knows is absent (it
    /// just missed), without the residency walk: picks the way, evicts
    /// the victim of a full set, and installs the block at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is beyond [`CacheConfig::max_block`] (its tag
    /// would not fit below the empty-way tag). Debug builds also panic if
    /// `block` is resident.
    #[inline]
    pub fn fill(
        &mut self,
        block: BlockAddr,
        thread: ThreadId,
        pos: InsertPos,
        dirty: bool,
    ) -> Option<Victim> {
        let Some((set, tag)) = self.split(block) else {
            untaggable(block, self.config.max_block())
        };
        debug_assert!(
            self.find(block).is_none(),
            "fill of resident block {block:#x}"
        );
        self.stats.insertions += 1;
        // The lowest empty way, or the replacement victim of a full set.
        let free = (!self.valid.word(set)).trailing_zeros() as usize;
        let (way, victim) = if free < self.config.ways {
            (free, None)
        } else {
            let way = self.victim_way(set);
            let victim = self.remove(set, way);
            self.stats.evictions += 1;
            self.stats.dirty_evictions += u64::from(victim.dirty);
            (way, Some(victim))
        };
        let i = set * self.config.ways + way;
        self.tags[i] = tag;
        self.threads[i] = thread;
        self.place(set, way, pos);
        self.valid.set(slot_bit(set, way));
        self.dirty.assign(slot_bit(set, way), dirty);
        victim
    }

    /// The way a full `set` evicts next.
    #[inline]
    fn victim_way(&mut self, set: usize) -> usize {
        let base = set * self.config.ways;
        match self.config.replacement {
            // The one valid way at rank 0.
            ReplacementKind::Lru => {
                (ranks_below(self.ranks(set), 1) & self.valid.word(set)).trailing_zeros() as usize
            }
            ReplacementKind::Rrip => {
                let rrpv = &mut self.rrpv[base..base + self.config.ways];
                loop {
                    if let Some(way) = rrpv.iter().position(|&v| v >= RRPV_MAX) {
                        break way;
                    }
                    rrpv.iter_mut().for_each(|v| *v += 1);
                    // Aging only runs when no line sat at RRPV_MAX, so the
                    // top bucket is empty before the shift.
                    let c = &mut self.rrpv_cnt[set];
                    debug_assert_eq!(c[usize::from(RRPV_MAX)], 0);
                    *c = [0, c[0], c[1], c[2]];
                }
            }
        }
    }

    /// Removes `block`, returning its line if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Victim> {
        let (set, way) = self.find(block)?;
        Some(self.remove(set, way))
    }

    /// Sets or clears the tag-store dirty bit. Returns `false` if the
    /// block is not resident.
    #[inline]
    pub fn mark_dirty(&mut self, block: BlockAddr, dirty: bool) -> bool {
        match self.find(block) {
            Some((set, way)) => {
                self.dirty.assign(slot_bit(set, way), dirty);
                true
            }
            None => false,
        }
    }

    /// A row sweep's probe-and-clean: if `block` is resident, dirty, and
    /// ranked below `ways_from_lru`, clears its dirty bit and returns the
    /// thread that inserted it. Otherwise changes nothing and returns
    /// `None`. Equivalent to [`DirtyView::probe`], the rank filter, then
    /// `mark_dirty(block, false)`, but the walk compares only the tags of
    /// the candidate ways ([`DirtyView::in_lru_ways`]) — none at all in a
    /// set with no dirty line.
    #[inline]
    pub fn take_dirty(&mut self, block: BlockAddr, ways_from_lru: usize) -> Option<ThreadId> {
        let (set, tag) = self.split(block)?;
        let base = set * self.config.ways;
        let candidates = self.dirty().in_lru_ways(SetIdx(set as u64), ways_from_lru);
        let way = candidates.ways().find(|&w| self.tags[base + w] == tag)?;
        self.dirty.clear(slot_bit(set, way));
        Some(self.threads[base + way])
    }

    /// The read side of the dirty-query API: a borrowed view over the
    /// word-level dirty/rank index. All queries are allocation-free and
    /// cost O(1) per answered word or probed line.
    #[must_use]
    #[inline]
    pub fn dirty(&self) -> DirtyView<'_> {
        DirtyView { cache: self }
    }

    /// Thread that inserted `block`; `None` if not resident.
    #[must_use]
    pub fn owner(&self, block: BlockAddr) -> Option<ThreadId> {
        self.find(block)
            .map(|(set, way)| self.threads[set * self.config.ways + way])
    }

    /// Iterates over all resident blocks as `(block, dirty, thread)`.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockAddr, bool, ThreadId)> + '_ {
        self.valid.iter_ones().map(|bit| {
            let set = (bit / 64) as usize;
            let i = set * self.config.ways + (bit % 64) as usize;
            (
                self.block_of(set, self.tags[i]),
                self.dirty.get(bit),
                self.threads[i],
            )
        })
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn resident(&self) -> u64 {
        self.valid.count_ones()
    }

    /// Event counters since construction or the last
    /// [`take_stats`](Cache::take_stats).
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Returns the counters and resets them.
    pub fn take_stats(&mut self) -> CacheStats {
        std::mem::take(&mut self.stats)
    }

    /// Test support: checks the tag store's invariants and panics on any
    /// violation — the valid words name exactly the non-empty tags, no set
    /// holds a tag twice, dirty ways are valid, and the replacement state
    /// is well formed (the valid ways' ranks a permutation of `0..n` and
    /// every rank byte below 64 under LRU; in-range RRPVs matching their
    /// population counts under RRIP).
    #[doc(hidden)]
    pub fn assert_index_coherent(&self) {
        let ways = self.config.ways;
        for set in 0..self.config.sets() as usize {
            let base = set * ways;
            let valid = self.valid.word(set);
            let tagged = (0..ways)
                .filter(|&w| self.tags[base + w] != EMPTY)
                .fold(0u64, |m, w| m | 1 << w);
            assert_eq!(
                valid, tagged,
                "valid word of set {set} != its non-empty tags"
            );
            let mut tags: Vec<u32> = WayIter(valid).map(|w| self.tags[base + w]).collect();
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(
                tags.len(),
                valid.count_ones() as usize,
                "set {set} holds a tag twice"
            );
            let stray = self.dirty.word(set) & !valid;
            assert_eq!(stray, 0, "dirty ways {stray:#x} of set {set} hold no block");
            match self.config.replacement {
                ReplacementKind::Lru => {
                    // n distinct ranks, each below n, are 0..n exactly.
                    let n = valid.count_ones() as usize;
                    let mut seen = 0u64;
                    let ranks = self.ranks(set);
                    for way in WayIter(valid) {
                        let r = usize::from(lane(ranks, way));
                        assert!(r < n, "rank {r} of set {set} way {way} >= {n} valid");
                        assert_eq!(seen >> r & 1, 0, "rank {r} twice in set {set}");
                        seen |= 1 << r;
                    }
                    assert!(
                        (0..ranks.len() * 8).all(|w| lane(ranks, w) < 64),
                        "rank lane >= 64 in set {set}: {ranks:x?}"
                    );
                    assert!(
                        (ways..ranks.len() * 8).all(|w| lane(ranks, w) == 0),
                        "padding lane set in set {set}: {ranks:x?}"
                    );
                }
                ReplacementKind::Rrip => {
                    let mut c = [0u8; 4];
                    for way in WayIter(valid) {
                        let v = self.rrpv[base + way];
                        assert!(v <= RRPV_MAX, "RRPV {v} of set {set} way {way}");
                        c[usize::from(v)] += 1;
                    }
                    assert_eq!(c, self.rrpv_cnt[set], "RRPV counts of set {set}");
                }
            }
        }
    }
}

/// The panic of a [`Cache::fill`] whose block has no 32-bit tag.
#[cold]
#[inline(never)]
fn untaggable(block: BlockAddr, max: BlockAddr) -> ! {
    panic!(
        "block {block:#x} is beyond this cache's 32-bit tags (max block {max:#x}): \
         its tag would be the empty tag or wider"
    )
}

/// Read-only view over a [`Cache`]'s word-level dirty/rank index.
///
/// This is the *entire* dirty-query surface: residency-aware dirty bits,
/// single-probe line summaries, and per-set [`WayMask`] answers to the
/// rank-filtered questions the Virtual Write Queue asks on every writeback.
/// Nothing here allocates, and a rank filter reads the set's rank words
/// eight ways at a time instead of visiting lines one by one.
#[derive(Debug, Clone, Copy)]
pub struct DirtyView<'a> {
    cache: &'a Cache,
}

impl<'a> DirtyView<'a> {
    /// Tag-store dirty bit of `block`; `None` if not resident.
    #[must_use]
    #[inline]
    pub fn is_dirty(&self, block: BlockAddr) -> Option<bool> {
        let (set, way) = self.cache.find(block)?;
        Some(self.cache.dirty.get(slot_bit(set, way)))
    }

    /// Dirty bit, owning thread, and recency rank of `block` from a single
    /// tag probe; `None` if not resident. A row sweep that also cleans
    /// what it finds uses [`Cache::take_dirty`] instead.
    #[must_use]
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> Option<ProbedLine> {
        let (set, way) = self.cache.find(block)?;
        Some(ProbedLine {
            dirty: self.cache.dirty.get(slot_bit(set, way)),
            owner: self.cache.threads[set * self.cache.config.ways + way],
            rank: self.cache.rank_of(set, way),
        })
    }

    /// The dirty ways of `set`, as one word.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    #[inline]
    pub fn mask(&self, set: SetIdx) -> WayMask {
        WayMask(self.cache.dirty.word(set.index()))
    }

    /// The dirty ways of `set` whose recency rank is below `ways_from_lru`
    /// — the candidates a Virtual Write Queue sweep would harvest, and the
    /// word a Set State Vector refresh reduces to one bit. The common case
    /// (no dirty line in the set) is a single load.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    #[inline]
    pub fn in_lru_ways(&self, set: SetIdx, ways_from_lru: usize) -> WayMask {
        let dirty = self.cache.dirty.word(set.index());
        if dirty == 0 {
            return WayMask::EMPTY;
        }
        match self.cache.config.replacement {
            // Every rank is below the associativity.
            ReplacementKind::Lru if ways_from_lru >= self.cache.config.ways => WayMask(dirty),
            // A `rank < k` lane mask, ANDed with the dirty word (a subset
            // of the valid ways).
            ReplacementKind::Lru => {
                WayMask(dirty & ranks_below(self.cache.ranks(set.index()), ways_from_lru as u8))
            }
            ReplacementKind::Rrip => {
                let mut out = 0u64;
                for way in WayIter(dirty) {
                    if self.cache.rank_of(set.index(), way) < ways_from_lru {
                        out |= 1 << way;
                    }
                }
                WayMask(out)
            }
        }
    }

    /// Resolves a [`WayMask`] of `set` to block addresses, in way order.
    ///
    /// # Panics
    ///
    /// The iterator panics if `set` is out of range or `mask` names an
    /// invalid way.
    pub fn blocks(&self, set: SetIdx, mask: WayMask) -> impl Iterator<Item = BlockAddr> + 'a {
        let cache = self.cache;
        let base = set.index() * cache.config.ways;
        mask.ways()
            .map(move |w| cache.block_of(set.index(), cache.tags[base + w]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_new_reports_a_tag_store_it_cannot_allocate() {
        // 2^56 ways of 4-byte tags: more than a 47-bit address space holds.
        let huge = CacheConfig::new(1 << 62, 16, 64).unwrap();
        assert!(Cache::try_new(huge).is_err());
        let config = CacheConfig::new(64 * 1024, 8, 64).unwrap();
        let (mut a, mut b) = (Cache::new(config), Cache::try_new(config).unwrap());
        for block in [3, 1 << 20, 77] {
            a.fill(block, 0, InsertPos::Mru, true);
            b.fill(block, 0, InsertPos::Mru, true);
        }
        assert_eq!(
            a.blocks().collect::<Vec<_>>(),
            b.blocks().collect::<Vec<_>>()
        );
    }

    fn tiny(ways: usize) -> Cache {
        // 4 sets x `ways` ways, 64 B blocks.
        Cache::new(CacheConfig::new(4 * ways as u64 * 64, ways, 64).unwrap())
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new(0, 2, 64).is_err());
        assert!(CacheConfig::new(1024, 0, 64).is_err());
        assert!(CacheConfig::new(1024, 2, 0).is_err());
        assert!(matches!(
            CacheConfig::new(1024, 2, 48),
            Err(CacheConfigError::BlockNotPowerOfTwo(48))
        ));
        assert!(matches!(
            CacheConfig::new(64 * 3, 2, 64),
            Err(CacheConfigError::UnevenGeometry { .. })
        ));
        assert!(matches!(
            CacheConfig::new(128 * 64, 128, 64),
            Err(CacheConfigError::TooManyWays(128))
        ));
        let c = CacheConfig::new(2 * 1024 * 1024, 16, 64).unwrap();
        assert_eq!(c.blocks(), 32 * 1024);
        assert_eq!(c.sets(), 2048);
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = tiny(2);
        assert!(!c.touch(5));
        c.insert(5, 0, InsertPos::Mru, false);
        assert!(c.touch(5));
        assert!(c.probe(5));
        assert!(!c.probe(9));
        assert_eq!(c.stats().lookups, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny(2);
        // Blocks 0, 4, 8 share set 0 (4 sets).
        c.insert(0, 0, InsertPos::Mru, false);
        c.insert(4, 0, InsertPos::Mru, true);
        c.touch(0); // 4 is now LRU
        let v = c.insert(8, 0, InsertPos::Mru, false).expect("eviction");
        assert_eq!(v.block, 4);
        assert!(v.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
        assert!(c.probe(0) && c.probe(8) && !c.probe(4));
        c.assert_index_coherent();
    }

    #[test]
    fn lru_insertion_position_is_next_victim() {
        let mut c = tiny(2);
        c.insert(0, 0, InsertPos::Mru, false);
        c.insert(4, 0, InsertPos::Lru, false); // bimodal insertion
        let v = c.insert(8, 0, InsertPos::Mru, false).expect("eviction");
        assert_eq!(v.block, 4, "LIP-inserted block evicted first");
        c.assert_index_coherent();
    }

    #[test]
    fn rrip_promote_on_hit() {
        let mut c = Cache::new(
            CacheConfig::new(4 * 2 * 64, 2, 64)
                .unwrap()
                .with_replacement(ReplacementKind::Rrip),
        );
        c.insert(0, 0, InsertPos::Mru, false);
        c.insert(4, 0, InsertPos::Mru, false);
        c.touch(0); // RRPV 0; block 4 stays at RRPV 2
        let v = c.insert(8, 0, InsertPos::Mru, false).expect("eviction");
        assert_eq!(v.block, 4);
        c.assert_index_coherent();
    }

    #[test]
    fn rrip_distant_insertion_evicted_first() {
        let mut c = Cache::new(
            CacheConfig::new(4 * 2 * 64, 2, 64)
                .unwrap()
                .with_replacement(ReplacementKind::Rrip),
        );
        c.insert(0, 0, InsertPos::Mru, false);
        c.insert(4, 0, InsertPos::Lru, false); // RRPV 3
        let v = c.insert(8, 0, InsertPos::Mru, false).expect("eviction");
        assert_eq!(v.block, 4);
        c.assert_index_coherent();
    }

    #[test]
    fn refill_of_resident_block_merges_dirty() {
        let mut c = tiny(2);
        c.insert(0, 0, InsertPos::Mru, false);
        assert_eq!(c.dirty().is_dirty(0), Some(false));
        assert!(c.insert(0, 0, InsertPos::Mru, true).is_none());
        assert_eq!(c.dirty().is_dirty(0), Some(true));
        assert_eq!(c.stats().insertions, 1, "refill is not a new insertion");
        c.assert_index_coherent();
    }

    #[test]
    fn dirty_bit_roundtrip_and_invalidate() {
        let mut c = tiny(2);
        c.insert(7, 3, InsertPos::Mru, false);
        assert!(c.mark_dirty(7, true));
        assert_eq!(c.dirty().is_dirty(7), Some(true));
        assert!(c.mark_dirty(7, false));
        assert_eq!(c.dirty().is_dirty(7), Some(false));
        assert!(!c.mark_dirty(9, true));
        let v = c.invalidate(7).expect("resident");
        assert_eq!(v.thread, 3);
        assert!(c.invalidate(7).is_none());
        assert_eq!(c.dirty().is_dirty(7), None);
        c.assert_index_coherent();
    }

    #[test]
    fn probe_rank_orders_by_recency() {
        let mut c = tiny(4);
        for b in [0u64, 4, 8, 12] {
            c.insert(b, 0, InsertPos::Mru, false);
        }
        let rank = |c: &Cache, b: u64| c.dirty().probe(b).map(|p| p.rank);
        assert_eq!(rank(&c, 0), Some(0));
        assert_eq!(rank(&c, 12), Some(3));
        c.touch(0);
        assert_eq!(rank(&c, 0), Some(3));
        assert_eq!(rank(&c, 4), Some(0));
        assert_eq!(rank(&c, 99), None);
        c.assert_index_coherent();
    }

    #[test]
    fn in_lru_ways_filters_by_rank_and_dirtiness() {
        let mut c = tiny(4);
        c.insert(0, 0, InsertPos::Mru, true); // rank 0 after later inserts
        c.insert(4, 0, InsertPos::Mru, false); // rank 1, clean
        c.insert(8, 0, InsertPos::Mru, true); // rank 2
        c.insert(12, 0, InsertPos::Mru, true); // rank 3 (MRU)
        let harvest = |c: &Cache, k: usize| -> Vec<u64> {
            let set = c.set_of(0);
            let mut v: Vec<u64> = c
                .dirty()
                .blocks(set, c.dirty().in_lru_ways(set, k))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(harvest(&c, 2), vec![0]);
        assert_eq!(harvest(&c, 3), vec![0, 8]);
        assert_eq!(harvest(&c, 4), vec![0, 8, 12]);
        assert!(
            c.dirty().in_lru_ways(c.set_of(1), 4).is_empty(),
            "other set is empty"
        );
        assert_eq!(c.dirty().mask(c.set_of(0)).count(), 3);
        c.assert_index_coherent();
    }

    #[test]
    fn way_mask_iterates_set_bits_ascending() {
        let m = WayMask::from_bits(0b1010_0001);
        assert_eq!(m.ways().collect::<Vec<_>>(), vec![0, 5, 7]);
        assert_eq!(m.count(), 3);
        assert!(m.contains(5) && !m.contains(1));
        assert!(WayMask::EMPTY.is_empty());
        assert_eq!(m.into_iter().len(), 3);
    }

    #[test]
    fn blocks_iterates_resident_lines() {
        let mut c = tiny(2);
        c.insert(3, 1, InsertPos::Mru, true);
        c.insert(6, 2, InsertPos::Mru, false);
        let mut all: Vec<_> = c.blocks().collect();
        all.sort_unstable();
        assert_eq!(all, vec![(3, true, 1), (6, false, 2)]);
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn stats_count_lookups_and_hits() {
        let mut c = tiny(2);
        c.touch(0);
        c.insert(0, 0, InsertPos::Mru, false);
        c.touch(0);
        assert_eq!((c.stats().lookups, c.stats().hits), (2, 1));
        let taken = c.take_stats();
        assert_eq!(taken.lookups, 2);
        assert_eq!(c.stats().lookups, 0);
    }

    #[test]
    fn rrip_index_survives_aging_and_ties() {
        let mut c = Cache::new(
            CacheConfig::new(2 * 4 * 64, 4, 64)
                .unwrap()
                .with_replacement(ReplacementKind::Rrip),
        );
        // Fill one set, force several aging rounds, and keep RRPV ties
        // around: ranks are shared, the index must agree with the scan.
        for b in [0u64, 2, 4, 6, 8, 10, 12] {
            c.insert(b, 0, InsertPos::Mru, b % 4 == 0);
            c.touch(b / 2 * 2);
            c.assert_index_coherent();
        }
        let set = c.set_of(0);
        let k = 2;
        let via_index: Vec<u64> = {
            let mut v: Vec<u64> = c
                .dirty()
                .blocks(set, c.dirty().in_lru_ways(set, k))
                .collect();
            v.sort_unstable();
            v
        };
        let via_probe: Vec<u64> = {
            let mut v: Vec<u64> = c
                .blocks()
                .filter(|&(b, d, _)| {
                    d && c.set_of(b) == set && c.dirty().probe(b).unwrap().rank < k
                })
                .map(|(b, _, _)| b)
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(via_index, via_probe);
    }

    #[test]
    fn the_empty_tag_is_never_resident() {
        let mut c = tiny(2);
        assert!(!c.touch(u64::MAX) && !c.probe(u64::MAX));
        assert_eq!(c.dirty().probe(u64::MAX), None);
        assert!(!c.mark_dirty(u64::MAX, true) && c.invalidate(u64::MAX).is_none());
        c.assert_index_coherent();
    }

    #[test]
    #[should_panic(expected = "empty tag")]
    fn inserting_the_empty_tag_panics() {
        tiny(2).insert(u64::MAX, 0, InsertPos::Mru, false);
    }

    /// The tiny 4-set geometry and a 6-set one, whose set/tag split
    /// divides instead of masking.
    fn pow2_and_not() -> [Cache; 2] {
        [
            tiny(4),
            Cache::new(CacheConfig::new(6 * 4 * 64, 4, 64).unwrap()),
        ]
    }

    #[test]
    fn max_block_is_the_last_block_with_a_32_bit_tag() {
        let [a, b] = pow2_and_not();
        assert_eq!(a.config().max_block(), 4 * u64::from(u32::MAX) - 1);
        assert_eq!(b.config().max_block(), 6 * u64::from(u32::MAX) - 1);
        // A cache with more than 2^32 sets tags every block but the last.
        let huge = CacheConfig::new(1 << 40, 1, 64).unwrap();
        assert_eq!(huge.max_block(), u64::MAX - 1);
    }

    #[test]
    fn the_largest_representable_block_round_trips() {
        for mut c in pow2_and_not() {
            let max = c.config().max_block();
            let sets = c.config().sets();
            let set = c.set_of(max);
            assert_eq!(set.raw(), sets - 1);
            assert!(c.fill(max, 3, InsertPos::Mru, true).is_none());
            assert!(c.probe(max) && c.touch(max));
            assert_eq!(c.blocks().collect::<Vec<_>>(), [(max, true, 3)]);
            let view = c.dirty();
            assert_eq!(view.blocks(set, view.mask(set)).collect::<Vec<_>>(), [max]);

            // Three smaller blocks of its set fill it; a fourth evicts it.
            for k in 1..=4 {
                let victim = c.fill(max - k * sets, 0, InsertPos::Mru, false);
                assert_eq!(victim.is_some(), k == 4);
                if let Some(v) = victim {
                    assert_eq!((v.block, v.dirty, v.thread), (max, true, 3));
                }
            }
            c.assert_index_coherent();
        }
    }

    #[test]
    fn the_first_unrepresentable_block_never_hits_or_aliases() {
        for mut c in pow2_and_not() {
            let sets = c.config().sets();
            let over = c.config().max_block() + 1;
            // Blocks 0 and `sets` have tags 0 and 1; `over` and the two
            // blocks past it whose tags are 2^32 and 2^32 + 1 must not
            // match them, nor an empty way.
            c.fill(0, 0, InsertPos::Mru, true);
            c.fill(sets, 0, InsertPos::Mru, true);
            for b in [over, sets << 32, (sets << 32) + sets] {
                assert!(!c.touch(b) && !c.touch_dirty(b) && !c.probe(b), "{b:#x}");
                assert_eq!(c.take_dirty(b, usize::MAX), None, "{b:#x}");
                assert_eq!(c.dirty().probe(b), None, "{b:#x}");
                assert!(!c.mark_dirty(b, false) && c.invalidate(b).is_none());
                assert_eq!(c.owner(b), None);
            }
            assert_eq!(c.dirty().mask(SetIdx(0)).count(), 2, "nothing cleaned");
        }
    }

    #[test]
    #[should_panic(expected = "empty tag")]
    fn filling_the_first_unrepresentable_block_panics() {
        let [_, mut c] = pow2_and_not();
        let over = c.config().max_block() + 1;
        c.fill(over, 0, InsertPos::Mru, false);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "fill of resident block")]
    fn filling_a_resident_block_panics_in_debug() {
        let mut c = tiny(2);
        c.fill(5, 0, InsertPos::Mru, false);
        c.fill(5, 0, InsertPos::Mru, true);
    }

    #[test]
    fn touch_dirty_is_touch_then_mark_dirty() {
        let (mut a, mut b) = (tiny(4), tiny(4));
        for c in [&mut a, &mut b] {
            for blk in [0u64, 4, 8] {
                c.fill(blk, 0, InsertPos::Mru, false);
            }
        }
        assert!(a.touch_dirty(4));
        assert!(b.touch(4) && b.mark_dirty(4, true));
        assert!(!a.touch_dirty(12) && !b.touch(12));
        for blk in [0u64, 4, 8, 12] {
            assert_eq!(a.dirty().probe(blk), b.dirty().probe(blk), "block {blk}");
        }
        assert_eq!(
            a.dirty().probe(4).map(|p| (p.dirty, p.rank)),
            Some((true, 2))
        );
        assert_eq!(a.stats(), b.stats());
        assert_eq!((a.stats().lookups, a.stats().hits), (2, 1));
        a.assert_index_coherent();
    }

    #[test]
    fn take_dirty_cleans_only_dirty_lines_below_the_rank_bound() {
        let mut c = tiny(4);
        c.fill(0, 1, InsertPos::Mru, true); // rank 0
        c.fill(4, 2, InsertPos::Mru, false); // rank 1
        c.fill(8, 3, InsertPos::Mru, true); // rank 2
        assert_eq!(c.take_dirty(4, 4), None, "clean");
        assert_eq!(c.take_dirty(8, 2), None, "rank 2 is not below 2");
        assert_eq!(c.take_dirty(12, 4), None, "not resident");
        assert_eq!(c.dirty().probe(8).map(|p| p.rank), Some(2));
        assert_eq!(c.take_dirty(8, 3), Some(3), "dirty at rank 2, owner 3");
        assert_eq!(c.dirty().is_dirty(8), Some(false));
        assert_eq!(c.take_dirty(8, 3), None, "already clean");
        assert!(c.take_dirty(0, usize::MAX).is_some());
        assert_eq!(c.dirty().mask(SetIdx(0)), WayMask::EMPTY);
        assert_eq!(c.stats().lookups, 0, "a sweep probe is not a lookup");
        c.assert_index_coherent();
    }

    #[test]
    fn lane_arithmetic_matches_the_byte_loop() {
        // Whole and partial words, one to eight of them.
        for ways in [1usize, 2, 3, 8, 12, 16, 31, 32, 64] {
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ ways as u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..200 {
                let ranks: Vec<u8> = (0..ways).map(|_| (next() % 64) as u8).collect();
                let k = (next() % 65) as u8;
                let way_bits = next() & (u64::MAX >> (64 - ways));
                let words = |ranks: &[u8]| {
                    let mut words = vec![0u64; ways.div_ceil(8)];
                    for (w, &r) in ranks.iter().enumerate() {
                        set_lane(&mut words, w, r);
                    }
                    words
                };
                let bytes = |words: &[u64]| (0..ways).map(|w| lane(words, w)).collect::<Vec<u8>>();
                assert_eq!(bytes(&words(&ranks)), ranks);

                let below = (0..ways).fold(0u64, |m, w| m | u64::from(ranks[w] < k) << w);
                let padding = u64::MAX.checked_shl(ways as u32).unwrap_or(0);
                let got = ranks_below(&words(&ranks), k);
                assert_eq!(got & !padding, below, "{ranks:?} < {k}");

                let k = k.min(63);
                let mut got = words(&ranks);
                demote_above(&mut got, k);
                let want: Vec<u8> = ranks.iter().map(|&r| r - u8::from(r > k)).collect();
                assert_eq!(bytes(&got), want, "{ranks:?} demote above {k}");

                let capped: Vec<u8> = ranks.iter().map(|&r| r.min(62)).collect();
                let want: Vec<u8> = capped
                    .iter()
                    .enumerate()
                    .map(|(w, &r)| r + u8::from(way_bits >> w & 1 == 1))
                    .collect();
                let mut got = words(&capped);
                bump_ways(&mut got, way_bits);
                assert_eq!(bytes(&got), want, "bump {way_bits:#x}");
                assert!(
                    (ways..got.len() * 8).all(|w| lane(&got, w) == 0),
                    "padding lanes stay 0"
                );
            }
        }
    }
}
