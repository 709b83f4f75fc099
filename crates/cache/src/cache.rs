//! The set-associative cache model and its word-level dirty/rank index.
//!
//! Dirty-state queries used to rank-scan the tag array: every "does this
//! set hold dirty blocks near eviction?" question compared each line's
//! replacement metadata against every other line's — O(ways²) per probe,
//! on the per-writeback path of the Virtual Write Queue. The [`Cache`] now
//! maintains a [`DirtyView`]-queryable index beside the tag array: one
//! validity word and one dirty word per set ([`WayMask`]), plus O(1) rank
//! bookkeeping (an incremental rank permutation under LRU, per-RRPV
//! population counts under RRIP). The index is updated by every mutation
//! (insert, promote, evict, invalidate, dirty-bit writes) and rebuilt —
//! with validation — when a snapshot is restored.

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
    /// Recency-updating lookups ([`Cache::touch`]).
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

impl CacheStats {
    /// Miss ratio over recency-updating lookups; `None` before any lookup.
    #[must_use]
    pub fn miss_ratio(&self) -> Option<f64> {
        (self.lookups > 0).then(|| 1.0 - self.hits as f64 / self.lookups as f64)
    }
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

#[derive(Debug, Clone, Copy)]
struct Line {
    block: BlockAddr,
    valid: bool,
    dirty: bool,
    thread: ThreadId,
    /// LRU timestamp or RRPV, depending on [`ReplacementKind`].
    meta: i64,
}

const INVALID: Line = Line {
    block: 0,
    valid: false,
    dirty: false,
    thread: 0,
    meta: 0,
};

const RRPV_MAX: i64 = 3;
const RRPV_LONG: i64 = 2;

/// Bit index of `(set, way)` in the slot-per-word [`DirtyWords`] layout.
#[inline]
fn slot_bit(set: usize, way: usize) -> u64 {
    (set * 64 + way) as u64
}

/// The word-level dirty/rank index maintained beside the tag array.
///
/// The replacement metadata in [`Line::meta`] stays the ground truth for
/// victim selection; this structure is the *query* representation, kept
/// coherent incrementally so rank-filtered dirty queries never loop over
/// metadata. Under LRU, timestamps are unique, so per-line ranks form a
/// permutation that updates in O(ways) byte ops per mutation. Under RRIP,
/// RRPVs tie (ranks are shared), so ranks derive in O(1) from per-RRPV
/// population counts instead.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DirtyRankIndex {
    /// Per-set validity words (bit `set * 64 + w` = way `w` of `set` holds
    /// a valid line), on the workspace-wide [`DirtyWords`] storage.
    valid: DirtyWords,
    /// Per-set dirty words, same layout: bit set ⇔ valid *and* dirty.
    dirty: DirtyWords,
    /// Per-line recency rank (LRU only; empty under RRIP).
    rank: Vec<u8>,
    /// Per-set way-at-rank permutation (LRU only; empty under RRIP):
    /// `lru_stack[set * ways + r]` is the way holding rank `r`. The
    /// inverse of `rank`, kept so bottom-of-stack queries read `k` bytes
    /// instead of visiting every dirty way, and so LRU victim selection
    /// is a single byte read instead of a timestamp scan.
    lru_stack: Vec<u8>,
    /// Per-set RRPV population counts (RRIP only; empty under LRU).
    rrpv_cnt: Vec<[u8; 4]>,
}

impl DirtyRankIndex {
    fn new(config: &CacheConfig) -> DirtyRankIndex {
        let sets = config.sets() as usize;
        DirtyRankIndex {
            valid: DirtyWords::per_word_slots(sets),
            dirty: DirtyWords::per_word_slots(sets),
            rank: match config.replacement {
                ReplacementKind::Lru => vec![0; config.blocks() as usize],
                ReplacementKind::Rrip => Vec::new(),
            },
            lru_stack: match config.replacement {
                ReplacementKind::Lru => vec![0; config.blocks() as usize],
                ReplacementKind::Rrip => Vec::new(),
            },
            rrpv_cnt: match config.replacement {
                ReplacementKind::Lru => Vec::new(),
                ReplacementKind::Rrip => vec![[0; 4]; sets],
            },
        }
    }
}

/// A set-associative, write-back cache state model.
///
/// Blocks are identified by [`BlockAddr`]; the set index is the low bits of
/// the block address (block-interleaved), matching how consecutive blocks of
/// a DRAM row spread across cache sets — the effect that makes DRAM-aware
/// writeback nontrivial (paper Section 3.1).
///
/// Dirty-state and recency-rank queries go through [`Cache::dirty`], which
/// returns a [`DirtyView`] over the maintained word-level index; the only
/// dirty-state mutator is [`Cache::mark_dirty`].
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    /// `sets() - 1` when the set count is a power of two (the common
    /// geometry), letting [`set_of`](Cache::set_of) mask instead of divide.
    set_mask: Option<u64>,
    clock: i64,
    /// Decrementing counter handing out "older than everything" timestamps
    /// for LRU-position (LIP/bimodal) insertions: the newest such insertion
    /// is always the set's next victim.
    low_clock: i64,
    index: DirtyRankIndex,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let lines = vec![INVALID; config.blocks() as usize];
        let sets = config.sets();
        Cache {
            index: DirtyRankIndex::new(&config),
            config,
            lines,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            clock: 0,
            low_clock: 0,
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
    pub fn set_of(&self, block: BlockAddr) -> SetIdx {
        SetIdx(match self.set_mask {
            Some(mask) => block & mask,
            None => block % self.config.sets(),
        })
    }

    fn set_range(&self, block: BlockAddr) -> std::ops::Range<usize> {
        let set = self.set_of(block).index();
        let ways = self.config.ways;
        set * ways..(set + 1) * ways
    }

    fn find(&self, block: BlockAddr) -> Option<usize> {
        let range = self.set_range(block);
        let base = range.start;
        self.lines[range]
            .iter()
            .position(|l| l.valid && l.block == block)
            .map(|way| base + way)
    }

    /// Probes for `block` without updating replacement state or stats
    /// (a coherence-style or metadata probe).
    #[must_use]
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Issues host prefetch hints for the model state a lookup of `block`
    /// would touch: its set's tag lines and the set's valid/dirty index
    /// words. Bulk queries with known targets ([`DirtyView::probe_many`])
    /// hint every set before the first tag walk. A pure performance hint —
    /// no simulated state (stats, replacement, dirty bits) changes.
    pub fn prefetch_block(&self, block: BlockAddr) {
        let set = self.set_of(block).index();
        let range = self.set_range(block);
        let lines = &self.lines[range];
        // The tag walk reads every way of the set: hint each host cache
        // line of the slab (Line is ~24 B, so ~3 ways per 64 B line).
        let bytes = std::mem::size_of_val(lines);
        let base = lines.as_ptr().cast::<u8>();
        let mut off = 0;
        while off < bytes {
            dbi::prefetch_read(base.wrapping_add(off));
            off += 64;
        }
        self.index.valid.prefetch_word(set);
        self.index.dirty.prefetch_word(set);
        // Replacement metadata: a hit's promotion and a miss's victim
        // selection both read the set's rank/stack (LRU) or RRPV count
        // (RRIP) slabs — one host line each.
        let base = set * self.config.ways;
        match self.config.replacement {
            ReplacementKind::Lru => {
                dbi::prefetch_read(self.index.rank[base..].as_ptr());
                dbi::prefetch_read(self.index.lru_stack[base..].as_ptr());
            }
            ReplacementKind::Rrip => {
                dbi::prefetch_read(std::ptr::from_ref(&self.index.rrpv_cnt[set]));
            }
        }
    }

    /// Recency rank of the valid line at index `i`, from the index: 0 =
    /// next victim. O(1) — a byte read under LRU, three adds under RRIP.
    fn rank_of(&self, i: usize) -> usize {
        match self.config.replacement {
            ReplacementKind::Lru => usize::from(self.index.rank[i]),
            ReplacementKind::Rrip => {
                let c = &self.index.rrpv_cnt[i / self.config.ways];
                let v = self.lines[i].meta as usize;
                c[v + 1..=RRPV_MAX as usize]
                    .iter()
                    .map(|&x| usize::from(x))
                    .sum()
            }
        }
    }

    /// Index update: the valid line at `i` leaves its set.
    fn index_remove(&mut self, i: usize) {
        let ways = self.config.ways;
        let (set, way) = (i / ways, i % ways);
        self.index.valid.clear(slot_bit(set, way));
        self.index.dirty.clear(slot_bit(set, way));
        match self.config.replacement {
            ReplacementKind::Lru => {
                // Every line that was more protected moves one rank down.
                let base = set * ways;
                let r = usize::from(self.index.rank[i]);
                let remaining = self.index.valid.word(set).count_ones() as usize;
                for pos in r..remaining {
                    let w = usize::from(self.index.lru_stack[base + pos + 1]);
                    self.index.lru_stack[base + pos] = w as u8;
                    self.index.rank[base + w] -= 1;
                }
            }
            ReplacementKind::Rrip => {
                self.index.rrpv_cnt[set][self.lines[i].meta as usize] -= 1;
            }
        }
    }

    /// Index update: `lines[i]` was just written with a new valid line
    /// inserted at `pos` (its `meta` already reflects the insertion).
    fn index_place(&mut self, i: usize, pos: InsertPos) {
        let ways = self.config.ways;
        let (set, way) = (i / ways, i % ways);
        match self.config.replacement {
            ReplacementKind::Lru => {
                let base = set * ways;
                let n = self.index.valid.word(set).count_ones() as usize;
                match pos {
                    // Newer than everything resident: top rank.
                    InsertPos::Mru => {
                        self.index.rank[i] = n as u8;
                        self.index.lru_stack[base + n] = (i - base) as u8;
                    }
                    // Older than everything resident: rank 0, rest move up.
                    InsertPos::Lru => {
                        for pos in (0..n).rev() {
                            let w = usize::from(self.index.lru_stack[base + pos]);
                            self.index.lru_stack[base + pos + 1] = w as u8;
                            self.index.rank[base + w] += 1;
                        }
                        self.index.rank[i] = 0;
                        self.index.lru_stack[base] = (i - base) as u8;
                    }
                }
            }
            ReplacementKind::Rrip => {
                self.index.rrpv_cnt[set][self.lines[i].meta as usize] += 1;
            }
        }
        self.index.valid.set(slot_bit(set, way));
        self.index
            .dirty
            .assign(slot_bit(set, way), self.lines[i].dirty);
    }

    /// Index update: the valid line at `i` was promoted to MRU (LRU only).
    /// Cost is proportional to how far below MRU the line sat, so re-hits
    /// on hot lines cost nothing.
    fn index_promote_lru(&mut self, i: usize) {
        let ways = self.config.ways;
        let set = i / ways;
        let base = set * ways;
        let r = usize::from(self.index.rank[i]);
        let n = self.index.valid.word(set).count_ones() as usize;
        for pos in r..n - 1 {
            let w = usize::from(self.index.lru_stack[base + pos + 1]);
            self.index.lru_stack[base + pos] = w as u8;
            self.index.rank[base + w] -= 1;
        }
        self.index.rank[i] = (n - 1) as u8;
        self.index.lru_stack[base + n - 1] = (i - base) as u8;
    }

    /// Looks up `block` and, on a hit, promotes it (recency update / RRPV
    /// reset). Returns whether it hit. This is the demand-access path.
    pub fn touch(&mut self, block: BlockAddr) -> bool {
        self.stats.lookups += 1;
        match self.find(block) {
            Some(i) => {
                self.stats.hits += 1;
                match self.config.replacement {
                    ReplacementKind::Lru => {
                        self.clock += 1;
                        self.lines[i].meta = self.clock;
                        self.index_promote_lru(i);
                    }
                    ReplacementKind::Rrip => {
                        let c = &mut self.index.rrpv_cnt[i / self.config.ways];
                        c[self.lines[i].meta as usize] -= 1;
                        c[0] += 1;
                        self.lines[i].meta = 0;
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Inserts `block` at `pos`, returning the displaced victim if the set
    /// was full. If the block is already resident this is a no-op promote.
    pub fn insert(
        &mut self,
        block: BlockAddr,
        thread: ThreadId,
        pos: InsertPos,
        dirty: bool,
    ) -> Option<Victim> {
        if let Some(i) = self.find(block) {
            // Refill of a resident block: merge dirty state, keep recency.
            self.lines[i].dirty |= dirty;
            if dirty {
                let ways = self.config.ways;
                self.index.dirty.set(slot_bit(i / ways, i % ways));
            }
            return None;
        }
        self.stats.insertions += 1;
        let range = self.set_range(block);
        let set = range.start / self.config.ways;
        let slot = match range.clone().find(|&i| !self.lines[i].valid) {
            Some(free) => free,
            None => self.victim_way(range, set),
        };
        let victim = if self.lines[slot].valid {
            self.stats.evictions += 1;
            if self.lines[slot].dirty {
                self.stats.dirty_evictions += 1;
            }
            let v = Victim {
                block: self.lines[slot].block,
                dirty: self.lines[slot].dirty,
                thread: self.lines[slot].thread,
            };
            self.index_remove(slot);
            Some(v)
        } else {
            None
        };
        let meta = match (self.config.replacement, pos) {
            (ReplacementKind::Lru, InsertPos::Mru) => {
                self.clock += 1;
                self.clock
            }
            (ReplacementKind::Lru, InsertPos::Lru) => {
                // Older than everything resident: next in line for eviction.
                self.low_clock -= 1;
                self.low_clock
            }
            (ReplacementKind::Rrip, InsertPos::Mru) => RRPV_LONG,
            (ReplacementKind::Rrip, InsertPos::Lru) => RRPV_MAX,
        };
        self.lines[slot] = Line {
            block,
            valid: true,
            dirty,
            thread,
            meta,
        };
        self.index_place(slot, pos);
        victim
    }

    fn victim_way(&mut self, range: std::ops::Range<usize>, set: usize) -> usize {
        match self.config.replacement {
            ReplacementKind::Lru => {
                // Rank 0 of a full set is the oldest timestamp, including
                // the "older than everything" low-clock insertions.
                let i = range.start + usize::from(self.index.lru_stack[range.start]);
                debug_assert_eq!(
                    Some(i),
                    range.clone().min_by_key(|&i| self.lines[i].meta),
                    "stack bottom diverged from the timestamp scan"
                );
                i
            }
            ReplacementKind::Rrip => loop {
                if let Some(i) = range.clone().find(|&i| self.lines[i].meta >= RRPV_MAX) {
                    break i;
                }
                for i in range.clone() {
                    self.lines[i].meta += 1;
                }
                // Aging only runs when no line sat at RRPV_MAX, so the top
                // bucket is empty before the shift.
                let c = &mut self.index.rrpv_cnt[set];
                debug_assert_eq!(c[RRPV_MAX as usize], 0);
                *c = [0, c[0], c[1], c[2]];
            },
        }
    }

    /// Removes `block`, returning its line if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Victim> {
        let i = self.find(block)?;
        let line = self.lines[i];
        self.index_remove(i);
        self.lines[i] = INVALID;
        Some(Victim {
            block: line.block,
            dirty: line.dirty,
            thread: line.thread,
        })
    }

    /// Sets or clears the tag-store dirty bit — the one dirty-state
    /// mutator. Returns `false` if the block is not resident.
    pub fn mark_dirty(&mut self, block: BlockAddr, dirty: bool) -> bool {
        match self.find(block) {
            Some(i) => {
                self.lines[i].dirty = dirty;
                let ways = self.config.ways;
                self.index.dirty.assign(slot_bit(i / ways, i % ways), dirty);
                true
            }
            None => false,
        }
    }

    /// The read side of the dirty-query API: a borrowed view over the
    /// word-level dirty/rank index. All queries are allocation-free and
    /// cost O(1) per answered word or probed line.
    #[must_use]
    pub fn dirty(&self) -> DirtyView<'_> {
        DirtyView { cache: self }
    }

    /// Thread that inserted `block`; `None` if not resident.
    #[must_use]
    pub fn owner(&self, block: BlockAddr) -> Option<ThreadId> {
        self.find(block).map(|i| self.lines[i].thread)
    }

    /// Iterates over all resident blocks as `(block, dirty, thread)`.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockAddr, bool, ThreadId)> + '_ {
        self.lines
            .iter()
            .filter(|l| l.valid)
            .map(|l| (l.block, l.dirty, l.thread))
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn resident(&self) -> u64 {
        self.index.valid.count_ones()
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

    /// Rebuilds the dirty/rank index from the tag array — the reference
    /// rank scan the incremental index reproduces. Used after a snapshot
    /// restore, where it doubles as validation: restored metadata that no
    /// writer could have produced (duplicate LRU timestamps, out-of-range
    /// RRPVs) is rejected as corruption.
    fn rebuild_index(&mut self) -> Result<(), dbi::snap::SnapError> {
        use dbi::snap::SnapError;
        let ways = self.config.ways;
        for set in 0..self.config.sets() as usize {
            let base = set * ways;
            let mut valid = 0u64;
            let mut dirty = 0u64;
            for way in 0..ways {
                let l = &self.lines[base + way];
                if l.valid {
                    valid |= 1 << way;
                    if l.dirty {
                        dirty |= 1 << way;
                    }
                }
            }
            self.index.valid.set_word(set, valid);
            self.index.dirty.set_word(set, dirty);
            match self.config.replacement {
                ReplacementKind::Lru => {
                    // rank = number of valid lines with an older timestamp;
                    // unique timestamps make the ranks a permutation.
                    let mut seen = 0u64;
                    for way in WayIter(valid) {
                        let meta = self.lines[base + way].meta;
                        let r = WayIter(valid)
                            .filter(|&o| self.lines[base + o].meta < meta)
                            .count();
                        if seen & (1 << r) != 0 {
                            return Err(SnapError::Corrupt(format!(
                                "duplicate LRU timestamp in cache set {set}"
                            )));
                        }
                        seen |= 1 << r;
                        self.index.rank[base + way] = r as u8;
                        self.index.lru_stack[base + r] = way as u8;
                    }
                }
                ReplacementKind::Rrip => {
                    let mut c = [0u8; 4];
                    for way in WayIter(valid) {
                        let meta = self.lines[base + way].meta;
                        if !(0..=RRPV_MAX).contains(&meta) {
                            return Err(SnapError::Corrupt(format!(
                                "RRPV {meta} out of range in cache set {set}"
                            )));
                        }
                        c[meta as usize] += 1;
                    }
                    self.index.rrpv_cnt[set] = c;
                }
            }
        }
        Ok(())
    }

    /// Test support: recomputes the index from the tag array (the
    /// reference rank scan) and panics on any divergence from the
    /// incrementally maintained state.
    #[doc(hidden)]
    pub fn assert_index_coherent(&self) {
        let mut reference = self.clone();
        reference
            .rebuild_index()
            .expect("live tag state always rebuilds");
        assert_eq!(
            reference.index.valid, self.index.valid,
            "valid words diverged from the tag array"
        );
        assert_eq!(
            reference.index.dirty, self.index.dirty,
            "dirty words diverged from the tag array"
        );
        match self.config.replacement {
            ReplacementKind::Lru => {
                let ways = self.config.ways;
                for set in 0..self.config.sets() as usize {
                    let valid = reference.index.valid.word(set);
                    for way in WayIter(valid) {
                        assert_eq!(
                            reference.index.rank[set * ways + way],
                            self.index.rank[set * ways + way],
                            "rank of set {set} way {way} diverged from the reference scan"
                        );
                    }
                    // Only the first `nvalid` stack slots are meaningful;
                    // slots above hold leftovers from removals.
                    for r in 0..valid.count_ones() as usize {
                        assert_eq!(
                            reference.index.lru_stack[set * ways + r],
                            self.index.lru_stack[set * ways + r],
                            "stack slot {r} of set {set} diverged from the reference scan"
                        );
                    }
                }
            }
            ReplacementKind::Rrip => {
                assert_eq!(
                    reference.index.rrpv_cnt, self.index.rrpv_cnt,
                    "RRPV counts diverged from the reference scan"
                );
            }
        }
    }
}

/// Read-only view over a [`Cache`]'s word-level dirty/rank index.
///
/// This is the *entire* dirty-query surface: residency-aware dirty bits,
/// single-probe line summaries, and per-set [`WayMask`] answers to the
/// rank-filtered questions the Virtual Write Queue asks on every writeback.
/// Nothing here allocates, and nothing loops over replacement metadata.
#[derive(Debug, Clone, Copy)]
pub struct DirtyView<'a> {
    cache: &'a Cache,
}

impl<'a> DirtyView<'a> {
    /// Tag-store dirty bit of `block`; `None` if not resident.
    #[must_use]
    pub fn is_dirty(&self, block: BlockAddr) -> Option<bool> {
        let i = self.cache.find(block)?;
        let ways = self.cache.config.ways;
        Some(self.cache.index.dirty.get(slot_bit(i / ways, i % ways)))
    }

    /// Dirty bit, owning thread, and recency rank of `block` from a single
    /// tag probe; `None` if not resident. The query bundle row sweeps
    /// (DAWB unconditionally, VWQ rank-filtered) make per candidate block.
    #[must_use]
    pub fn probe(&self, block: BlockAddr) -> Option<ProbedLine> {
        let i = self.cache.find(block)?;
        let line = &self.cache.lines[i];
        Some(ProbedLine {
            dirty: line.dirty,
            owner: line.thread,
            rank: self.cache.rank_of(i),
        })
    }

    /// The dirty ways of `set`, as one word.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[must_use]
    pub fn mask(&self, set: SetIdx) -> WayMask {
        WayMask(self.cache.index.dirty.word(set.index()))
    }

    /// Bulk form of [`mask`](DirtyView::mask): fills `out[i]` with the
    /// dirty-way word of `sets[i]`. One pass over the word index with no
    /// per-set call overhead — the shape the sanitizer's full-state scans
    /// and the checkpoint dirty-way cross-check use, so whole-cache
    /// passes never round-trip through single-set queries.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ or any set is out of range.
    pub fn mask_words(&self, sets: &[SetIdx], out: &mut [u64]) {
        assert_eq!(
            sets.len(),
            out.len(),
            "mask_words output length must match the query length"
        );
        for (slot, set) in out.iter_mut().zip(sets) {
            *slot = self.cache.index.dirty.word(set.index());
        }
    }

    /// Bulk form of [`probe`](DirtyView::probe): fills `out[i]` with the
    /// probe result of `blocks[i]` (`None` where not resident). Issues the
    /// set prefetch for each block ahead of its tag walk, so a batch of
    /// scattered probes overlaps its own index misses.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn probe_many(&self, blocks: &[BlockAddr], out: &mut [Option<ProbedLine>]) {
        assert_eq!(
            blocks.len(),
            out.len(),
            "probe_many output length must match the query length"
        );
        for &block in blocks {
            self.cache.prefetch_block(block);
        }
        for (slot, &block) in out.iter_mut().zip(blocks) {
            *slot = self.probe(block);
        }
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
    pub fn in_lru_ways(&self, set: SetIdx, ways_from_lru: usize) -> WayMask {
        let dirty = self.cache.index.dirty.word(set.index());
        if dirty == 0 {
            return WayMask::EMPTY;
        }
        let base = set.index() * self.cache.config.ways;
        match self.cache.config.replacement {
            ReplacementKind::Lru => {
                // Walk the bottom of the recency stack instead of rank-
                // checking every dirty way: `ways_from_lru` byte reads.
                let n = self.cache.index.valid.word(set.index()).count_ones() as usize;
                if ways_from_lru >= n {
                    return WayMask(dirty);
                }
                let mut out = 0u64;
                for r in 0..ways_from_lru {
                    out |= dirty & (1u64 << self.cache.index.lru_stack[base + r]);
                }
                WayMask(out)
            }
            ReplacementKind::Rrip => {
                let mut out = 0u64;
                for way in WayIter(dirty) {
                    if self.cache.rank_of(base + way) < ways_from_lru {
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
        mask.ways().map(move |w| {
            let line = &cache.lines[base + w];
            debug_assert!(line.valid, "mask names an invalid way");
            line.block
        })
    }
}

impl ReplacementKind {
    fn snap_code(self) -> u8 {
        match self {
            ReplacementKind::Lru => 0,
            ReplacementKind::Rrip => 1,
        }
    }
}

impl dbi::snap::Snapshot for CacheStats {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        let CacheStats {
            lookups,
            hits,
            insertions,
            evictions,
            dirty_evictions,
        } = *self;
        for x in [lookups, hits, insertions, evictions, dirty_evictions] {
            w.u64(x);
        }
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        self.lookups = r.u64()?;
        self.hits = r.u64()?;
        self.insertions = r.u64()?;
        self.evictions = r.u64()?;
        self.dirty_evictions = r.u64()?;
        Ok(())
    }
}

impl dbi::snap::Snapshot for Cache {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        w.u8(self.config.replacement.snap_code());
        w.usize(self.lines.len());
        for line in &self.lines {
            w.bool(line.valid);
            if line.valid {
                w.u64(line.block);
                w.bool(line.dirty);
                w.u8(line.thread);
                w.i64(line.meta);
            }
        }
        w.i64(self.clock);
        w.i64(self.low_clock);
        self.stats.snapshot(w);
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        use dbi::snap::SnapError;
        let code = r.u8()?;
        if code != self.config.replacement.snap_code() {
            return Err(SnapError::Mismatch {
                what: "cache replacement kind",
                expected: u64::from(self.config.replacement.snap_code()),
                found: u64::from(code),
            });
        }
        r.expect_len("cache lines", self.lines.len())?;
        let ways = self.config.ways;
        let set_mask = self.set_mask;
        let sets = self.config.sets();
        let set_of = |block: u64| match set_mask {
            Some(mask) => block & mask,
            None => block % sets,
        };
        for (i, line) in self.lines.iter_mut().enumerate() {
            if r.bool()? {
                let block = r.u64()?;
                // A valid line must sit in the set its block maps to.
                if set_of(block) as usize != i / ways {
                    return Err(SnapError::Corrupt(format!(
                        "cache line for block {block} restored into wrong set"
                    )));
                }
                *line = Line {
                    block,
                    valid: true,
                    dirty: r.bool()?,
                    thread: r.u8()?,
                    meta: r.i64()?,
                };
            } else {
                *line = INVALID;
            }
        }
        self.clock = r.i64()?;
        self.low_clock = r.i64()?;
        self.stats.restore(r)?;
        // The index is derived state: rebuild (and validate) it from the
        // restored lines, so resumed runs answer every dirty/rank query
        // bit-identically to the run that wrote the snapshot.
        self.rebuild_index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn mask_words_matches_per_set_masks() {
        let mut c = tiny(2);
        c.insert(0, 0, InsertPos::Mru, true); // set 0
        c.insert(4, 0, InsertPos::Mru, false); // set 0, clean
        c.insert(2, 0, InsertPos::Mru, true); // set 2
        c.insert(6, 0, InsertPos::Mru, true); // set 2
        let sets: Vec<SetIdx> = (0..c.config().sets()).map(SetIdx).collect();
        let mut words = vec![u64::MAX; sets.len()];
        c.dirty().mask_words(&sets, &mut words);
        for (&set, &word) in sets.iter().zip(&words) {
            assert_eq!(word, c.dirty().mask(set).0, "set {}", set.index());
        }
        assert!(words[1] == 0 && words[3] == 0, "untouched sets are clean");
        assert_ne!(words[0], 0);
        assert_eq!(words[2].count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "mask_words output length")]
    fn mask_words_rejects_mismatched_lengths() {
        let c = tiny(2);
        c.dirty().mask_words(&[SetIdx(0), SetIdx(1)], &mut [0u64]);
    }

    #[test]
    fn probe_many_matches_scalar_probes() {
        let mut c = tiny(4);
        c.insert(0, 1, InsertPos::Mru, true);
        c.insert(4, 2, InsertPos::Mru, false);
        c.insert(9, 3, InsertPos::Mru, true);
        let blocks = [0u64, 4, 9, 99, 8];
        let mut out = [None; 5];
        c.dirty().probe_many(&blocks, &mut out);
        for (&block, got) in blocks.iter().zip(&out) {
            assert_eq!(*got, c.dirty().probe(block), "block {block}");
        }
        assert_eq!(out[0].unwrap().owner, 1);
        assert!(out[0].unwrap().dirty && !out[1].unwrap().dirty);
        assert!(out[3].is_none() && out[4].is_none(), "non-resident probes");
        c.assert_index_coherent();
    }

    #[test]
    #[should_panic(expected = "probe_many output length")]
    fn probe_many_rejects_mismatched_lengths() {
        let c = tiny(2);
        c.dirty().probe_many(&[0u64], &mut []);
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
    fn miss_ratio_reporting() {
        let mut c = tiny(2);
        assert_eq!(c.stats().miss_ratio(), None);
        c.touch(0);
        c.insert(0, 0, InsertPos::Mru, false);
        c.touch(0);
        assert_eq!(c.stats().miss_ratio(), Some(0.5));
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
}
