//! Adaptive dirty containers and shared dirty-word storage.
//!
//! Dirty metadata is a set of small integers (block offsets within a DRAM
//! row, way indices within a cache set, set indices within a cache). At
//! paper scale a fixed array of `u64` words is fine — the DBI keeps each
//! entry's bit vector as plain words — but at GB scale (million-row DRAM
//! caches) a dense word per row wastes almost all of its bits, because most
//! rows hold zero or a handful of dirty blocks.
//!
//! [`DirtyContainer`] is the adaptive representation that makes million-row
//! dirty tracking affordable for the GB-scale DRAM cache, following the
//! Roaring-bitmap container idiom:
//!
//! * **Dense** — packed `u64` words, one bit per block; best for hot rows.
//! * **Sparse** — a sorted `u16` index list; best for mostly-clean rows.
//! * **Run-length** — sorted `(start, len)` runs; best for streaming writes.
//!
//! Under [`ContainerPolicy::Adaptive`] the container promotes and demotes
//! itself on mutation so its modeled metadata cost tracks the cheapest
//! representation; the semantics (which bits are set) never depend on the
//! representation, so hot-path callers query through the same API
//! regardless. [`DirtyWords`] is the one word-level storage type shared by
//! the dense representation, the cache's word-level dirty/valid index, and
//! the Set State Vector.

use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Maximum number of bits a [`DirtyContainer`] (or the DBI granularity) can
/// cover. Granularities in the paper's design space are 16–128 bits; 512
/// leaves room for large DRAM-cache rows.
pub const MAX_BITS: usize = 512;

const WORD_BITS: usize = 64;

/// Issues a host data-prefetch hint for the cache line holding `*p`.
///
/// Bulk queries that know all their target addresses up front (the cache
/// crate's `probe_many`) hint every set's slab lines before the first tag
/// walk, overlapping the scattered index misses instead of paying them one
/// dependent chain at a time. Purely a hint: on architectures without one
/// it compiles to nothing, and it never faults regardless of the pointer's
/// validity.
#[inline]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it performs no memory access that can
    // fault, for any address.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p.cast::<i8>(), std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM never faults, for any address.
    unsafe {
        std::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

// ---------------------------------------------------------------------------
// DirtyWords: the shared word-level bit storage.
// ---------------------------------------------------------------------------

/// Packed `u64` bit storage shared by every word-level dirty structure.
///
/// A `DirtyWords` is a flat bitmap of `bits` logical bits. Structures that
/// want one whole word per slot (the cache's per-set valid/dirty index)
/// allocate `slots * 64` bits and address bit `slot * 64 + i`; structures
/// that want a contiguous bitmap (the SSV, the dense container
/// representation) allocate exactly as many bits as they track. Snapshot
/// restore rejects images with bits set past the logical length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyWords {
    words: Vec<u64>,
    bits: u64,
}

impl DirtyWords {
    /// Creates an all-clear bitmap of `bits` logical bits.
    #[must_use]
    pub fn new(bits: u64) -> Self {
        let words = (bits as usize).div_ceil(WORD_BITS);
        DirtyWords {
            words: vec![0; words],
            bits,
        }
    }

    /// Creates storage with one whole word per slot (bit `slot * 64 + i`).
    #[must_use]
    pub fn per_word_slots(slots: usize) -> Self {
        DirtyWords::new(slots as u64 * WORD_BITS as u64)
    }

    /// Number of logical bits.
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Returns `true` if no bit is set.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Reads the whole word `i` (for slot-per-word layouts and mask math).
    #[inline]
    #[must_use]
    pub fn word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// Issues a host prefetch hint for word `i` without reading it. Out of
    /// range is a silent no-op — a hint must never panic.
    #[inline]
    pub fn prefetch_word(&self, i: usize) {
        if let Some(p) = self.words.get(i) {
            prefetch_read(p);
        }
    }

    /// Overwrites the whole word `i` (for slot-per-word layouts that
    /// rebuild a slot's mask wholesale).
    #[inline]
    pub fn set_word(&mut self, i: usize, word: u64) {
        let used = self.bits.saturating_sub(i as u64 * 64).min(64);
        debug_assert!(
            used == 64 || word >> used == 0,
            "word write past the logical length"
        );
        self.words[i] = word;
    }

    /// Returns whether `bit` is set.
    #[inline]
    #[must_use]
    pub fn get(&self, bit: u64) -> bool {
        debug_assert!(bit < self.bits);
        self.words[(bit / 64) as usize] & (1 << (bit % 64)) != 0
    }

    /// Sets `bit`, returning `true` if it was previously clear.
    #[inline]
    pub fn set(&mut self, bit: u64) -> bool {
        debug_assert!(bit < self.bits);
        let (w, m) = ((bit / 64) as usize, 1u64 << (bit % 64));
        let was_clear = self.words[w] & m == 0;
        self.words[w] |= m;
        was_clear
    }

    /// Clears `bit`, returning `true` if it was previously set.
    #[inline]
    pub fn clear(&mut self, bit: u64) -> bool {
        debug_assert!(bit < self.bits);
        let (w, m) = ((bit / 64) as usize, 1u64 << (bit % 64));
        let was_set = self.words[w] & m != 0;
        self.words[w] &= !m;
        was_set
    }

    /// Sets `bit` to `value`, returning `true` if the stored bit changed.
    #[inline]
    pub fn assign(&mut self, bit: u64, value: bool) -> bool {
        if value {
            self.set(bit)
        } else {
            self.clear(bit)
        }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> WordOnes<'_> {
        WordOnes {
            words: &self.words,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl Snapshot for DirtyWords {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.usize(self.bits as usize);
        for &word in &self.words {
            w.u64(word);
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_len("DirtyWords bits", self.bits as usize)?;
        for word in &mut self.words {
            *word = r.u64()?;
        }
        // Bits past the logical length can never be set by a writer.
        let spare = self.words.len() * WORD_BITS - self.bits as usize;
        if spare > 0 {
            let last = self.words[self.words.len() - 1];
            if last >> (WORD_BITS - spare) != 0 {
                return Err(SnapError::Corrupt(
                    "DirtyWords bits set past the logical length".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Iterator over the set bits of a [`DirtyWords`], ascending.
#[derive(Debug, Clone)]
pub struct WordOnes<'a> {
    words: &'a [u64],
    word: usize,
    bits: u64,
}

impl Iterator for WordOnes<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as u64;
                self.bits &= self.bits - 1;
                return Some(self.word as u64 * 64 + bit);
            }
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word];
        }
    }
}

// ---------------------------------------------------------------------------
// DirtyContainer: the adaptive per-row representation.
// ---------------------------------------------------------------------------

/// Which representations a [`DirtyContainer`] is allowed to use.
///
/// `DenseOnly` and `SparseOnly` pin the container to one representation —
/// the ablation points of the `dramcache_gb` figure. `Adaptive` (the
/// default) promotes and demotes on mutation to track the cheapest
/// representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ContainerPolicy {
    /// Always packed `u64` words (the paper's fixed bit-vector design).
    DenseOnly,
    /// Always a sorted `u16` index list, however large it grows.
    SparseOnly,
    /// Dense / sparse / run-length, switching automatically on mutation.
    #[default]
    Adaptive,
}

impl ContainerPolicy {
    /// All policies, in the order the `dramcache_gb` figure sweeps them.
    pub const ALL: [ContainerPolicy; 3] = [
        ContainerPolicy::DenseOnly,
        ContainerPolicy::SparseOnly,
        ContainerPolicy::Adaptive,
    ];

    /// Stable lower-case name for tables and fingerprints.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ContainerPolicy::DenseOnly => "dense",
            ContainerPolicy::SparseOnly => "sparse",
            ContainerPolicy::Adaptive => "adaptive",
        }
    }
}

impl std::fmt::Display for ContainerPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The representation a container currently uses (for stats and figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReprKind {
    /// Packed `u64` words.
    Dense,
    /// Sorted `u16` index list.
    Sparse,
    /// Sorted `(start, len)` run list.
    Rle,
}

/// A run of consecutive set bits: `start..start + len`, `len >= 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u16,
    len: u16,
}

impl Run {
    /// First bit past the run.
    fn end(self) -> u16 {
        self.start + self.len
    }
}

#[derive(Debug, Clone)]
enum Repr {
    Dense(DirtyWords),
    Sparse(Vec<u16>),
    Rle(Vec<Run>),
}

/// An adaptive set of bit indices in `0..len`, `len <= 512`.
///
/// The per-row dirty metadata of a GB-scale DRAM cache, where most rows
/// are nearly clean: every operation
/// (`set`/`clear`/`get`/`count`/`iter_ones`) behaves identically under
/// every [`ContainerPolicy`]; only the modeled metadata cost
/// ([`metadata_bytes`](DirtyContainer::metadata_bytes)) and the promotion
/// state differ. Out-of-range indices panic — they are caller logic errors,
/// never recoverable data.
///
/// # Example
///
/// ```
/// use dbi::{ContainerPolicy, DirtyContainer};
///
/// let mut c = DirtyContainer::new(128, ContainerPolicy::Adaptive);
/// c.set(3);
/// c.set(60);
/// assert!(c.get(3));
/// assert_eq!(c.count(), 2);
/// assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![3, 60]);
/// // Two scattered bits cost 4 bytes as a sorted list, not 16 as words.
/// assert_eq!(c.metadata_bytes(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DirtyContainer {
    len: u16,
    count: u16,
    policy: ContainerPolicy,
    repr: Repr,
}

/// Modeled hardware bytes of a dense bit vector of `len` bits.
fn dense_bytes(len: usize) -> usize {
    len.div_ceil(8)
}

/// Largest population a sparse list may reach under `Adaptive` before the
/// container promotes (at this point the list costs as much as the words).
fn sparse_limit(len: usize) -> usize {
    (len / 16).max(4)
}

/// Largest run count an RLE list may reach under `Adaptive` before the
/// container promotes to dense (at this point the runs cost half the words).
fn rle_limit(len: usize) -> usize {
    (len / 32).max(2)
}

impl DirtyContainer {
    /// Creates an all-clear container of `len` bits under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or greater than [`MAX_BITS`].
    #[must_use]
    pub fn new(len: usize, policy: ContainerPolicy) -> Self {
        assert!(
            len > 0 && len <= MAX_BITS,
            "DirtyContainer length {len} out of range 1..={MAX_BITS}"
        );
        let repr = match policy {
            ContainerPolicy::DenseOnly => Repr::Dense(DirtyWords::new(len as u64)),
            _ => Repr::Sparse(Vec::new()),
        };
        DirtyContainer {
            len: len as u16,
            count: 0,
            policy,
            repr,
        }
    }

    /// Number of bits the container covers (the DBI granularity).
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Returns `true` if no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The policy the container was built with.
    #[must_use]
    pub fn policy(&self) -> ContainerPolicy {
        self.policy
    }

    /// The representation currently in use.
    #[must_use]
    pub fn repr_kind(&self) -> ReprKind {
        match self.repr {
            Repr::Dense(_) => ReprKind::Dense,
            Repr::Sparse(_) => ReprKind::Sparse,
            Repr::Rle(_) => ReprKind::Rle,
        }
    }

    /// Number of set bits (dirty blocks in the row).
    #[must_use]
    pub fn count(&self) -> usize {
        usize::from(self.count)
    }

    /// Modeled hardware bytes of the current representation: `len/8` for
    /// dense words, 2 bytes per sparse index, 4 bytes per run. This is the
    /// quantity the `dramcache_gb` figure sums per policy; it is a property
    /// of the representation, not of Rust allocator behaviour.
    #[must_use]
    pub fn metadata_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense(_) => dense_bytes(self.len()),
            Repr::Sparse(list) => 2 * list.len(),
            Repr::Rle(runs) => 4 * runs.len(),
        }
    }

    #[inline]
    fn check(&self, bit: usize) {
        assert!(
            bit < self.len(),
            "bit index {bit} out of range for DirtyContainer of length {}",
            self.len()
        );
    }

    /// Returns whether `bit` is set.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.len()`.
    #[must_use]
    pub fn get(&self, bit: usize) -> bool {
        self.check(bit);
        match &self.repr {
            Repr::Dense(words) => words.get(bit as u64),
            Repr::Sparse(list) => list.binary_search(&(bit as u16)).is_ok(),
            Repr::Rle(runs) => {
                let bit = bit as u16;
                // Last run starting at or before `bit`, if any.
                let i = runs.partition_point(|r| r.start <= bit);
                i > 0 && bit < runs[i - 1].end()
            }
        }
    }

    /// Sets `bit`, returning `true` if it was previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.len()`.
    pub fn set(&mut self, bit: usize) -> bool {
        self.check(bit);
        let was_clear = match &mut self.repr {
            Repr::Dense(words) => words.set(bit as u64),
            Repr::Sparse(list) => match list.binary_search(&(bit as u16)) {
                Ok(_) => false,
                Err(pos) => {
                    list.insert(pos, bit as u16);
                    true
                }
            },
            Repr::Rle(runs) => rle_set(runs, bit as u16),
        };
        if was_clear {
            self.count += 1;
            self.adapt_after_set();
        }
        was_clear
    }

    /// Clears `bit`, returning `true` if it was previously set.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.len()`.
    pub fn clear(&mut self, bit: usize) -> bool {
        self.check(bit);
        let was_set = match &mut self.repr {
            Repr::Dense(words) => words.clear(bit as u64),
            Repr::Sparse(list) => match list.binary_search(&(bit as u16)) {
                Ok(pos) => {
                    list.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Repr::Rle(runs) => rle_clear(runs, bit as u16),
        };
        if was_set {
            self.count -= 1;
            self.adapt_after_clear();
        }
        was_set
    }

    /// Clears every bit and resets to the policy's initial representation.
    pub fn clear_all(&mut self) {
        self.count = 0;
        let bits = self.bits();
        match (&mut self.repr, self.policy) {
            (Repr::Dense(words), ContainerPolicy::DenseOnly) => words.clear_all(),
            (Repr::Sparse(list), _) => list.clear(),
            (repr, ContainerPolicy::DenseOnly) => *repr = Repr::Dense(DirtyWords::new(bits)),
            (repr, _) => *repr = Repr::Sparse(Vec::new()),
        }
    }

    fn bits(&self) -> u64 {
        u64::from(self.len)
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        let inner = match &self.repr {
            Repr::Dense(words) => OnesInner::Dense(words.iter_ones()),
            Repr::Sparse(list) => OnesInner::Sparse(list.iter()),
            Repr::Rle(runs) => OnesInner::Rle {
                runs: runs.iter(),
                next: 0,
                end: 0,
            },
        };
        Ones { inner }
    }

    // --- promotion / demotion ---------------------------------------------

    fn adapt_after_set(&mut self) {
        if self.policy != ContainerPolicy::Adaptive {
            return;
        }
        let len = self.len();
        match &self.repr {
            Repr::Sparse(list) => {
                if list.len() > sparse_limit(len) {
                    // The list outgrew the words it replaces: promote to
                    // runs if the population is clustered (streaming
                    // writes), otherwise to dense words.
                    let runs = count_runs(list);
                    if runs <= rle_limit(len) {
                        self.make_rle();
                    } else {
                        self.make_dense();
                    }
                }
            }
            Repr::Rle(runs) => {
                if runs.len() > rle_limit(len) {
                    self.make_dense();
                }
            }
            Repr::Dense(_) => {}
        }
    }

    fn adapt_after_clear(&mut self) {
        if self.policy != ContainerPolicy::Adaptive {
            return;
        }
        let len = self.len();
        // Demote with hysteresis (half the promotion threshold) so a
        // population oscillating at the boundary does not thrash.
        match &self.repr {
            Repr::Dense(_) | Repr::Rle(_) => {
                if self.count() <= sparse_limit(len) / 2 {
                    self.make_sparse();
                } else if let Repr::Rle(runs) = &self.repr {
                    // A mid-run clear splits a run; too many runs cost more
                    // than the words they replace.
                    if runs.len() > rle_limit(len) {
                        self.make_dense();
                    }
                }
            }
            Repr::Sparse(_) => {}
        }
    }

    fn make_dense(&mut self) {
        let mut words = DirtyWords::new(self.bits());
        for bit in self.iter_ones() {
            words.set(bit as u64);
        }
        self.repr = Repr::Dense(words);
    }

    fn make_sparse(&mut self) {
        let list: Vec<u16> = self.iter_ones().map(|b| b as u16).collect();
        self.repr = Repr::Sparse(list);
    }

    fn make_rle(&mut self) {
        let mut runs: Vec<Run> = Vec::new();
        for bit in self.iter_ones() {
            let bit = bit as u16;
            match runs.last_mut() {
                Some(run) if run.end() == bit => run.len += 1,
                _ => runs.push(Run { start: bit, len: 1 }),
            }
        }
        self.repr = Repr::Rle(runs);
    }
}

/// Semantic equality: same width and same set of bits, regardless of
/// representation or policy.
impl PartialEq for DirtyContainer {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.count == other.count && self.iter_ones().eq(other.iter_ones())
    }
}

impl Eq for DirtyContainer {}

/// Number of maximal runs in a sorted, duplicate-free index list.
fn count_runs(list: &[u16]) -> usize {
    let mut runs = 0;
    let mut prev = None;
    for &bit in list {
        if prev != Some(bit.wrapping_sub(1)) {
            runs += 1;
        }
        prev = Some(bit);
    }
    runs
}

/// Sets `bit` in a canonical run list, returning `true` if it was clear.
/// Canonical: runs sorted, non-overlapping, with at least a one-bit gap.
fn rle_set(runs: &mut Vec<Run>, bit: u16) -> bool {
    let i = runs.partition_point(|r| r.start <= bit);
    if i > 0 && bit < runs[i - 1].end() {
        return false; // already inside run i-1
    }
    let touches_prev = i > 0 && runs[i - 1].end() == bit;
    let touches_next = i < runs.len() && runs[i].start == bit + 1;
    match (touches_prev, touches_next) {
        (true, true) => {
            // The bit bridges two runs: merge them.
            runs[i - 1].len += 1 + runs[i].len;
            runs.remove(i);
        }
        (true, false) => runs[i - 1].len += 1,
        (false, true) => {
            runs[i].start = bit;
            runs[i].len += 1;
        }
        (false, false) => runs.insert(i, Run { start: bit, len: 1 }),
    }
    true
}

/// Clears `bit` in a canonical run list, returning `true` if it was set.
fn rle_clear(runs: &mut Vec<Run>, bit: u16) -> bool {
    let i = runs.partition_point(|r| r.start <= bit);
    if i == 0 || bit >= runs[i - 1].end() {
        return false;
    }
    let run = runs[i - 1];
    if run.len == 1 {
        runs.remove(i - 1);
    } else if bit == run.start {
        runs[i - 1].start += 1;
        runs[i - 1].len -= 1;
    } else if bit == run.end() - 1 {
        runs[i - 1].len -= 1;
    } else {
        // Mid-run clear: split into two runs.
        runs[i - 1].len = bit - run.start;
        runs.insert(
            i,
            Run {
                start: bit + 1,
                len: run.end() - bit - 1,
            },
        );
    }
    true
}

/// Iterator over the set bits of a [`DirtyContainer`], produced by
/// [`DirtyContainer::iter_ones`]. Ascending under every representation.
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    inner: OnesInner<'a>,
}

#[derive(Debug, Clone)]
enum OnesInner<'a> {
    Dense(WordOnes<'a>),
    Sparse(std::slice::Iter<'a, u16>),
    Rle {
        runs: std::slice::Iter<'a, Run>,
        next: u16,
        end: u16,
    },
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match &mut self.inner {
            OnesInner::Dense(ones) => ones.next().map(|b| b as usize),
            OnesInner::Sparse(iter) => iter.next().map(|&b| usize::from(b)),
            OnesInner::Rle { runs, next, end } => {
                if next == end {
                    let run = runs.next()?;
                    *next = run.start;
                    *end = run.end();
                }
                let bit = *next;
                *next += 1;
                Some(usize::from(bit))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot: container-tagged streams.
// ---------------------------------------------------------------------------

const TAG_DENSE: u8 = 0;
const TAG_SPARSE: u8 = 1;
const TAG_RLE: u8 = 2;

impl Snapshot for DirtyContainer {
    fn snapshot(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        match &self.repr {
            Repr::Dense(words) => {
                w.u8(TAG_DENSE);
                words.snapshot(w);
            }
            Repr::Sparse(list) => {
                w.u8(TAG_SPARSE);
                w.usize(list.len());
                for &bit in list {
                    w.u64(u64::from(bit));
                }
            }
            Repr::Rle(runs) => {
                w.u8(TAG_RLE);
                w.usize(runs.len());
                for run in runs {
                    w.u64(u64::from(run.start));
                    w.u64(u64::from(run.len));
                }
            }
        }
    }

    /// Restores the exact representation the image carries (promotion state
    /// is history-dependent, so resume must not re-derive it), validating
    /// that the image is canonical: a known tag compatible with the policy,
    /// sorted duplicate-free sparse lists, sorted non-touching runs, and no
    /// bits past the container length.
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_len("DirtyContainer length", self.len())?;
        let tag = r.u8()?;
        let allowed = match self.policy {
            ContainerPolicy::DenseOnly => tag == TAG_DENSE,
            ContainerPolicy::SparseOnly => tag == TAG_SPARSE,
            ContainerPolicy::Adaptive => tag <= TAG_RLE,
        };
        if !allowed {
            return Err(SnapError::Corrupt(format!(
                "DirtyContainer tag {tag} not valid under policy {}",
                self.policy
            )));
        }
        let len = self.len() as u64;
        match tag {
            TAG_DENSE => {
                let mut words = DirtyWords::new(len);
                words.restore(r)?;
                self.count = words.count_ones() as u16;
                self.repr = Repr::Dense(words);
            }
            TAG_SPARSE => {
                let n = r.usize()?;
                if n > self.len() {
                    return Err(SnapError::Corrupt(format!(
                        "sparse container holds {n} indices in {len} bits"
                    )));
                }
                let mut list = Vec::with_capacity(n);
                for _ in 0..n {
                    let bit = r.u64()?;
                    if bit >= len {
                        return Err(SnapError::Corrupt(format!(
                            "sparse container index {bit} past length {len}"
                        )));
                    }
                    if list.last().is_some_and(|&prev| prev >= bit as u16) {
                        return Err(SnapError::Corrupt(
                            "sparse container list not strictly ascending".into(),
                        ));
                    }
                    list.push(bit as u16);
                }
                self.count = list.len() as u16;
                self.repr = Repr::Sparse(list);
            }
            TAG_RLE => {
                let n = r.usize()?;
                if n > self.len().div_ceil(2) {
                    return Err(SnapError::Corrupt(format!(
                        "RLE container holds {n} runs in {len} bits"
                    )));
                }
                let mut runs = Vec::with_capacity(n);
                let mut count = 0u64;
                let mut min_start = 0u64; // next run must start at or past this
                for _ in 0..n {
                    let start = r.u64()?;
                    let run_len = r.u64()?;
                    if run_len == 0 || start + run_len > len {
                        return Err(SnapError::Corrupt(format!(
                            "RLE run {start}+{run_len} malformed for length {len}"
                        )));
                    }
                    if start < min_start {
                        return Err(SnapError::Corrupt(
                            "RLE runs not sorted with gaps between them".into(),
                        ));
                    }
                    count += run_len;
                    min_start = start + run_len + 1; // touching runs must merge
                    runs.push(Run {
                        start: start as u16,
                        len: run_len as u16,
                    });
                }
                self.count = count as u16;
                self.repr = Repr::Rle(runs);
            }
            _ => unreachable!("tag validated above"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{restore_bytes, snapshot_bytes};

    #[test]
    fn new_is_all_clear_under_every_policy() {
        for policy in ContainerPolicy::ALL {
            let c = DirtyContainer::new(128, policy);
            assert_eq!(c.len(), 128);
            assert!(c.is_empty());
            assert_eq!(c.count(), 0);
            assert_eq!(c.iter_ones().count(), 0);
            assert_eq!(c.policy(), policy);
        }
    }

    #[test]
    fn set_get_clear_roundtrip_under_every_policy() {
        for policy in ContainerPolicy::ALL {
            let mut c = DirtyContainer::new(128, policy);
            assert!(c.set(0));
            assert!(c.set(63));
            assert!(c.set(64));
            assert!(c.set(127));
            assert!(!c.set(127), "{policy}: setting twice reports already-set");
            assert!(c.get(0) && c.get(63) && c.get(64) && c.get(127));
            assert!(!c.get(1));
            assert_eq!(c.count(), 4);
            assert!(c.clear(63));
            assert!(!c.clear(63), "{policy}: clearing twice reports clear");
            assert_eq!(c.count(), 3);
            assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![0, 64, 127]);
        }
    }

    #[test]
    fn scattered_writes_promote_to_dense() {
        let mut c = DirtyContainer::new(512, ContainerPolicy::Adaptive);
        assert_eq!(c.repr_kind(), ReprKind::Sparse);
        // Scattered bits: stride 16 defeats run detection.
        for i in 0..sparse_limit(512) + 1 {
            c.set((i * 16) % 512 + (i * 16 / 512));
        }
        assert_eq!(c.repr_kind(), ReprKind::Dense);
        assert_eq!(c.metadata_bytes(), 64);
    }

    #[test]
    fn streaming_writes_promote_to_rle() {
        let mut c = DirtyContainer::new(512, ContainerPolicy::Adaptive);
        for bit in 0..100 {
            c.set(bit);
        }
        assert_eq!(c.repr_kind(), ReprKind::Rle);
        assert_eq!(c.metadata_bytes(), 4, "one run costs one (start, len) pair");
        assert_eq!(c.count(), 100);
        assert_eq!(
            c.iter_ones().collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fragmented_rle_promotes_to_dense() {
        let mut c = DirtyContainer::new(512, ContainerPolicy::Adaptive);
        // One long run promotes to RLE...
        for bit in 0..64 {
            c.set(bit);
        }
        assert_eq!(c.repr_kind(), ReprKind::Rle);
        // ...then punching scattered holes fragments it past the run limit.
        for i in 0..20 {
            c.clear(i * 3 + 1);
        }
        assert_eq!(c.repr_kind(), ReprKind::Dense);
        assert_eq!(c.count(), 44);
    }

    #[test]
    fn clearing_demotes_back_to_sparse() {
        let mut c = DirtyContainer::new(512, ContainerPolicy::Adaptive);
        for bit in 0..200 {
            c.set(bit);
        }
        for bit in 3..200 {
            c.clear(bit);
        }
        assert_eq!(c.repr_kind(), ReprKind::Sparse);
        assert_eq!(c.count(), 3);
        assert_eq!(c.metadata_bytes(), 6);
    }

    #[test]
    fn pinned_policies_never_switch() {
        let mut dense = DirtyContainer::new(512, ContainerPolicy::DenseOnly);
        let mut sparse = DirtyContainer::new(512, ContainerPolicy::SparseOnly);
        for bit in 0..512 {
            dense.set(bit);
            sparse.set(bit);
        }
        assert_eq!(dense.repr_kind(), ReprKind::Dense);
        assert_eq!(sparse.repr_kind(), ReprKind::Sparse);
        assert_eq!(dense.metadata_bytes(), 64);
        assert_eq!(sparse.metadata_bytes(), 1024, "pinned sparse pays 2B/bit");
    }

    #[test]
    fn rle_split_and_merge() {
        let mut c = DirtyContainer::new(512, ContainerPolicy::Adaptive);
        for bit in 0..40 {
            c.set(bit);
        }
        assert_eq!(c.repr_kind(), ReprKind::Rle);
        c.clear(20); // split
        assert_eq!(c.metadata_bytes(), 8);
        assert!(!c.get(20));
        c.set(20); // bridge: merge back into one run
        assert_eq!(c.metadata_bytes(), 4);
        assert_eq!(c.count(), 40);
    }

    #[test]
    fn clear_all_resets() {
        for policy in ContainerPolicy::ALL {
            let mut c = DirtyContainer::new(64, policy);
            for bit in 0..64 {
                c.set(bit);
            }
            c.clear_all();
            assert!(c.is_empty());
            assert_eq!(c.iter_ones().count(), 0);
            assert_eq!(
                c.repr_kind(),
                if policy == ContainerPolicy::DenseOnly {
                    ReprKind::Dense
                } else {
                    ReprKind::Sparse
                }
            );
        }
    }

    #[test]
    fn semantic_equality_ignores_representation() {
        let mut a = DirtyContainer::new(256, ContainerPolicy::DenseOnly);
        let mut b = DirtyContainer::new(256, ContainerPolicy::Adaptive);
        for bit in [5, 9, 200] {
            a.set(bit);
            b.set(bit);
        }
        assert_eq!(a, b);
        b.set(201);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        DirtyContainer::new(64, ContainerPolicy::Adaptive).set(64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_length_panics() {
        let _ = DirtyContainer::new(0, ContainerPolicy::Adaptive);
    }

    #[test]
    fn snapshot_roundtrips_every_representation() {
        let make = |setup: fn(&mut DirtyContainer)| {
            let mut c = DirtyContainer::new(512, ContainerPolicy::Adaptive);
            setup(&mut c);
            c
        };
        let cases = [
            make(|_| {}),
            make(|c| {
                c.set(3);
                c.set(100);
            }),
            make(|c| {
                for bit in 0..100 {
                    c.set(bit);
                }
            }),
            make(|c| {
                for i in 0..40 {
                    c.set(i * 13 % 512);
                }
            }),
        ];
        for original in cases {
            let bytes = snapshot_bytes(&original);
            let mut fresh = DirtyContainer::new(512, ContainerPolicy::Adaptive);
            restore_bytes(&mut fresh, &bytes).unwrap();
            assert_eq!(fresh, original);
            assert_eq!(fresh.repr_kind(), original.repr_kind(), "repr preserved");
            assert_eq!(fresh.metadata_bytes(), original.metadata_bytes());
        }
    }

    #[test]
    fn restore_rejects_policy_incompatible_tag() {
        let mut sparse = DirtyContainer::new(64, ContainerPolicy::SparseOnly);
        sparse.set(3);
        let bytes = snapshot_bytes(&sparse);
        let mut dense = DirtyContainer::new(64, ContainerPolicy::DenseOnly);
        assert!(matches!(
            restore_bytes(&mut dense, &bytes),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn words_set_clear_count() {
        let mut w = DirtyWords::new(130);
        assert!(w.set(0));
        assert!(w.set(129));
        assert!(!w.set(129));
        assert!(w.get(0) && w.get(129) && !w.get(64));
        assert_eq!(w.count_ones(), 2);
        assert!(w.assign(64, true));
        assert!(!w.assign(64, true), "assign reports no change");
        assert_eq!(w.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert!(w.clear(0));
        assert!(!w.clear(0));
        w.clear_all();
        assert!(w.is_zero());
    }

    #[test]
    fn words_snapshot_rejects_padding_bits() {
        // Forge an image with a bit past the logical length: 65 bits means
        // only bit 0 of the second word may be used.
        let mut w = SnapWriter::new();
        w.usize(65);
        w.u64(0);
        w.u64(0b10); // bit 65 — past the logical length
        let bytes = w.finish();
        let mut fresh = DirtyWords::new(65);
        assert!(matches!(
            restore_bytes(&mut fresh, &bytes),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// Forged container images: every malformation class must surface as
    /// `Corrupt`, never as a panic or silent acceptance.
    #[test]
    fn restore_rejects_forged_container_images() {
        let forge = |build: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            build(&mut w);
            let bytes = w.finish();
            let mut fresh = DirtyContainer::new(64, ContainerPolicy::Adaptive);
            restore_bytes(&mut fresh, &bytes)
        };
        // Unknown tag.
        let err = forge(&|w| {
            w.usize(64);
            w.u8(3);
        });
        assert!(matches!(err, Err(SnapError::Corrupt(_))), "{err:?}");
        // Sparse: count past the container length.
        let err = forge(&|w| {
            w.usize(64);
            w.u8(1);
            w.usize(65);
        });
        assert!(matches!(err, Err(SnapError::Corrupt(_))), "{err:?}");
        // Sparse: unsorted list.
        let err = forge(&|w| {
            w.usize(64);
            w.u8(1);
            w.usize(2);
            w.u64(9);
            w.u64(3);
        });
        assert!(matches!(err, Err(SnapError::Corrupt(_))), "{err:?}");
        // Sparse: duplicate entry.
        let err = forge(&|w| {
            w.usize(64);
            w.u8(1);
            w.usize(2);
            w.u64(3);
            w.u64(3);
        });
        assert!(matches!(err, Err(SnapError::Corrupt(_))), "{err:?}");
        // Sparse: index out of range.
        let err = forge(&|w| {
            w.usize(64);
            w.u8(1);
            w.usize(1);
            w.u64(64);
        });
        assert!(matches!(err, Err(SnapError::Corrupt(_))), "{err:?}");
        // RLE: zero-length run.
        let err = forge(&|w| {
            w.usize(64);
            w.u8(2);
            w.usize(1);
            w.u64(3);
            w.u64(0);
        });
        assert!(matches!(err, Err(SnapError::Corrupt(_))), "{err:?}");
        // RLE: run past the container length.
        let err = forge(&|w| {
            w.usize(64);
            w.u8(2);
            w.usize(1);
            w.u64(60);
            w.u64(5);
        });
        assert!(matches!(err, Err(SnapError::Corrupt(_))), "{err:?}");
        // RLE: overlapping runs.
        let err = forge(&|w| {
            w.usize(64);
            w.u8(2);
            w.usize(2);
            w.u64(0);
            w.u64(10);
            w.u64(5);
            w.u64(10);
        });
        assert!(matches!(err, Err(SnapError::Corrupt(_))), "{err:?}");
        // RLE: touching runs (must have been merged by the writer).
        let err = forge(&|w| {
            w.usize(64);
            w.u8(2);
            w.usize(2);
            w.u64(0);
            w.u64(10);
            w.u64(10);
            w.u64(4);
        });
        assert!(matches!(err, Err(SnapError::Corrupt(_))), "{err:?}");
        // Dense: padding bit past the length.
        let mut w = SnapWriter::new();
        w.usize(63);
        w.u8(0);
        w.usize(63);
        w.u64(1 << 63);
        let mut fresh63 = DirtyContainer::new(63, ContainerPolicy::Adaptive);
        assert!(matches!(
            restore_bytes(&mut fresh63, &w.finish()),
            Err(SnapError::Corrupt(_))
        ));
    }
}
