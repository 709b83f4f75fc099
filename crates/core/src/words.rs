//! Word-level dirty-bit storage.
//!
//! Dirty metadata is a set of small integers (way indices within a cache
//! set, set indices within a cache). [`DirtyWords`] is the one packed-word
//! storage type shared by the cache's word-level dirty/valid index and the
//! Set State Vector. The DBI keeps each entry's bit vector as plain words
//! in its own flat arrays.

use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Maximum DBI granularity in bits. Granularities in the paper's design
/// space are 16–128 bits.
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
/// that want a contiguous bitmap (the SSV) allocate exactly as many bits as they track. Snapshot
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::restore_bytes;

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
}
