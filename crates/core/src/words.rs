//! Word-level dirty-bit storage.
//!
//! Dirty metadata is a set of small integers (way indices within a cache
//! set, set indices within a cache). [`DirtyWords`] is the one packed-word
//! storage type shared by the cache's word-level dirty/valid index and the
//! Set State Vector. The DBI keeps each entry's bit vector as plain words
//! in its own flat arrays.

/// Maximum DBI granularity in bits. Granularities in the paper's design
/// space are 16–128 bits.
pub const MAX_BITS: usize = 512;

const WORD_BITS: usize = 64;

// ---------------------------------------------------------------------------
// DirtyWords: the shared word-level bit storage.
// ---------------------------------------------------------------------------

/// Packed `u64` bit storage shared by every word-level dirty structure.
///
/// A `DirtyWords` is a flat bitmap of `bits` logical bits. Structures that
/// want one whole word per slot (the cache's per-set valid/dirty index)
/// allocate `slots * 64` bits and address bit `slot * 64 + i`; structures
/// that want a contiguous bitmap (the SSV) allocate exactly as many bits
/// as they track.
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
}
