//! The memory controller's write buffer.

use crate::BlockAddr;

/// A write-combining buffer of pending block writebacks.
///
/// The paper's controller (Table 1) buffers 64 writes and drains the whole
/// buffer when it fills. Duplicate writebacks to the same block coalesce —
/// only the newest data would go to DRAM anyway.
///
/// # Example
///
/// ```
/// use dram_sim::WriteBuffer;
///
/// let mut wb = WriteBuffer::new(2);
/// assert!(!wb.push(10));
/// assert!(!wb.push(10)); // coalesces
/// assert!(wb.push(20));  // now full
/// assert_eq!(wb.drain(), vec![10, 20]);
/// assert!(wb.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    pending: Vec<BlockAddr>,
    capacity: usize,
    coalesced: u64,
}

impl WriteBuffer {
    /// Creates an empty buffer holding up to `capacity` distinct blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer capacity must be nonzero");
        WriteBuffer {
            pending: Vec::with_capacity(capacity),
            capacity,
            coalesced: 0,
        }
    }

    /// Capacity in blocks.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queues a writeback, coalescing duplicates. Returns `true` if the
    /// buffer is now full and must drain.
    pub fn push(&mut self, block: BlockAddr) -> bool {
        if self.pending.contains(&block) {
            self.coalesced += 1;
        } else {
            debug_assert!(self.pending.len() < self.capacity, "pushed past full");
            self.pending.push(block);
        }
        self.pending.len() >= self.capacity
    }

    /// Whether `block` has a write pending (a demand read must be serviced
    /// from here, not from the stale row in DRAM).
    #[must_use]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.pending.contains(&block)
    }

    /// Removes and returns all pending writes in arrival order.
    pub fn drain(&mut self) -> Vec<BlockAddr> {
        let mut out = Vec::with_capacity(self.pending.len());
        self.drain_into(&mut out);
        out
    }

    /// Appends all pending writes to `out` in arrival order and clears the
    /// buffer in place — the allocation-free drain the controller's hot
    /// path uses (the buffer keeps its capacity for the next fill).
    pub fn drain_into(&mut self, out: &mut Vec<BlockAddr>) {
        out.append(&mut self.pending);
    }

    /// Moves the `n` oldest pending writes (all of them if fewer are
    /// pending) into `out`, preserving arrival order — the partial drain a
    /// watermark policy performs, allocation-free.
    pub fn drain_oldest_into(&mut self, n: usize, out: &mut Vec<BlockAddr>) {
        let n = n.min(self.pending.len());
        out.extend(self.pending.drain(..n));
    }

    /// Number of distinct blocks pending.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Writebacks absorbed by coalescing since construction.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }
}

impl dbi::snap::Snapshot for WriteBuffer {
    fn snapshot(&self, w: &mut dbi::snap::SnapWriter) {
        w.usize(self.capacity);
        w.usize(self.pending.len());
        for &b in &self.pending {
            w.u64(b);
        }
        w.u64(self.coalesced);
    }

    fn restore(&mut self, r: &mut dbi::snap::SnapReader<'_>) -> Result<(), dbi::snap::SnapError> {
        use dbi::snap::SnapError;
        r.expect_len("write-buffer capacity", self.capacity)?;
        let n = r.usize()?;
        if n > self.capacity {
            return Err(SnapError::Corrupt(format!(
                "write buffer holds {n} > capacity {}",
                self.capacity
            )));
        }
        self.pending.clear();
        for _ in 0..n {
            let b = r.u64()?;
            if self.pending.contains(&b) {
                return Err(SnapError::Corrupt(format!(
                    "write buffer holds duplicate block {b}"
                )));
            }
            self.pending.push(b);
        }
        self.coalesced = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_and_drains_in_order() {
        let mut wb = WriteBuffer::new(3);
        assert!(!wb.push(5));
        assert!(!wb.push(1));
        assert!(wb.push(9));
        assert_eq!(wb.len(), 3);
        assert_eq!(wb.drain(), vec![5, 1, 9]);
        assert!(wb.is_empty());
        assert_eq!(wb.len(), 0);
    }

    #[test]
    fn drain_oldest_preserves_order_and_rest() {
        let mut wb = WriteBuffer::new(8);
        for b in [5u64, 1, 9, 2] {
            wb.push(b);
        }
        let mut out = Vec::new();
        wb.drain_oldest_into(2, &mut out);
        assert_eq!(out, vec![5, 1]);
        assert_eq!(wb.len(), 2);
        assert!(wb.contains(9) && wb.contains(2));
        wb.drain_oldest_into(10, &mut out);
        assert_eq!(out, vec![5, 1, 9, 2]);
        assert!(wb.is_empty());
    }

    #[test]
    fn coalesces_duplicates() {
        let mut wb = WriteBuffer::new(2);
        assert!(!wb.push(7));
        assert!(!wb.push(7));
        assert!(!wb.push(7));
        assert_eq!(wb.len(), 1);
        assert_eq!(wb.coalesced(), 2);
        assert!(wb.contains(7));
        assert!(!wb.contains(8));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = WriteBuffer::new(0);
    }
}
