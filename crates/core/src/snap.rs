//! Checksummed binary snapshot encoding.
//!
//! Long experiment campaigns need to survive a killed process: every
//! stateful structure in the workspace implements [`Snapshot`], so a run
//! can serialize its complete mid-run state, write it to disk, and later
//! resume bit-identically from where it stopped. The encoding is
//! deliberately plain:
//!
//! - every primitive is a little-endian `u64` (or a single byte for
//!   `bool`/enum codes); `f64` values travel as their IEEE-754 bit
//!   patterns, so restore is exact,
//! - sequences are length-prefixed, and restore validates each length
//!   against the structure rebuilt from configuration — a snapshot never
//!   *creates* geometry, it only fills in mutable state,
//! - the final eight bytes are an FNV-1a checksum of everything before
//!   them, verified before a single field is decoded.
//!
//! The restore side is written against untrusted bytes (a torn write, a
//! stale file from an old schema): every decode error is a recoverable
//! [`SnapError`], never a panic, so callers can fall back to a cold start.

/// 64-bit FNV-1a over `bytes` — the snapshot checksum, and the hash the
/// result store uses for fingerprints and entry checksums.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the expected field.
    Truncated,
    /// The trailing checksum does not match the payload.
    Checksum {
        /// Checksum recomputed over the payload.
        expected: u64,
        /// Checksum stored in the stream.
        found: u64,
    },
    /// A structural field disagrees with the object being restored into
    /// (wrong geometry, wrong configuration, wrong schema).
    Mismatch {
        /// What was being validated.
        what: &'static str,
        /// Value the restoring object requires.
        expected: u64,
        /// Value found in the stream.
        found: u64,
    },
    /// A field decoded to a value no writer could have produced.
    Corrupt(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::Checksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch: expected {expected:016x}, found {found:016x}"
            ),
            SnapError::Mismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "snapshot {what} mismatch: expected {expected}, found {found}"
            ),
            SnapError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Serializes snapshot fields into a checksummed byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, x: bool) {
        self.buf.push(u8::from(x));
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a `u32` (widened; one primitive width keeps the format dull).
    pub fn u32(&mut self, x: u32) {
        self.u64(u64::from(x));
    }

    /// Appends an `i64` via two's-complement bit pattern.
    pub fn i64(&mut self, x: i64) {
        self.u64(x as u64);
    }

    /// Appends a `usize` (widened to `u64`).
    pub fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, x: &[u8]) {
        self.usize(x.len());
        self.buf.extend_from_slice(x);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, x: &str) {
        self.bytes(x.as_bytes());
    }

    /// Bytes written so far (excluding the checksum).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes the snapshot: appends the FNV-1a checksum of the payload
    /// and returns the complete byte buffer.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Decodes snapshot fields from a checksummed byte buffer.
#[derive(Debug)]
pub struct SnapReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Wraps `bytes`, verifying the trailing checksum before any field is
    /// decoded.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the buffer cannot even hold a checksum;
    /// [`SnapError::Checksum`] if the stored checksum does not match.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapError> {
        if bytes.len() < 8 {
            return Err(SnapError::Truncated);
        }
        let (payload, tail) = bytes.split_at(bytes.len() - 8);
        let found = u64::from_le_bytes(tail.try_into().expect("eight bytes"));
        let expected = fnv1a64(payload);
        if found != expected {
            return Err(SnapError::Checksum { expected, found });
        }
        Ok(SnapReader { payload, pos: 0 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.payload.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.payload[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of stream.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (one byte, strictly 0 or 1).
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on any other byte value.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of stream.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("eight bytes"),
        ))
    }

    /// Reads a `u32` (stored widened).
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if the stored value overflows `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let x = self.u64()?;
        u32::try_from(x).map_err(|_| SnapError::Corrupt(format!("u32 field holds {x}")))
    }

    /// Reads an `i64` (two's-complement bit pattern).
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of stream.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if the value overflows `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let x = self.u64()?;
        usize::try_from(x).map_err(|_| SnapError::Corrupt(format!("usize field holds {x}")))
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of stream.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the stream ends inside the string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Corrupt("string is not UTF-8".into()))
    }

    /// Reads a `u64` that must equal `expected` — the structural-validation
    /// primitive every restore leans on (lengths, schema tags, geometry).
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] naming `what` when the values differ.
    pub fn expect_u64(&mut self, what: &'static str, expected: u64) -> Result<(), SnapError> {
        let found = self.u64()?;
        if found != expected {
            return Err(SnapError::Mismatch {
                what,
                expected,
                found,
            });
        }
        Ok(())
    }

    /// [`expect_u64`](SnapReader::expect_u64) for `usize` structural values.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] when the values differ.
    pub fn expect_len(&mut self, what: &'static str, expected: usize) -> Result<(), SnapError> {
        self.expect_u64(what, expected as u64)
    }

    /// [`expect_u64`](SnapReader::expect_u64) for a structural bool —
    /// typically the presence flag of a configuration-derived `Option`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] when the flag differs, [`SnapError::Corrupt`]
    /// on a byte that is neither 0 nor 1.
    pub fn expect_bool(&mut self, what: &'static str, expected: bool) -> Result<(), SnapError> {
        let found = self.bool()?;
        if found != expected {
            return Err(SnapError::Mismatch {
                what,
                expected: u64::from(expected),
                found: u64::from(found),
            });
        }
        Ok(())
    }

    /// Declares decoding complete.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if payload bytes remain — a length lie
    /// somewhere upstream.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.pos != self.payload.len() {
            return Err(SnapError::Corrupt(format!(
                "{} trailing bytes",
                self.payload.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// State that can be serialized mid-run and restored bit-identically.
///
/// The contract: `restore` is called on an object freshly constructed from
/// the *same configuration* that produced the snapshot. Configuration-derived
/// structure (geometry, capacities, policies) is never rebuilt from the
/// stream — it is validated against it, so restoring into a mismatched
/// object fails loudly instead of silently diverging.
pub trait Snapshot {
    /// Serializes all mutable state into `w`.
    fn snapshot(&self, w: &mut SnapWriter);

    /// Restores state from `r`, validating structure along the way.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on truncated, corrupt, or mismatched input. On
    /// error the object may be partially restored and must be discarded.
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Snapshots `value` into a standalone checksummed byte buffer.
#[must_use]
pub fn snapshot_bytes<T: Snapshot + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.snapshot(&mut w);
    w.finish()
}

/// Restores `value` from a buffer produced by [`snapshot_bytes`],
/// requiring the stream to be fully consumed.
///
/// # Errors
///
/// Any [`SnapError`] from checksum verification or field decoding.
pub fn restore_bytes<T: Snapshot + ?Sized>(value: &mut T, bytes: &[u8]) -> Result<(), SnapError> {
    let mut r = SnapReader::new(bytes)?;
    value.restore(&mut r)?;
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u64(u64::MAX);
        w.u32(123_456);
        w.i64(-42);
        w.usize(99);
        w.f64(-0.125);
        w.str("hello");
        let bytes = w.finish();

        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 99);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.125f64).to_bits());
        assert_eq!(r.str().unwrap(), "hello");
        r.finish().unwrap();
    }

    #[test]
    fn checksum_detects_any_flipped_bit() {
        let mut w = SnapWriter::new();
        w.u64(0xDEAD_BEEF);
        w.str("payload");
        let bytes = w.finish();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                matches!(SnapReader::new(&bad), Err(SnapError::Checksum { .. })),
                "flip at byte {i} must be caught"
            );
        }
    }

    #[test]
    fn truncation_is_reported() {
        assert_eq!(SnapReader::new(&[]).unwrap_err(), SnapError::Truncated);
        assert_eq!(
            SnapReader::new(&[1, 2, 3]).unwrap_err(),
            SnapError::Truncated
        );
        let mut w = SnapWriter::new();
        w.u64(5);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u64().unwrap(), 5);
        assert_eq!(r.u64().unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn expectations_catch_structure_drift() {
        let mut w = SnapWriter::new();
        w.u64(4);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let err = r.expect_u64("ways", 8).unwrap_err();
        assert_eq!(
            err,
            SnapError::Mismatch {
                what: "ways",
                expected: 8,
                found: 4
            }
        );
    }

    #[test]
    fn trailing_garbage_fails_finish() {
        let mut w = SnapWriter::new();
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u64().unwrap(), 1);
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn invalid_bool_is_corrupt() {
        let mut w = SnapWriter::new();
        w.u8(2);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(r.bool(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn helper_round_trip_via_trait() {
        struct Pair(u64, u64);
        impl Snapshot for Pair {
            fn snapshot(&self, w: &mut SnapWriter) {
                w.u64(self.0);
                w.u64(self.1);
            }
            fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                self.0 = r.u64()?;
                self.1 = r.u64()?;
                Ok(())
            }
        }
        let p = Pair(11, 22);
        let bytes = snapshot_bytes(&p);
        let mut q = Pair(0, 0);
        restore_bytes(&mut q, &bytes).unwrap();
        assert_eq!((q.0, q.1), (11, 22));
    }

    #[test]
    fn errors_display_usefully() {
        let e = SnapError::Mismatch {
            what: "sets",
            expected: 64,
            found: 32,
        };
        assert!(e.to_string().contains("sets"));
        assert!(SnapError::Truncated.to_string().contains("truncated"));
    }
}
