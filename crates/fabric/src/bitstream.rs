//! The configuration bitstream — the secret of eFPGA-based redaction.

use std::fmt;

/// Typed access errors of the flat bitstream.
///
/// The original accessors panicked on out-of-range indices — acceptable in
/// the batch tools, fatal in a long-running service where one bad frame
/// address would kill a worker thread. The `try_*` accessors return this
/// error instead; the panicking accessors remain as thin wrappers for the
/// many internal callers whose indices are in range by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitstreamError {
    /// A single-bit access beyond the bitstream.
    OutOfRange {
        /// The requested bit position.
        index: usize,
        /// The bitstream length.
        len: usize,
    },
    /// A multi-bit field that does not fit in the bitstream.
    FieldOutOfRange {
        /// First bit of the field.
        base: usize,
        /// Field width in bits.
        width: usize,
        /// The bitstream length.
        len: usize,
    },
}

impl fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitstreamError::OutOfRange { index, len } => {
                write!(f, "bit {index} out of range for a {len}-bit bitstream")
            }
            BitstreamError::FieldOutOfRange { base, width, len } => write!(
                f,
                "field [{base}, {base}+{width}) out of range for a {len}-bit bitstream"
            ),
        }
    }
}

impl std::error::Error for BitstreamError {}

/// A fabric configuration: one bit per position of the fabric's bit layout,
/// plus a *used* mask recording which bits the place-and-route flow actually
/// relies on (everything else is a shrink candidate for step 8).
///
/// ```
/// use shell_fabric::Bitstream;
///
/// let mut bs = Bitstream::zeros(16);
/// bs.set_field(4, 3, 0b101);          // program an encoded mux select
/// assert_eq!(bs.field(4, 3), 0b101);
/// assert_eq!(bs.used_count(), 3);     // only programmed bits are secret
/// assert!(bs.utilization() < 0.25);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    bits: Vec<bool>,
    used: Vec<bool>,
}

impl Bitstream {
    /// All-zero bitstream of `len` bits, nothing marked used.
    pub fn zeros(len: usize) -> Self {
        Self {
            bits: vec![false; len],
            used: vec![false; len],
        }
    }

    /// Total bit count.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` when the bitstream has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn bit(&self, i: usize) -> bool {
        self.try_bit(i).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reads bit `i`, returning an error instead of panicking when `i`
    /// is out of range.
    pub fn try_bit(&self, i: usize) -> Result<bool, BitstreamError> {
        self.bits.get(i).copied().ok_or(BitstreamError::OutOfRange {
            index: i,
            len: self.bits.len(),
        })
    }

    /// Sets bit `i` and marks it used.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn set(&mut self, i: usize, value: bool) {
        self.try_set(i, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets bit `i` and marks it used, returning an error instead of
    /// panicking when `i` is out of range.
    pub fn try_set(&mut self, i: usize, value: bool) -> Result<(), BitstreamError> {
        let len = self.bits.len();
        let slot = self
            .bits
            .get_mut(i)
            .ok_or(BitstreamError::OutOfRange { index: i, len })?;
        *slot = value;
        self.used[i] = true;
        Ok(())
    }

    /// Sets bit `i` without marking it used (default/don't-care fill).
    pub fn set_unused(&mut self, i: usize, value: bool) {
        self.bits[i] = value;
    }

    /// Marks bit `i` as used without changing its value.
    pub fn mark_used(&mut self, i: usize) {
        self.used[i] = true;
    }

    /// Whether bit `i` is load-bearing.
    pub fn is_used(&self, i: usize) -> bool {
        self.used[i]
    }

    /// Number of used bits.
    pub fn used_count(&self) -> usize {
        self.used.iter().filter(|&&u| u).count()
    }

    /// Fraction of bits that are load-bearing — the fabric-utilization
    /// number behind Fig. 2.
    pub fn utilization(&self) -> f64 {
        if self.bits.is_empty() {
            return 1.0;
        }
        self.used_count() as f64 / self.bits.len() as f64
    }

    /// The raw bit values.
    pub fn as_bools(&self) -> &[bool] {
        &self.bits
    }

    /// The used mask.
    pub fn used_mask(&self) -> &[bool] {
        &self.used
    }

    /// Writes an encoded mux select value starting at `base`, `width` bits,
    /// LSB first, all marked used.
    ///
    /// # Panics
    ///
    /// Panics when the field does not fit in the bitstream.
    pub fn set_field(&mut self, base: usize, width: usize, value: u64) {
        self.try_set_field(base, width, value)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`set_field`](Self::set_field): validates the whole field
    /// before writing any bit, so a failed call leaves the bitstream
    /// untouched.
    pub fn try_set_field(
        &mut self,
        base: usize,
        width: usize,
        value: u64,
    ) -> Result<(), BitstreamError> {
        self.check_field(base, width)?;
        for i in 0..width {
            self.bits[base + i] = (value >> i) & 1 == 1;
            self.used[base + i] = true;
        }
        Ok(())
    }

    /// Reads an LSB-first field.
    ///
    /// # Panics
    ///
    /// Panics when the field does not fit in the bitstream.
    pub fn field(&self, base: usize, width: usize) -> u64 {
        self.try_field(base, width)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`field`](Self::field).
    pub fn try_field(&self, base: usize, width: usize) -> Result<u64, BitstreamError> {
        self.check_field(base, width)?;
        Ok((0..width).fold(0u64, |acc, i| acc | ((self.bits[base + i] as u64) << i)))
    }

    fn check_field(&self, base: usize, width: usize) -> Result<(), BitstreamError> {
        let end = base.checked_add(width);
        if end.is_none_or(|e| e > self.bits.len()) {
            return Err(BitstreamError::FieldOutOfRange {
                base,
                width,
                len: self.bits.len(),
            });
        }
        Ok(())
    }

    /// Hamming distance to another bitstream of equal length.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn hamming_distance(&self, other: &Bitstream) -> usize {
        assert_eq!(self.len(), other.len(), "bitstream length mismatch");
        self.bits
            .iter()
            .zip(&other.bits)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Compact hex dump (MSB-first nibbles), for logging.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(self.bits.len().div_ceil(4));
        for chunk in self.bits.chunks(4) {
            let mut v = 0u8;
            for (i, &b) in chunk.iter().enumerate() {
                if b {
                    v |= 1 << i;
                }
            }
            s.push(char::from_digit(v as u32, 16).expect("nibble"));
        }
        s
    }
}

impl fmt::Display for Bitstream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bitstream[{} bits, {} used ({:.1}%)]",
            self.len(),
            self.used_count(),
            100.0 * self.utilization()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut b = Bitstream::zeros(16);
        assert!(!b.bit(3));
        b.set(3, true);
        assert!(b.bit(3));
        assert!(b.is_used(3));
        assert!(!b.is_used(4));
        assert_eq!(b.used_count(), 1);
    }

    #[test]
    fn unused_set_does_not_mark() {
        let mut b = Bitstream::zeros(8);
        b.set_unused(2, true);
        assert!(b.bit(2));
        assert!(!b.is_used(2));
        b.mark_used(2);
        assert!(b.is_used(2));
    }

    #[test]
    fn fields_roundtrip() {
        let mut b = Bitstream::zeros(32);
        b.set_field(5, 7, 0b1011001);
        assert_eq!(b.field(5, 7), 0b1011001);
        assert_eq!(b.used_count(), 7);
    }

    #[test]
    fn utilization_math() {
        let mut b = Bitstream::zeros(10);
        for i in 0..4 {
            b.set(i, i % 2 == 0);
        }
        assert!((b.utilization() - 0.4).abs() < 1e-12);
        assert_eq!(Bitstream::zeros(0).utilization(), 1.0);
    }

    #[test]
    fn hamming() {
        let mut a = Bitstream::zeros(8);
        let mut b = Bitstream::zeros(8);
        a.set(0, true);
        b.set(0, true);
        b.set(5, true);
        assert_eq!(a.hamming_distance(&b), 1);
        assert_eq!(a.hamming_distance(&a.clone()), 0);
    }

    #[test]
    fn hex_dump() {
        let mut b = Bitstream::zeros(8);
        b.set(0, true); // nibble0 = 0x1
        b.set(7, true); // nibble1 = 0x8
        assert_eq!(b.to_hex(), "18");
    }

    #[test]
    fn try_accessors_report_out_of_range() {
        let mut b = Bitstream::zeros(8);
        assert_eq!(
            b.try_bit(8),
            Err(BitstreamError::OutOfRange { index: 8, len: 8 })
        );
        assert_eq!(
            b.try_set(9, true),
            Err(BitstreamError::OutOfRange { index: 9, len: 8 })
        );
        assert_eq!(
            b.try_field(4, 5),
            Err(BitstreamError::FieldOutOfRange {
                base: 4,
                width: 5,
                len: 8
            })
        );
        assert_eq!(
            b.try_set_field(6, 4, 0xF),
            Err(BitstreamError::FieldOutOfRange {
                base: 6,
                width: 4,
                len: 8
            })
        );
        // A failed field write must not partially program the bitstream.
        assert_eq!(b.used_count(), 0);
        assert!(b.as_bools().iter().all(|&v| !v));
        // Overflow-proof: base + width wrapping must not sneak past the check.
        assert!(b.try_field(usize::MAX, 2).is_err());
        // In-range accesses still work through the fallible API.
        assert_eq!(b.try_set_field(2, 3, 0b110), Ok(()));
        assert_eq!(b.try_field(2, 3), Ok(0b110));
        assert_eq!(b.try_bit(3), Ok(true));
    }

    #[test]
    fn panic_messages_are_typed() {
        let err = BitstreamError::OutOfRange { index: 12, len: 8 };
        assert_eq!(err.to_string(), "bit 12 out of range for a 8-bit bitstream");
        let caught = std::panic::catch_unwind(|| Bitstream::zeros(4).bit(7));
        let msg = *caught
            .unwrap_err()
            .downcast::<String>()
            .expect("string payload");
        assert!(
            msg.contains("out of range"),
            "panic should carry the typed message: {msg}"
        );
    }

    #[test]
    fn display_summarizes() {
        let mut b = Bitstream::zeros(4);
        b.set(1, true);
        let text = b.to_string();
        assert!(text.contains("4 bits"));
        assert!(text.contains("1 used"));
    }
}
