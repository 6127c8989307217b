//! Shared little-endian binary codec for on-disk artifacts.
//!
//! Both persistent formats in the workspace — the serving
//! `ModelSnapshot` and the training `TrainCheckpoint` — are hand-rolled
//! little-endian layouts (no serde exists here) sealed by an FNV-1a 64
//! checksum over every preceding byte. This module holds the machinery
//! they share so the two loaders cannot drift apart in rigor:
//!
//! * [`fnv1a64`] and the [`seal`]/[`open`] checksum pair (integrity is
//!   always verified *first*; nothing downstream trusts an unchecksummed
//!   byte);
//! * a bounds-checked [`Reader`] whose every accessor validates the
//!   remaining length **before** allocating, so a corrupt header cannot
//!   trigger a huge allocation;
//! * [`read_shape_table`], the named-matrix table decoder: strictly
//!   ascending UTF-8 names, per-entry shape-overflow checks, an entry
//!   count bounded by the bytes actually present, and a declared-payload
//!   total bounded by the bytes actually remaining.
//!
//! Every rejection path returns [`std::io::ErrorKind::InvalidData`]
//! with a message naming the defect.

use std::io;

use crate::Matrix;

/// FNV-1a 64-bit: dependency-free, byte-order-independent, and strong
/// enough to catch the single-byte flips and truncations the loaders
/// guard against (this is an integrity check, not an authenticity one).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An [`io::ErrorKind::InvalidData`] error with the given message.
pub fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Appends the FNV-1a 64 checksum of everything in `out` (LE), sealing
/// an artifact body for writing.
pub fn seal(out: &mut Vec<u8>) {
    let sum = fnv1a64(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Splits off and verifies the trailing checksum, returning the body.
/// `what` names the artifact in error messages ("snapshot",
/// "checkpoint"). Verification happens before any structural parsing:
/// a torn write or flipped byte is rejected here, not interpreted.
pub fn open<'a>(bytes: &'a [u8], what: &str) -> io::Result<&'a [u8]> {
    if bytes.len() < 8 {
        return Err(bad(format!("{what}: {} bytes is too short to hold a checksum", bytes.len())));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes([
        tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
    ]);
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(bad(format!(
            "{what}: checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — corrupt or truncated"
        )));
    }
    Ok(body)
}

/// Appends a `u32` (LE).
pub fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (LE).
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a matrix as raw f32 bit patterns (LE, row-major). Bit
/// patterns — not values — so a round trip is bitwise-exact, including
/// negative zero and NaN payloads.
pub fn push_matrix(out: &mut Vec<u8>, m: &Matrix) {
    for &v in m.data() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Bounds-checked little-endian reader over an artifact body.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`; `what` prefixes error messages.
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Reader { bytes, pos: 0, what }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` bytes or fails with a truncation error.
    pub fn take(&mut self, n: usize, field: &str) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| bad(format!("{}: length overflow", self.what)))?;
        if end > self.bytes.len() {
            return Err(bad(format!(
                "{}: truncated while reading {field} ({} bytes left, {n} needed)",
                self.what,
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u32` (LE).
    pub fn u32(&mut self, field: &str) -> io::Result<u32> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` (LE).
    pub fn u64(&mut self, field: &str) -> io::Result<u64> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads `rows × cols` f32 bit patterns into a [`Matrix`]. The
    /// byte take happens before the allocation, so a declared shape
    /// larger than the remaining input fails without allocating.
    pub fn matrix(&mut self, rows: u32, cols: u32, field: &str) -> io::Result<Matrix> {
        let n = (rows as usize)
            .checked_mul(cols as usize)
            .ok_or_else(|| bad(format!("{}: {field} shape overflows", self.what)))?;
        let nbytes = n.checked_mul(4).ok_or_else(|| bad(format!("{}: payload overflow", self.what)))?;
        let raw = self.take(nbytes, field)?;
        let mut data = Vec::with_capacity(n);
        for c in raw.chunks_exact(4) {
            data.push(f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])));
        }
        Ok(Matrix::from_vec(rows as usize, cols as usize, data))
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(self) -> io::Result<()> {
        if self.pos != self.bytes.len() {
            return Err(bad(format!(
                "{}: {} trailing bytes after payload",
                self.what,
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Smallest possible shape-table entry: empty name (4 length bytes) +
/// rows + cols. Bounds the declared entry count by what the input could
/// physically hold.
const MIN_TABLE_ENTRY: usize = 12;

/// Writes the named-matrix shape table of `(name, matrix)` pairs: per
/// entry, name length, name bytes, rows, cols. Callers guarantee
/// strictly ascending names (the canonical `ParamStore` iteration
/// order).
pub fn push_shape_table<'a>(out: &mut Vec<u8>, entries: impl IntoIterator<Item = (&'a str, &'a Matrix)>) {
    for (name, m) in entries {
        push_u32(out, name.len() as u32);
        out.extend_from_slice(name.as_bytes());
        push_u32(out, m.rows() as u32);
        push_u32(out, m.cols() as u32);
    }
}

/// Reads an `n`-entry shape table, hardened against corrupt headers
/// that slipped past the checksum (or adversarial inputs restamped with
/// a valid checksum):
///
/// * `n` itself is bounded by `remaining / MIN_TABLE_ENTRY` **before**
///   the table vector is allocated — a declared count of `u32::MAX`
///   cannot reserve gigabytes;
/// * names must be UTF-8 and strictly ascending;
/// * each `rows * cols * 4` is overflow-checked, and the running total
///   of declared payload bytes is bounded by the bytes remaining after
///   the table, again before any matrix allocation happens.
pub fn read_shape_table(
    r: &mut Reader<'_>,
    n: usize,
    what: &str,
) -> io::Result<Vec<(String, u32, u32)>> {
    if n > r.remaining() / MIN_TABLE_ENTRY {
        return Err(bad(format!(
            "{what}: declared table of {n} entries cannot fit in {} remaining bytes",
            r.remaining()
        )));
    }
    let mut table = Vec::with_capacity(n);
    let mut declared_payload = 0usize;
    for i in 0..n {
        let name_len = r.u32(&format!("{what} name length"))? as usize;
        let name = std::str::from_utf8(r.take(name_len, &format!("{what} name"))?)
            .map_err(|_| bad(format!("{what}: entry {i} name is not UTF-8")))?
            .to_string();
        if let Some((prev, _, _)) = table.last() {
            if *prev >= name {
                return Err(bad(format!("{what}: table not strictly ascending at {name:?}")));
            }
        }
        let rows = r.u32(&format!("{what} rows"))?;
        let cols = r.u32(&format!("{what} cols"))?;
        let bytes = (rows as usize)
            .checked_mul(cols as usize)
            .and_then(|e| e.checked_mul(4))
            .ok_or_else(|| bad(format!("{what}: entry {name:?} shape overflows")))?;
        declared_payload = declared_payload
            .checked_add(bytes)
            .ok_or_else(|| bad(format!("{what}: total payload overflows")))?;
        table.push((name, rows, cols));
    }
    if declared_payload > r.remaining() {
        return Err(bad(format!(
            "{what}: table declares {declared_payload} payload bytes but only {} remain",
            r.remaining()
        )));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip_and_rejects_flip() {
        let mut buf = b"hello artifact".to_vec();
        seal(&mut buf);
        assert_eq!(open(&buf, "test").unwrap(), b"hello artifact");
        for i in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x20;
            assert!(open(&corrupt, "test").is_err(), "flip at {i} accepted");
        }
        assert!(open(&buf[..buf.len() - 1], "test").is_err());
        assert!(open(&[], "test").is_err());
    }

    #[test]
    fn reader_bounds_and_finish() {
        let mut buf = Vec::new();
        push_u32(&mut buf, 7);
        push_u64(&mut buf, 9);
        let mut r = Reader::new(&buf, "test");
        assert_eq!(r.u32("a").unwrap(), 7);
        assert_eq!(r.u64("b").unwrap(), 9);
        assert!(r.u32("past end").is_err());
        let mut r = Reader::new(&buf, "test");
        r.u32("a").unwrap();
        assert!(r.finish().is_err(), "trailing bytes must be rejected");
    }

    #[test]
    fn matrix_roundtrip_is_bitwise() {
        let m = Matrix::from_vec(2, 3, vec![1.0, -0.0, f32::NAN, 3.5, -2.0, 1e-38]);
        let mut buf = Vec::new();
        push_matrix(&mut buf, &m);
        let mut r = Reader::new(&buf, "test");
        let back = r.matrix(2, 3, "m").unwrap();
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&m), bits(&back));
    }

    #[test]
    fn oversized_declared_matrix_fails_before_allocating() {
        let buf = vec![0u8; 16];
        let mut r = Reader::new(&buf, "test");
        // 1B x 1B elements: the u32 shapes are legal but the take must
        // fail on the 16 available bytes, never reaching an allocation.
        assert!(r.matrix(1 << 30, 1 << 30, "huge").is_err());
    }

    #[test]
    fn shape_table_roundtrip() {
        let (alpha, beta) = (Matrix::zeros(2, 3), Matrix::zeros(1, 4));
        let mut buf = Vec::new();
        push_shape_table(&mut buf, [("alpha", &alpha), ("beta", &beta)]);
        // Payload placeholder so the declared-total bound passes.
        buf.extend_from_slice(&[0u8; (2 * 3 + 4) * 4]);
        let mut r = Reader::new(&buf, "test");
        let table = read_shape_table(&mut r, 2, "test table").unwrap();
        assert_eq!(table, vec![("alpha".to_string(), 2, 3), ("beta".to_string(), 1, 4)]);
    }

    #[test]
    fn shape_table_bounds_declared_count() {
        let buf = vec![0u8; 24]; // room for at most 2 minimal entries
        let mut r = Reader::new(&buf, "test");
        let err = read_shape_table(&mut r, usize::MAX / 2, "test table").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cannot fit"), "{err}");
    }

    #[test]
    fn shape_table_bounds_declared_payload() {
        let w = Matrix::zeros(1000, 1000);
        let mut buf = Vec::new();
        push_shape_table(&mut buf, [("w", &w)]);
        // No payload follows: 4M declared bytes vs 0 remaining.
        let mut r = Reader::new(&buf, "test");
        let err = read_shape_table(&mut r, 1, "test table").unwrap_err();
        assert!(err.to_string().contains("payload bytes"), "{err}");
    }

    #[test]
    fn shape_table_rejects_disorder_and_bad_utf8() {
        let one = Matrix::zeros(1, 1);
        let mut buf = Vec::new();
        push_shape_table(&mut buf, [("b", &one), ("a", &one)]);
        buf.extend_from_slice(&[0u8; 8]);
        let mut r = Reader::new(&buf, "test");
        assert!(read_shape_table(&mut r, 2, "test table").is_err());

        let mut buf = Vec::new();
        push_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8 name
        push_u32(&mut buf, 1);
        push_u32(&mut buf, 1);
        buf.extend_from_slice(&[0u8; 4]);
        let mut r = Reader::new(&buf, "test");
        assert!(read_shape_table(&mut r, 1, "test table").is_err());
    }
}
