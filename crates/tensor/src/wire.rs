//! Shared little-endian binary codec for on-disk artifacts.
//!
//! Both persistent formats in the workspace — the serving
//! `ModelSnapshot` and the training `TrainCheckpoint` — are hand-rolled
//! little-endian layouts (no serde exists here) sealed by an XXH64
//! checksum over every preceding byte. This module holds the machinery
//! they share so the two loaders cannot drift apart in rigor:
//!
//! * [`xxh64`] and the [`seal`]/[`open`] checksum pair (integrity is
//!   always verified *first*; nothing downstream trusts an unchecksummed
//!   byte), and [`open_artifact`], which also checks the 12-byte
//!   magic-and-version header both formats start with;
//! * bulk matrix transfer: [`push_matrix`] and [`Reader::matrix`] move a
//!   matrix's f32 bit patterns in one little-endian loop each;
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
//!
//! # The checksum
//!
//! XXH64 with seed 0, the published algorithm: four independent
//! multiply-rotate lanes over 32-byte stripes of little-endian u64
//! words, a merge of the lanes, the input length, the 8-, 4- and 1-byte
//! tails, and a final avalanche. Every input bit reaches every output
//! bit, and it runs at memory speed in plain safe Rust. Format version
//! 1 of both artifacts was sealed with FNV-1a-64 instead, which takes
//! one xor and one 64-bit multiply per byte, each waiting on the last:
//! about 4 cycles a byte. Over a 4.6 MB snapshot body it took 6.9 ms
//! against XXH64's 0.44 ms (best of 15, one core of a 2-core Xeon).
//! (FNV-1a over u64 words would be faster but weaker: a multiply only
//! carries a difference upward, so flipping bit 63 of any two words
//! cancels.) Published answers, pinned by this module's tests:
//!
//! | input | XXH64 |
//! |---|---|
//! | `""` | `0xef46db3751d8e999` |
//! | `"a"` | `0xd24ec4f1a98c6e5b` |
//! | `"abc"` | `0x44bc2cf5ad770999` |
//! | `"Nobody inspects the spammish repetition"` | `0xfbcea83c8a378bf1` |
//!
//! This is an integrity check, not an authenticity one: it catches torn
//! writes, short reads and flipped bytes, not a forger.

use std::io;

use crate::Matrix;

const PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;

/// The little-endian u64 in the first 8 bytes of `b`.
#[inline(always)]
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// One lane step: fold the word `input` into the accumulator `acc`.
#[inline(always)]
fn xxh64_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
}

/// Folds the final value of one lane into the merged hash.
#[inline(always)]
fn xxh64_merge(hash: u64, lane: u64) -> u64 {
    (hash ^ xxh64_round(0, lane)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

/// XXH64 of `bytes` with seed 0 (see the module docs): the checksum
/// [`seal`] appends and [`open`] verifies. Allocates nothing.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut hash = if bytes.len() >= 32 {
        let mut lanes = [
            PRIME64_1.wrapping_add(PRIME64_2),
            PRIME64_2,
            0,
            0u64.wrapping_sub(PRIME64_1),
        ];
        for s in stripes {
            lanes[0] = xxh64_round(lanes[0], le64(&s[0..8]));
            lanes[1] = xxh64_round(lanes[1], le64(&s[8..16]));
            lanes[2] = xxh64_round(lanes[2], le64(&s[16..24]));
            lanes[3] = xxh64_round(lanes[3], le64(&s[24..32]));
        }
        let [a, b, c, d] = lanes;
        let hash = a.rotate_left(1).wrapping_add(b.rotate_left(7));
        let hash = hash.wrapping_add(c.rotate_left(12)).wrapping_add(d.rotate_left(18));
        lanes.iter().fold(hash, |h, &lane| xxh64_merge(h, lane))
    } else {
        PRIME64_5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let words = tail.chunks_exact(8);
    let mut rest = words.remainder();
    for w in words {
        hash = (hash ^ xxh64_round(0, le64(w))).rotate_left(27);
        hash = hash.wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
    }
    if let Some((half, bytes)) = rest.split_first_chunk::<4>() {
        hash = (hash ^ (u32::from_le_bytes(*half) as u64).wrapping_mul(PRIME64_1)).rotate_left(23);
        hash = hash.wrapping_mul(PRIME64_2).wrapping_add(PRIME64_3);
        rest = bytes;
    }
    for &b in rest {
        hash = (hash ^ (b as u64).wrapping_mul(PRIME64_5)).rotate_left(11).wrapping_mul(PRIME64_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME64_3);
    hash ^ (hash >> 32)
}

/// An [`io::ErrorKind::InvalidData`] error with the given message.
pub fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Appends the XXH64 checksum of everything in `out` (LE), sealing an
/// artifact body for writing.
pub fn seal(out: &mut Vec<u8>) {
    let sum = xxh64(out);
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
    let stored = le64(tail);
    let computed = xxh64(body);
    if stored != computed {
        return Err(bad(format!(
            "{what}: checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — corrupt or truncated"
        )));
    }
    Ok(body)
}

/// Opens an artifact that starts with `magic` and a format version (a
/// LE `u32`): verifies the checksum ([`open`]) and the header, and
/// returns a [`Reader`] positioned after them. `what` names the
/// artifact in error messages ("snapshot", "checkpoint").
///
/// A file of another version is rejected with a message naming that
/// version. Such a file fails the checksum as well (version 1 was
/// sealed with FNV-1a-64), so its header is read before the checksum,
/// only to pick that message; nothing else is read unverified.
pub fn open_artifact<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
    what: &'static str,
) -> io::Result<Reader<'a>> {
    if let Some(header) = bytes.get(..12).filter(|h| h[..8] == magic[..]) {
        let found = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if found != version {
            return Err(bad(format!("{what}: unsupported format version {found} (expected {version})")));
        }
    }
    let mut r = Reader::new(open(bytes, what)?, what);
    if r.take(magic.len(), "magic")? != magic {
        return Err(bad(format!("{what}: bad magic (not a GNMR {what})")));
    }
    // The checksummed version field: the same bytes the check above read.
    r.u32("version")?;
    Ok(r)
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
/// negative zero and NaN payloads. One loop over a tail of `out` sized
/// up front.
pub fn push_matrix(out: &mut Vec<u8>, m: &Matrix) {
    let start = out.len();
    out.resize(start + 4 * m.data().len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(m.data()) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
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
        Ok(le64(self.take(8, field)?))
    }

    /// Reads `rows × cols` f32 bit patterns into a [`Matrix`], in one
    /// loop. The byte take happens before the allocation, so a declared
    /// shape larger than the remaining input fails without allocating.
    pub fn matrix(&mut self, rows: u32, cols: u32, field: &str) -> io::Result<Matrix> {
        let n = (rows as usize)
            .checked_mul(cols as usize)
            .ok_or_else(|| bad(format!("{}: {field} shape overflows", self.what)))?;
        let nbytes = n.checked_mul(4).ok_or_else(|| bad(format!("{}: payload overflow", self.what)))?;
        let raw = self.take(nbytes, field)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect();
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
    fn xxh64_matches_the_published_answers() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xfbce_a83c_8a37_8bf1);
    }

    /// XXH64 written plainly from the specification: index arithmetic
    /// and words assembled a byte at a time.
    fn reference_xxh64(input: &[u8]) -> u64 {
        let word = |i: usize, n: usize| (0..n).fold(0u64, |w, k| w | (input[i + k] as u64) << (8 * k));
        let round = |acc: u64, w: u64| {
            acc.wrapping_add(w.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
        };
        let len = input.len();
        let mut i = 0;
        let mut h;
        if len >= 32 {
            let mut v = [PRIME64_1.wrapping_add(PRIME64_2), PRIME64_2, 0, 0u64.wrapping_sub(PRIME64_1)];
            while i + 32 <= len {
                for (lane, acc) in v.iter_mut().enumerate() {
                    *acc = round(*acc, word(i + 8 * lane, 8));
                }
                i += 32;
            }
            h = v[0].rotate_left(1);
            h = h.wrapping_add(v[1].rotate_left(7));
            h = h.wrapping_add(v[2].rotate_left(12));
            h = h.wrapping_add(v[3].rotate_left(18));
            for acc in v {
                h ^= round(0, acc);
                h = h.wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
            }
        } else {
            h = PRIME64_5;
        }
        h = h.wrapping_add(len as u64);
        while i + 8 <= len {
            h ^= round(0, word(i, 8));
            h = h.rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
            i += 8;
        }
        if i + 4 <= len {
            h ^= word(i, 4).wrapping_mul(PRIME64_1);
            h = h.rotate_left(23).wrapping_mul(PRIME64_2).wrapping_add(PRIME64_3);
            i += 4;
        }
        while i < len {
            h ^= (input[i] as u64).wrapping_mul(PRIME64_5);
            h = h.rotate_left(11).wrapping_mul(PRIME64_1);
            i += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME64_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME64_3);
        h ^ (h >> 32)
    }

    #[test]
    fn xxh64_matches_a_plain_reference_on_every_tail() {
        // 47 bytes: one stripe, then a full 8-byte word, the 4-byte
        // tail and three single bytes.
        let text = b"The quick brown fox jumps over the lazy dog. 47";
        assert_eq!(text.len(), 47);
        assert_eq!(xxh64(text), reference_xxh64(text));
        // Every length through three stripes plus each tail shape.
        let bytes: Vec<u8> = (0..200u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for n in 0..=bytes.len() {
            assert_eq!(xxh64(&bytes[..n]), reference_xxh64(&bytes[..n]), "length {n}");
        }
    }

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
    fn open_artifact_checks_the_header_and_names_another_version() {
        let magic = *b"TESTMAGC";
        let artifact = |version: u32| {
            let mut buf = magic.to_vec();
            push_u32(&mut buf, version);
            push_u32(&mut buf, 7);
            seal(&mut buf);
            buf
        };
        let current = artifact(2);
        let mut r = open_artifact(&current, &magic, 2, "test").unwrap();
        assert_eq!(r.u32("payload").unwrap(), 7);
        r.finish().unwrap();

        // Another version is named ahead of the checksum, whatever the
        // trailer holds.
        let mut old = artifact(1);
        let last = old.len() - 1;
        old[last] ^= 1;
        let err = open_artifact(&old, &magic, 2, "test").err().expect("version 1 accepted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported format version 1 (expected 2)"), "{err}");

        let mut foreign = current.clone();
        foreign[0] = b'X';
        let err = open_artifact(&foreign, &magic, 2, "test").err().expect("foreign file accepted");
        assert!(err.to_string().contains("checksum"), "{err}");
        let mut body = foreign[..foreign.len() - 8].to_vec();
        seal(&mut body);
        let err = open_artifact(&body, &magic, 2, "test").err().expect("bad magic accepted");
        assert!(err.to_string().contains("bad magic"), "{err}");
        for keep in 0..current.len() {
            assert!(open_artifact(&current[..keep], &magic, 2, "test").is_err(), "keep {keep}");
        }
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
