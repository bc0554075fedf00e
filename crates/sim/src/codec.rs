//! Minimal length-prefixed binary codec used by the persistent snapshot
//! store.
//!
//! The store (see `avis::store` in `avis-core`) persists snapshot cuts
//! to disk; every snapshot-bearing type hand-rolls an
//! `encode`/`decode` pair against [`ByteWriter`]/[`ByteReader`] so the
//! workspace stays dependency-free. The format is deliberately boring:
//!
//! - all integers little-endian, `usize` widened to `u64`,
//! - `f64` via `to_bits()` so round-trips are bit-exact (NaN payloads and
//!   signed zeros survive),
//! - collections and byte strings length-prefixed with a `u64` count,
//! - `Option<T>` as a one-byte tag (0 = `None`, 1 = `Some`).
//!
//! Decoding is defensive, never panicking on corrupt input: every read
//! returns a [`CodecError`] and sequence counts are sanity-checked against
//! the remaining buffer so a bit-flipped length prefix cannot trigger a
//! pathological allocation. The store treats any decode error as a corrupt
//! blob and falls back to a cold start.

use std::fmt;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// 64-bit FNV-1a over a byte string — the content-address function for
/// store blobs and [`crate::cow`] chunks. Kept here so every crate hashes
/// identically; the same function keys the in-memory snapshot tier.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Error produced when decoding a malformed or truncated buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was fully read.
    UnexpectedEof,
    /// The bytes were readable but semantically invalid (bad enum tag,
    /// implausible length prefix, trailing garbage, ...).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => f.write_str("unexpected end of buffer"),
            CodecError::Malformed(what) => write!(f, "malformed value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Shorthand result type for decode operations.
pub type CodecResult<T> = Result<T, CodecError>;

/// Append-only byte buffer with little-endian primitive writers.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16` little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64` little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its bit pattern (bit-exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a length-prefixed sequence using `f` per element.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            f(self, item);
        }
    }

    /// Writes an `Option` as a one-byte tag plus the payload if present.
    pub fn option<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                f(self, inner);
            }
        }
    }
}

/// Cursor over an encoded buffer with checked little-endian readers.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — catches blobs with
    /// trailing garbage (a symptom of format skew or corruption).
    pub fn finish(&self) -> CodecResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes after value"))
        }
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> CodecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool tag")),
        }
    }

    /// Reads a `u16` little-endian.
    pub fn u16(&mut self) -> CodecResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32` little-endian.
    pub fn u32(&mut self) -> CodecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` little-endian.
    pub fn u64(&mut self) -> CodecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `i64` little-endian.
    pub fn i64(&mut self) -> CodecResult<i64> {
        Ok(self.u64()? as i64)
    }

    /// Reads a `usize`, rejecting values that overflow the platform width.
    pub fn usize(&mut self) -> CodecResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Malformed("usize overflow"))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a count prefix, sanity-checked so each counted element has at
    /// least `min_elem_bytes` bytes left in the buffer. A corrupt length
    /// can then only over-read (caught by `UnexpectedEof`), never trigger
    /// a multi-gigabyte allocation.
    fn checked_len(&mut self, min_elem_bytes: usize) -> CodecResult<usize> {
        let len = self.usize()?;
        let need = len.checked_mul(min_elem_bytes.max(1));
        match need {
            Some(need) if need <= self.remaining() => Ok(len),
            _ => Err(CodecError::Malformed("implausible length prefix")),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> CodecResult<Vec<u8>> {
        let len = self.checked_len(1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> CodecResult<String> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::Malformed("utf-8 string"))
    }

    /// Reads a length-prefixed sequence using `f` per element.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> CodecResult<T>,
    ) -> CodecResult<Vec<T>> {
        let len = self.checked_len(1)?;
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Reads an `Option` written by [`ByteWriter::option`].
    pub fn option<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> CodecResult<T>,
    ) -> CodecResult<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(CodecError::Malformed("option tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(65535);
        w.u32(123_456);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.usize(99);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 65535);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 99);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn seq_and_option_round_trip() {
        let mut w = ByteWriter::new();
        w.seq(&[1.5f64, -2.25, 3.0], |w, v| w.f64(*v));
        w.option(Some(&"x".to_string()), |w, s| w.str(s));
        w.option::<String>(None, |w, s| w.str(s));
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.seq(|r| r.f64()).unwrap(), vec![1.5, -2.25, 3.0]);
        assert_eq!(r.option(|r| r.str()).unwrap(), Some("x".to_string()));
        assert_eq!(r.option(|r| r.str()).unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_buffer_errors() {
        let mut w = ByteWriter::new();
        w.u64(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..4]);
        assert_eq!(r.u64(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn implausible_length_is_rejected_without_allocation() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX / 2); // absurd element count
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.seq(|r| r.u8()), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn bad_tags_are_malformed() {
        let bytes = [2u8];
        assert!(matches!(
            ByteReader::new(&bytes).bool(),
            Err(CodecError::Malformed(_))
        ));
        assert!(matches!(
            ByteReader::new(&bytes).option(|r| r.u8()),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = ByteWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
