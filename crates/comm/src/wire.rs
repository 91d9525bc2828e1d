//! Compact binary codec with exact wire-size accounting.
//!
//! Messages crossing "the network" are encoded to bytes even though the
//! cluster is in-process: byte counts feed the network/I-O accounting that
//! the paper's Fig 12 reports, and encoding keeps node state genuinely
//! shared-nothing (a message cannot smuggle references).

// The panic-path set: faults and hostile bytes return errors (docs/static-checks.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use bytes::Bytes;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// A tag byte had no corresponding variant.
    BadTag(u8),
    /// A length prefix exceeded sanity limits.
    BadLength(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadLength(n) => write!(f, "implausible length {n}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum decoded collection length (guards against corrupt prefixes).
const MAX_LEN: u64 = 1 << 32;

/// Writer over a growable byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an u8.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 (IEEE-754 bits, little-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Finalizes into an immutable buffer.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Reader over an immutable byte buffer: a cursor that every `get_*`
/// advances, and that never moves past the end.
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
    /// Start of the unconsumed bytes; never past `buf.len()`.
    pos: usize,
}

impl WireReader {
    /// Creates a reader over `buf`.
    pub fn new(buf: Bytes) -> Self {
        Self { buf, pos: 0 }
    }

    /// Consumes the next `N` bytes.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let chunk = self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<N>)
            .ok_or(WireError::Truncated)?;
        let out = *chunk;
        self.pos += N;
        Ok(out)
    }

    /// Reads an u8.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.take()?;
        Ok(b)
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.take().map(u32::from_le_bytes)
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.take().map(u64::from_le_bytes)
    }

    /// Reads an f64.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string (zero-copy slice of the input).
    pub fn get_bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.get_u64()?;
        if len > MAX_LEN {
            return Err(WireError::BadLength(len));
        }
        let len = usize::try_from(len).map_err(|_| WireError::BadLength(len))?;
        if self.remaining() < len {
            return Err(WireError::Truncated);
        }
        let out = self.buf.slice(self.pos..self.pos + len);
        self.pos += len;
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::Truncated)
    }

    /// Unconsumed bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// A type with a binary wire representation.
pub trait Wire: Sized {
    /// Encodes `self` onto the writer.
    fn encode(&self, w: &mut WireWriter);

    /// Decodes a value from the reader.
    fn decode(r: &mut WireReader) -> Result<Self, WireError>;

    /// Encodes into a standalone buffer.
    fn to_bytes(&self) -> Bytes {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decodes from a standalone buffer, requiring full consumption.
    fn from_bytes(buf: Bytes) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Truncated);
        }
        Ok(v)
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_u64()
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_f64()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_str()
    }
}

impl Wire for Bytes {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_bytes()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let len = r.get_u64()?;
        if len > MAX_LEN {
            return Err(WireError::BadLength(len));
        }
        let mut out = Vec::with_capacity(len.min(1024) as usize);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEADBEEF);
        w.put_u64(u64::MAX);
        w.put_f64(-1.5);
        w.put_str("hello");
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), -1.5);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_input_detected() {
        let mut w = WireWriter::new();
        w.put_u64(42);
        let bytes = w.finish();
        let mut r = WireReader::new(bytes.slice(0..4));
        assert_eq!(r.get_u64(), Err(WireError::Truncated));
    }

    #[test]
    fn vec_roundtrip_via_wire_trait() {
        let v: Vec<u64> = vec![1, 2, 3, 500];
        let encoded = v.to_bytes();
        assert_eq!(Vec::<u64>::from_bytes(encoded).unwrap(), v);
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<u64> = Some(9);
        let none: Option<u64> = None;
        assert_eq!(Option::<u64>::from_bytes(some.to_bytes()).unwrap(), some);
        assert_eq!(Option::<u64>::from_bytes(none.to_bytes()).unwrap(), none);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(1);
        w.put_u8(0xFF); // junk
        assert_eq!(u64::from_bytes(w.finish()), Err(WireError::Truncated));
    }

    #[test]
    fn encoded_sizes() {
        let v: Vec<u64> = vec![0; 10];
        assert_eq!(v.to_bytes().len(), 8 + 10 * 8);
        let s = "abc".to_string();
        assert_eq!(s.to_bytes().len(), 8 + 3);
    }

    #[test]
    fn get_bytes_is_a_view_into_the_input() {
        let payload = Bytes::from(vec![9u8; 1000]);
        let encoded = payload.to_bytes();
        let decoded = Bytes::from_bytes(encoded.clone()).unwrap();
        assert_eq!(decoded, payload);
        // The payload starts after its 8-byte length prefix, in the same
        // allocation: no byte was copied.
        assert_eq!(decoded.as_ptr(), encoded[8..].as_ptr());
    }

    #[test]
    fn truncated_byte_string_leaves_reader_usable() {
        let mut w = WireWriter::new();
        w.put_u64(5);
        w.put_u32(7);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_bytes(), Err(WireError::Truncated));
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.get_u32(), Ok(7));
        assert_eq!(r.get_u8(), Err(WireError::Truncated));
    }

    #[test]
    fn bad_option_tag() {
        let mut w = WireWriter::new();
        w.put_u8(2);
        assert_eq!(
            Option::<u64>::from_bytes(w.finish()),
            Err(WireError::BadTag(2))
        );
    }

    #[test]
    fn implausible_length_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX); // length prefix
        let mut r = WireReader::new(w.finish());
        assert!(matches!(r.get_bytes(), Err(WireError::BadLength(_))));
    }
}
