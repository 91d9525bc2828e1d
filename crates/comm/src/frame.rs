//! Length-prefixed framing for byte-stream transports.
//!
//! TCP delivers a byte stream, not messages; this module maps between the
//! two. Every frame is a little-endian `u32` payload length followed by
//! the payload bytes. [`FrameDecoder`] is an incremental decoder: feed it
//! stream chunks of any size (down to a single byte — TCP may tear a
//! frame anywhere) and it yields complete payloads in order.

use std::io::{self, IoSlice, Write};

use bytes::{BufMut, Bytes, BytesMut};

use crate::wire::WireError;

/// Consumed-prefix length that triggers compaction of the decoder buffer
/// (compaction runs at most once per [`FrameDecoder::extend`], so the
/// copy cost amortizes over the chunk, not over the frames in it).
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Maximum frame payload (guards against corrupt or hostile prefixes; an
/// item fetch reply carries one cache slot, far below this).
pub const MAX_FRAME: u32 = 1 << 30;

/// Bytes of framing overhead per message (the length prefix).
pub const FRAME_HEADER: usize = 4;

/// Encodes one frame (header + payload) into a standalone buffer.
pub fn encode_frame(payload: &[u8]) -> Bytes {
    assert!(payload.len() <= MAX_FRAME as usize, "frame too large");
    let mut buf = BytesMut::with_capacity(FRAME_HEADER + payload.len());
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    buf.freeze()
}

/// Writes one frame to a byte sink (what the socket transport sends).
/// Header and payload go out in one vectored write, so under
/// `TCP_NODELAY` a small frame leaves as one segment, not two; a partial
/// write is continued until the whole frame is out.
/// An oversized payload is an I/O error, not a panic: the send path runs
/// on fault-critical threads that must degrade, never abort.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let header = (payload.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut rest = slices.as_mut_slice();
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Incremental frame decoder over an arbitrary chunking of the stream.
///
/// Consumed frames advance a cursor instead of shifting the buffer, so
/// decoding `k` frames out of one received chunk costs `O(chunk + k)`
/// rather than `O(chunk · k)` — the receive path of the socket transport
/// decodes thousands of small directory messages per chunk.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Start of the undecoded region of `buf`.
    pos: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stream chunk (any size, including one byte).
    pub fn extend(&mut self, chunk: &[u8]) {
        if self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete payload, `Ok(None)` if more bytes are
    /// needed, or [`WireError::BadLength`] on an implausible prefix (the
    /// connection should be dropped — the stream cannot resynchronize).
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, WireError> {
        let avail = self.buf.get(self.pos..).unwrap_or_default();
        if avail.len() < FRAME_HEADER {
            return Ok(None);
        }
        let Some(head) = avail.get(..FRAME_HEADER) else {
            return Ok(None);
        };
        let mut header = [0u8; FRAME_HEADER];
        header.copy_from_slice(head);
        let len = u32::from_le_bytes(header);
        if len > MAX_FRAME {
            return Err(WireError::BadLength(len as u64));
        }
        let total = FRAME_HEADER + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let Some(body) = avail.get(FRAME_HEADER..total) else {
            return Ok(None);
        };
        let payload = Bytes::from(body.to_vec());
        self.pos += total;
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_whole_frames() {
        let mut dec = FrameDecoder::new();
        for payload in [&b"hello"[..], b"", b"world!"] {
            dec.extend(&encode_frame(payload));
        }
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"hello");
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"");
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"world!");
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn torn_reads_one_byte_at_a_time() {
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; i as usize * 7]).collect();
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in &stream {
            dec.extend(&[b]);
            while let Some(frame) = dec.next_frame().unwrap() {
                out.push(frame.to_vec());
            }
        }
        assert_eq!(out, payloads);
    }

    #[test]
    fn implausible_length_rejected() {
        let mut dec = FrameDecoder::new();
        dec.extend(&u32::MAX.to_le_bytes());
        assert!(matches!(dec.next_frame(), Err(WireError::BadLength(_))));
    }

    #[test]
    fn write_frame_matches_encode_frame() {
        let mut out = Vec::new();
        write_frame(&mut out, b"abc").unwrap();
        assert_eq!(out, encode_frame(b"abc").as_ref());
    }

    /// A sink that counts write calls and accepts at most `per_call`
    /// bytes in each (all of them when `None`).
    struct Sink {
        per_call: Option<usize>,
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut budget = self.per_call.unwrap_or(usize::MAX);
            let before = self.bytes.len();
            for buf in bufs {
                let n = buf.len().min(budget);
                self.bytes.extend_from_slice(&buf[..n]);
                budget -= n;
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_per_frame() {
        let mut sink = Sink {
            per_call: None,
            calls: 0,
            bytes: Vec::new(),
        };
        let payloads = [&b"hello"[..], b"", &[7u8; 70_000]];
        for payload in payloads {
            write_frame(&mut sink, payload).unwrap();
        }
        assert_eq!(sink.calls, payloads.len());
        let want: Vec<u8> = payloads
            .iter()
            .flat_map(|p| encode_frame(p).to_vec())
            .collect();
        assert_eq!(sink.bytes, want);
    }

    #[test]
    fn write_frame_continues_partial_writes() {
        let mut sink = Sink {
            per_call: Some(1),
            calls: 0,
            bytes: Vec::new(),
        };
        let payload: Vec<u8> = (0..=255u8).collect();
        write_frame(&mut sink, &payload).unwrap();
        write_frame(&mut sink, b"").unwrap();
        let want = [encode_frame(&payload).to_vec(), encode_frame(b"").to_vec()].concat();
        assert_eq!(sink.bytes, want);
        assert_eq!(sink.calls, want.len(), "one byte per call");
    }
}
