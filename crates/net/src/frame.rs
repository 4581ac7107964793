//! Streaming CRC frame decoding over a byte stream.
//!
//! The wire format is the persistence layer's record framing —
//! `[len:u32][crc32:u32][payload]` — but a socket delivers it in
//! arbitrary fragments: a `read()` may return half a header, a frame
//! and a half, or be interrupted by a signal. A frame buffer
//! accumulates bytes across reads and yields one *verified* frame at a
//! time; it does no I/O, so the server's [`crate::session::Session`]
//! feeds it whatever its driver read. [`FrameReader`] fills one from a
//! [`Read`] and distinguishes four outcomes the caller handles
//! differently:
//!
//! * a complete, checksum-verified frame;
//! * a pause (the read timed out / would block) — the caller can check
//!   its shutdown flag and poll again;
//! * a clean end-of-stream *at a frame boundary* — an orderly close;
//! * a torn or corrupt frame — a typed [`FrameDecodeError`] that
//!   poisons this connection (and only this connection: the bytes after
//!   a framing error are unrecoverable noise, so the stream must die,
//!   but the server keeps serving everyone else).

use smartstore_persist::codec::{check_record, RecordCheck, RECORD_HEADER_BYTES};
use std::io::Read;
use std::ops::Range;

/// Frame header: `[len: u32 le][crc32: u32 le]`.
pub const FRAME_HEADER_BYTES: usize = RECORD_HEADER_BYTES;

/// Upper bound on a single network frame's payload. Protocol messages
/// are requests/responses (small); anything larger is corruption, and
/// bounding it keeps a hostile length prefix from ballooning the
/// connection buffer.
pub const MAX_FRAME_BYTES: usize = 1 << 26; // 64 MiB

/// A torn or corrupt frame: the connection's framing is lost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameDecodeError {
    /// Stream offset (bytes consumed before this frame) of the bad
    /// frame's first byte.
    pub offset: u64,
    /// Reason.
    pub reason: String,
}

impl std::fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame decode error at stream offset {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for FrameDecodeError {}

/// One polling step's outcome.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame: raw bytes (header + payload), checksum
    /// verified. The payload is `raw[FRAME_HEADER_BYTES..]`.
    Frame(Vec<u8>),
    /// The underlying read timed out or would block; no bytes were
    /// lost. Poll again (after checking shutdown flags).
    Pause,
    /// Clean end of stream at a frame boundary.
    Eof,
}

/// Why a poll could not produce a frame.
#[derive(Debug)]
pub enum FrameReadError {
    /// Torn/corrupt framing (poison the connection, typed).
    Decode(FrameDecodeError),
    /// Transport-level I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Decode(e) => write!(f, "{e}"),
            FrameReadError::Io(e) => write!(f, "frame read I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// The sans-IO half of frame decoding: the bytes a stream delivered,
/// cut into verified frames as they complete. [`FrameReader`] pairs it
/// with a [`Read`]; a [`crate::session::Session`] is fed by its driver.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    /// Buffered-but-unconsumed bytes: `buf[start..]` is live.
    buf: Vec<u8>,
    start: usize,
    /// Total bytes consumed off the stream (error reporting).
    consumed: u64,
}

impl FrameBuf {
    /// Appends bytes the stream delivered.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing: all of it once
        // nothing is live, else once it dominates the buffer.
        if self.start == self.buf.len()
            || (self.start > 64 * 1024 && self.start * 2 > self.buf.len())
        {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet part of a yielded frame.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Cuts the next complete frame (header + payload, checksum
    /// verified) off the front without copying it. `Ok(None)` means
    /// more bytes are needed. The range indexes [`FrameBuf::frame`]
    /// until the next [`FrameBuf::extend`].
    pub(crate) fn next_frame(&mut self) -> Result<Option<Range<usize>>, FrameDecodeError> {
        let total = match check_record(&self.buf[self.start..], MAX_FRAME_BYTES) {
            RecordCheck::NeedMore => return Ok(None),
            RecordCheck::Complete(len) => FRAME_HEADER_BYTES + len,
            RecordCheck::Torn(reason) => {
                return Err(FrameDecodeError {
                    offset: self.consumed,
                    reason,
                })
            }
        };
        let frame = self.start..self.start + total;
        self.start = frame.end;
        self.consumed += total as u64;
        Ok(Some(frame))
    }

    /// The bytes of a frame [`FrameBuf::next_frame`] returned.
    pub(crate) fn frame(&self, frame: Range<usize>) -> &[u8] {
        &self.buf[frame]
    }

    /// How a stream that ends here ends: `None` at a frame boundary,
    /// else the torn frame it leaves behind.
    pub(crate) fn end_of_stream(&self) -> Option<FrameDecodeError> {
        (self.buffered() > 0).then(|| FrameDecodeError {
            offset: self.consumed,
            reason: format!(
                "stream ended inside a frame ({} torn bytes)",
                self.buffered()
            ),
        })
    }
}

/// Incremental frame decoder over any [`Read`]: a frame buffer filled
/// from the stream.
pub struct FrameReader<R> {
    inner: R,
    frames: FrameBuf,
    read_chunk: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            frames: FrameBuf::default(),
            read_chunk: vec![0u8; 64 * 1024],
        }
    }

    /// Bytes buffered but not yet part of a yielded frame.
    pub fn buffered(&self) -> usize {
        self.frames.buffered()
    }

    /// Attempts to extract one complete frame from the buffer without
    /// touching the underlying stream. `Ok(None)` means more bytes are
    /// needed.
    pub fn try_buffered(&mut self) -> Result<Option<Vec<u8>>, FrameDecodeError> {
        Ok(self
            .frames
            .next_frame()?
            .map(|frame| self.frames.frame(frame).to_vec()))
    }

    /// Produces the next frame, reading from the stream as needed.
    /// Retries `EINTR` transparently; a read timeout surfaces as
    /// [`FrameEvent::Pause`]; end-of-stream *inside* a frame is a
    /// decode error (a torn frame), at a boundary it is a clean
    /// [`FrameEvent::Eof`].
    pub fn poll(&mut self) -> Result<FrameEvent, FrameReadError> {
        loop {
            if let Some(raw) = self.try_buffered().map_err(FrameReadError::Decode)? {
                return Ok(FrameEvent::Frame(raw));
            }
            match self.inner.read(&mut self.read_chunk) {
                Ok(0) => {
                    return match self.frames.end_of_stream() {
                        None => Ok(FrameEvent::Eof),
                        Some(torn) => Err(FrameReadError::Decode(torn)),
                    };
                }
                Ok(n) => self.frames.extend(&self.read_chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(FrameEvent::Pause);
                }
                Err(e) => return Err(FrameReadError::Io(e)),
            }
        }
    }
}

/// Writes all of `buf`, retrying short writes and `EINTR` explicitly —
/// the write-path mirror of the reader's short-read tolerance.
pub fn write_all_retry(w: &mut impl std::io::Write, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "connection accepted no bytes",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use smartstore_persist::codec::put_record;

    /// A `Read` that delivers a script of byte chunks, then EOF.
    struct Dribble {
        data: Vec<u8>,
        cuts: Vec<usize>,
        pos: usize,
        cut_idx: usize,
    }

    impl Dribble {
        fn new(data: Vec<u8>, cuts: Vec<usize>) -> Self {
            Self {
                data,
                cuts,
                pos: 0,
                cut_idx: 0,
            }
        }
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let step = self
                .cuts
                .get(self.cut_idx)
                .copied()
                .unwrap_or(usize::MAX)
                .max(1)
                .min(out.len())
                .min(self.data.len() - self.pos);
            self.cut_idx += 1;
            out[..step].copy_from_slice(&self.data[self.pos..self.pos + step]);
            self.pos += step;
            Ok(step)
        }
    }

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            put_record(&mut out, p);
        }
        out
    }

    #[test]
    fn byte_at_a_time_reassembles_frames() {
        let wire = framed(&[b"hello", b"", b"world!"]);
        let mut r = FrameReader::new(Dribble::new(wire, vec![1; 10_000]));
        let mut got = Vec::new();
        loop {
            match r.poll().expect("clean stream") {
                FrameEvent::Frame(raw) => got.push(raw[FRAME_HEADER_BYTES..].to_vec()),
                FrameEvent::Eof => break,
                FrameEvent::Pause => unreachable!("Dribble never pauses"),
            }
        }
        assert_eq!(
            got,
            vec![b"hello".to_vec(), b"".to_vec(), b"world!".to_vec()]
        );
    }

    #[test]
    fn eof_inside_a_frame_is_a_typed_decode_error() {
        let mut wire = framed(&[b"payload"]);
        wire.truncate(wire.len() - 2);
        let mut r = FrameReader::new(Dribble::new(wire, vec![3; 100]));
        match r.poll() {
            Err(FrameReadError::Decode(e)) => {
                assert!(e.reason.contains("torn"), "got {e}");
            }
            other => panic!("expected torn-frame error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_checksum_is_a_typed_decode_error() {
        let mut wire = framed(&[b"payload-a", b"payload-b"]);
        let last = wire.len() - 1;
        wire[last] ^= 0xff; // flip inside the second payload
        let mut r = FrameReader::new(Dribble::new(wire, vec![5; 100]));
        assert!(
            matches!(r.poll(), Ok(FrameEvent::Frame(_))),
            "first frame fine"
        );
        assert!(
            matches!(r.poll(), Err(FrameReadError::Decode(_))),
            "second frame poisoned"
        );
    }

    #[test]
    fn implausible_length_rejected_before_allocation() {
        let mut wire = vec![0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0];
        wire.extend_from_slice(&[0u8; 16]);
        let mut r = FrameReader::new(Dribble::new(wire, vec![4; 100]));
        match r.poll() {
            Err(FrameReadError::Decode(e)) => assert!(e.reason.contains("implausible")),
            other => panic!("expected length error, got {other:?}"),
        }
    }
}
