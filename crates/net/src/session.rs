//! One connection's serving state, without its socket.
//!
//! A [`Session`] is fed the bytes a connection delivered. Each round,
//! [`Session::serve`] answers what is buffered: up to `max_pipeline`
//! verified frames, each admitted against the shared [`PermitPool`]
//! and the connection's own cap or shed with a typed
//! [`Response::Overloaded`], evaluated in arrival order, their response
//! frames appended to one output buffer. It owns no socket, spawns no
//! thread and reads no clock: the driver ([`crate::server`]) reads,
//! writes the output and calls [`Session::release`], and a test drives
//! the same state machine with scripted bytes and a fixed budget.
//!
//! Two decisions live here:
//!
//! * **Admission.** A round's frames are admitted up front — the batch
//!   *is* the connection's in-flight window — and their permits stay
//!   held until [`Session::release`], which the driver calls once the
//!   round's bytes are written. A frame that finds no permit is
//!   answered in the same round with `Overloaded`; no request waits
//!   for a permit.
//! * **Poisoning.** A torn or corrupt frame, or a stream that ends
//!   inside a frame, loses the stream's framing: the round answers the
//!   good prefix, appends a typed `connection poisoned: …` error and
//!   says the connection must close.

use crate::frame::FrameBuf;
use smartstore_service::codec::{decode_request, encode_response};
use smartstore_service::{Request, Response};
use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};

/// The global in-flight budget every session of a server draws on.
#[derive(Debug)]
pub struct PermitPool {
    /// The configured budget, as the `Overloaded` text reports it.
    budget: usize,
    remaining: AtomicI64,
}

impl PermitPool {
    /// A pool of `max_inflight` permits (at least one).
    pub fn new(max_inflight: usize) -> Self {
        Self {
            budget: max_inflight,
            remaining: AtomicI64::new(max_inflight.max(1) as i64),
        }
    }

    /// Permits not held by any session.
    pub fn available(&self) -> i64 {
        self.remaining.load(Ordering::Relaxed)
    }

    fn try_acquire(&self) -> bool {
        let mut cur = self.remaining.load(Ordering::Relaxed);
        loop {
            if cur <= 0 {
                return false;
            }
            match self.remaining.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// What one [`Session::serve`] round did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Round {
    /// Requests admitted and evaluated.
    pub admitted: u64,
    /// Requests shed with [`Response::Overloaded`].
    pub shed: u64,
    /// Verified request bytes taken off the input.
    pub bytes_in: u64,
    /// The stream's framing broke; a typed error ends the output.
    pub poisoned: bool,
    /// Close the connection once the output is written: it was
    /// poisoned, or the peer's stream ended.
    pub close: bool,
}

/// One connection's protocol state: its input buffer, the permits its
/// last round holds, and whether its stream has ended.
pub struct Session<'a> {
    pool: &'a PermitPool,
    per_conn: usize,
    max_pipeline: usize,
    input: FrameBuf,
    /// This round's frames and whether each was admitted; reused.
    batch: Vec<(Range<usize>, bool)>,
    held: usize,
    eof: bool,
    closed: bool,
}

impl<'a> Session<'a> {
    /// A session drawing on `pool`, holding at most
    /// `max_inflight_per_conn` permits and serving at most
    /// `max_pipeline` frames a round (each at least one).
    pub fn new(pool: &'a PermitPool, max_inflight_per_conn: usize, max_pipeline: usize) -> Self {
        Self {
            pool,
            per_conn: max_inflight_per_conn.max(1),
            max_pipeline: max_pipeline.max(1),
            input: FrameBuf::default(),
            batch: Vec::new(),
            held: 0,
            eof: false,
            closed: false,
        }
    }

    /// Appends bytes the connection delivered. Ignored once a round has
    /// closed the session.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.closed {
            self.input.extend(bytes);
        }
    }

    /// The peer's stream ended: the next round answers what is buffered
    /// and closes, with a torn-frame error if a frame was cut short.
    pub fn feed_eof(&mut self) {
        self.eof = true;
    }

    /// Answers up to `max_pipeline` buffered frames, appending one
    /// response frame per request to `out` in arrival order. `None`
    /// means nothing is buffered: read more. After a round that says
    /// `close`, the session serves nothing more.
    pub fn serve(
        &mut self,
        mut eval: impl FnMut(Request) -> Response,
        out: &mut Vec<u8>,
    ) -> Option<Round> {
        if self.closed {
            return None;
        }
        let mut round = Round::default();
        let mut broken = None;
        self.batch.clear();
        while self.batch.len() < self.max_pipeline {
            match self.input.next_frame() {
                Ok(Some(frame)) => {
                    let admit = self.held < self.per_conn && self.pool.try_acquire();
                    self.held += usize::from(admit);
                    self.batch.push((frame, admit));
                }
                Ok(None) => {
                    if self.eof {
                        broken = self.input.end_of_stream();
                        round.close = true;
                    }
                    break;
                }
                Err(e) => {
                    broken = Some(e);
                    break;
                }
            }
        }
        if self.batch.is_empty() && !round.close && broken.is_none() {
            return None;
        }
        for (frame, admitted) in &self.batch {
            let raw = self.input.frame(frame.clone());
            round.bytes_in += raw.len() as u64;
            let resp = if *admitted {
                round.admitted += 1;
                match decode_request(raw) {
                    // The frame's CRC already passed, so a payload-level
                    // failure is a protocol mismatch, not lost framing:
                    // answer typed, keep the connection.
                    Err(e) => Response::Error(format!("undecodable request payload: {e}")),
                    Ok(req) => eval(req),
                }
            } else {
                round.shed += 1;
                Response::Overloaded(format!(
                    "admission budget exhausted (global {} / per-connection {})",
                    self.pool.budget, self.per_conn
                ))
            };
            out.extend_from_slice(&encode_response(&resp));
        }
        if let Some(e) = broken {
            let resp = Response::Error(format!("connection poisoned: {e}"));
            out.extend_from_slice(&encode_response(&resp));
            round.poisoned = true;
            round.close = true;
        }
        self.closed = round.close;
        Some(round)
    }

    /// Returns the permits the last rounds admitted with; the driver
    /// calls it once their response bytes are written.
    pub fn release(&mut self) {
        let held = std::mem::take(&mut self.held);
        self.pool.remaining.fetch_add(held as i64, Ordering::AcqRel);
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.release();
    }
}
