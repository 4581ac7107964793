//! The batching client and its transport abstraction.
//!
//! A [`Client`] accumulates typed [`Request`]s, ships them through a
//! [`Transport`] as one checksummed wire batch, and returns the decoded
//! [`Response`]s in request order. The transport is pluggable:
//!
//! * the in-process transport (`impl Transport for MetadataServer`)
//!   round-trips the real wire encoding through a byte buffer — the
//!   bytes are the same bytes a socket would carry, so torn or corrupt
//!   batches surface exactly as they would in production;
//! * `smartstore-net`'s `SocketTransport` carries the identical bytes
//!   over a real TCP or Unix-domain-socket connection.
//!
//! [`Client::call_with_retry`] is the reliability layer on top: it
//! distinguishes *retryable transport* failures (connection reset, send
//! failure — reconnect and back off) from *retryable typed server*
//! answers ([`Response::Unavailable`] backs off exponentially;
//! [`Response::Overloaded`] backs off with jitter so shed request herds
//! do not re-arrive in lockstep) and from *non-retryable* outcomes
//! (typed [`Response::Error`]s and wire decode errors, which a retry
//! cannot fix). Each class has its own [`ClientStats`] counter.

use crate::codec::{decode_response_batch, encode_request_batch, encode_response_batch, WireError};
use crate::protocol::{Request, Response};
use crate::server::MetadataServer;

/// Why a transport could not complete an exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// I/O failure on the wire (connection refused/reset, send or
    /// receive error, timeout). Retryable: reconnect and back off.
    Io {
        /// Human-readable failure description.
        reason: String,
    },
    /// The peer closed the connection mid-exchange. Retryable after a
    /// reconnect.
    Closed,
    /// Torn, corrupt, or structurally invalid bytes — the connection's
    /// framing is poisoned and a retry would resend/re-decode the same
    /// garbage. Not retryable.
    Wire(WireError),
    /// The peer violated the request/response protocol (wrong response
    /// count for a batch, say). Not retryable.
    Protocol(String),
}

impl TransportError {
    /// True when a reconnect + backoff retry may succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, TransportError::Io { .. } | TransportError::Closed)
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io { reason } => write!(f, "transport I/O error: {reason}"),
            TransportError::Closed => write!(f, "connection closed by peer"),
            TransportError::Wire(e) => write!(f, "wire error: {e}"),
            TransportError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// Transport result alias.
pub type TransportResult<T> = std::result::Result<T, TransportError>;

/// Something that can carry a request batch to a metadata service and
/// bring the response batch back.
///
/// The unit of exchange is raw wire bytes (the CRC-framed batch
/// encodings of [`crate::codec`]), not typed messages — so every
/// transport carries bit-identical bytes and the client's decode path
/// is the same for an in-process buffer and a socket.
pub trait Transport {
    /// Ships `request_wire` (a framed request batch) and returns the
    /// framed response batch, which must contain exactly `expected`
    /// responses.
    fn exchange(&mut self, request_wire: &[u8], expected: usize) -> TransportResult<Vec<u8>>;

    /// Re-establishes the underlying connection after a retryable
    /// failure. In-process transports have nothing to re-establish.
    fn reconnect(&mut self) -> TransportResult<()> {
        Ok(())
    }

    /// True when the transport crosses a real wire — retry backoff then
    /// actually sleeps instead of only accounting simulated time.
    fn is_remote(&self) -> bool {
        false
    }
}

/// The in-process transport: decode the batch, serve each request on
/// this server, encode the replies. Wire errors surface as
/// [`TransportError::Wire`], exactly like a socket peer rejecting the
/// bytes.
impl Transport for MetadataServer {
    fn exchange(&mut self, request_wire: &[u8], expected: usize) -> TransportResult<Vec<u8>> {
        let reqs = crate::codec::decode_request_batch(request_wire)?;
        if reqs.len() != expected {
            return Err(TransportError::Protocol(format!(
                "request batch decoded to {} requests, expected {expected}",
                reqs.len()
            )));
        }
        let responses: Vec<Response> = reqs.iter().map(|r| self.handle(r)).collect();
        Ok(encode_response_batch(&responses))
    }
}

/// Client-side accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests flushed.
    pub requests: u64,
    /// Batches (flushes) sent.
    pub batches: u64,
    /// Request bytes put on the wire.
    pub bytes_sent: u64,
    /// Response bytes received.
    pub bytes_received: u64,
    /// Total retries taken by [`Client::call_with_retry`], every class.
    pub retries: u64,
    /// Retries after retryable *transport* errors (reconnect + backoff).
    pub transport_retries: u64,
    /// Retries after typed [`Response::Overloaded`] sheds (jittered
    /// backoff).
    pub overload_retries: u64,
    /// Reconnect attempts made after transport failures.
    pub reconnects: u64,
    /// Simulated exponential-backoff time accumulated across retries
    /// (on a remote transport this much was actually slept, capped per
    /// step at [`RetryPolicy::max_sleep_ns`]).
    pub backoff_ns: u64,
}

/// Bounded retry-with-backoff for transient failures: retryable
/// transport errors, [`Response::Unavailable`], and
/// [`Response::Overloaded`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first one included (so `1` disables
    /// retries; `0` is treated as `1`).
    pub max_attempts: u32,
    /// Backoff before retry `n` (1-based) is
    /// `base_backoff_ns << (n - 1)`, jittered for overload sheds.
    pub base_backoff_ns: u64,
    /// Real-sleep cap per retry step on remote transports (simulated
    /// accounting is uncapped).
    pub max_sleep_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_ns: 1_000_000, // 1 ms, doubling
            max_sleep_ns: 50_000_000,   // never sleep more than 50 ms per step
        }
    }
}

/// A batching metadata-service client.
#[derive(Clone, Debug)]
pub struct Client {
    pending: Vec<Request>,
    stats: ClientStats,
    /// Deterministic jitter state (xorshift64*), so retry schedules are
    /// reproducible under a fixed seed.
    jitter_state: u64,
}

impl Default for Client {
    fn default() -> Self {
        Self::new()
    }
}

impl Client {
    /// A client with an empty batch and the default jitter seed.
    pub fn new() -> Self {
        Self::with_seed(0x9e37_79b9_7f4a_7c15)
    }

    /// A client whose retry jitter derives deterministically from
    /// `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            pending: Vec::new(),
            stats: ClientStats::default(),
            jitter_state: seed | 1,
        }
    }

    /// Queues a request for the next flush.
    pub fn enqueue(&mut self, req: Request) -> &mut Self {
        self.pending.push(req);
        self
    }

    /// Requests waiting in the current batch.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Accounting so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Ships the batch through `transport`: encode → wire → decode.
    /// Responses come back in request order; the batch is cleared only
    /// on success, so a transport error leaves it intact for retry.
    pub fn flush<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
    ) -> TransportResult<Vec<Response>> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        let wire = encode_request_batch(&self.pending);
        let reply_wire = transport.exchange(&wire, self.pending.len())?;
        let out = decode_response_batch(&reply_wire)?;
        if out.len() != self.pending.len() {
            return Err(TransportError::Protocol(format!(
                "{} responses for {} requests",
                out.len(),
                self.pending.len()
            )));
        }
        self.stats.requests += self.pending.len() as u64;
        self.stats.batches += 1;
        self.stats.bytes_sent += wire.len() as u64;
        self.stats.bytes_received += reply_wire.len() as u64;
        self.pending.clear();
        Ok(out)
    }

    /// Convenience: ship one request alone (existing batch contents are
    /// flushed with it, in order; the reply to `req` is returned).
    pub fn call<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
        req: Request,
    ) -> TransportResult<Response> {
        self.enqueue(req);
        let mut out = self.flush(transport)?;
        out.pop()
            .ok_or_else(|| TransportError::Protocol("flush returned no response".to_string()))
    }

    /// [`Self::call`] with bounded retry-with-backoff, classifying
    /// failures:
    ///
    /// * **retryable transport errors** ([`TransportError::Io`],
    ///   [`TransportError::Closed`]) — reconnect, back off, resend the
    ///   *same* batch (it survives a failed flush);
    /// * **[`Response::Overloaded`]** — the server load-shed; back off
    ///   with deterministic jitter (so a shed herd spreads out) and
    ///   retry;
    /// * **[`Response::Unavailable`]** — transient fleet state; back
    ///   off exponentially and retry;
    /// * **everything else** — typed [`Response::Error`]s, wire decode
    ///   errors, protocol violations — returns immediately: a retry
    ///   cannot fix them.
    ///
    /// On a remote transport the backoff actually sleeps (capped at
    /// [`RetryPolicy::max_sleep_ns`] per step); in-process it is pure
    /// accounting. The last response (or non-retryable error) is
    /// returned either way.
    pub fn call_with_retry<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
        req: Request,
        policy: RetryPolicy,
    ) -> TransportResult<Response> {
        let attempts = policy.max_attempts.max(1);
        self.enqueue(req.clone());
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.flush(transport) {
                Ok(mut out) => {
                    let Some(resp) = out.pop() else {
                        return Err(TransportError::Protocol(
                            "flush returned no response".to_string(),
                        ));
                    };
                    if attempt >= attempts || !resp.is_retryable() {
                        return Ok(resp);
                    }
                    let jitter = matches!(resp, Response::Overloaded(_));
                    if jitter {
                        self.stats.overload_retries += 1;
                    }
                    self.stats.retries += 1;
                    self.backoff(transport, &policy, attempt, jitter);
                    // The successful flush cleared the batch; requeue
                    // only the request being retried.
                    self.enqueue(req.clone());
                }
                Err(e) if e.is_retryable() && attempt < attempts => {
                    self.stats.retries += 1;
                    self.stats.transport_retries += 1;
                    self.stats.reconnects += 1;
                    // Best effort: a failed reconnect surfaces on the
                    // next exchange as another retryable error.
                    let _ = transport.reconnect();
                    self.backoff(transport, &policy, attempt, false);
                    // The failed flush kept the batch; nothing to
                    // re-enqueue.
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Accounts (and on remote transports, sleeps) one backoff step.
    fn backoff<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        policy: &RetryPolicy,
        attempt: u32,
        jitter: bool,
    ) {
        let base = policy.base_backoff_ns.saturating_shl(attempt - 1);
        let ns = if jitter {
            // Deterministic xorshift64* jitter in [0.5, 1.5).
            let mut x = self.jitter_state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.jitter_state = x;
            let r = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
            ((base as f64) * (0.5 + r)) as u64
        } else {
            base
        };
        self.stats.backoff_ns += ns;
        if transport.is_remote() {
            std::thread::sleep(std::time::Duration::from_nanos(ns.min(policy.max_sleep_ns)));
        }
    }
}

/// `u64::checked_shl` that saturates instead of wrapping for large
/// retry counts.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> Self {
        if shift >= 63 {
            u64::MAX
        } else {
            self.checked_shl(shift).unwrap_or(u64::MAX)
        }
    }
}
