//! Wire encoding of [`Request`]/[`Response`] on the `smartstore-persist`
//! codec.
//!
//! Messages reuse the persistence layer's primitive encoder/decoder and
//! its checksummed record framing (`[len][crc32][payload]`), so a
//! request or response can cross a network, be appended to a
//! log, or be replayed — with the same torn/corrupt detection the WAL
//! has. A *batch* is simply a sequence of framed records in one buffer;
//! [`decode_request_batch`] stops at the first clean EOF and surfaces a
//! torn record as a [`WireError`].

use crate::protocol::{
    AppliedReply, DegradedReply, QueryReply, Request, Response, StatsReply, TopKReply,
};
use smartstore::query::QueryOptions;
use smartstore::routing::RouteMode;
use smartstore::system::SystemStats;
use smartstore_persist::codec::{
    get_change, get_record, put_change, put_record, Dec, DecResult, DecodeError, Enc, FrameError,
};

/// Why a wire buffer could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Structural decode failure inside a record payload.
    Decode {
        /// Byte offset within the payload.
        offset: usize,
        /// Reason.
        reason: String,
    },
    /// Torn or corrupt record framing.
    Frame {
        /// Offset of the bad record's first byte.
        offset: usize,
        /// Reason.
        reason: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Decode { offset, reason } => {
                write!(f, "wire decode error at payload offset {offset}: {reason}")
            }
            WireError::Frame { offset, reason } => {
                write!(f, "wire frame error at offset {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode {
            offset: e.offset,
            reason: e.reason,
        }
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Eof => WireError::Frame {
                offset: 0,
                reason: "unexpected end of buffer".into(),
            },
            FrameError::Torn { offset, reason } => WireError::Frame { offset, reason },
        }
    }
}

/// Wire decode result.
pub type WireResult<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------
// Leaf encoders
// ---------------------------------------------------------------------

const MODE_ONLINE: u8 = 0;
const MODE_OFFLINE: u8 = 1;

fn put_mode(e: &mut Enc, m: RouteMode) {
    e.u8(match m {
        RouteMode::Online => MODE_ONLINE,
        RouteMode::Offline => MODE_OFFLINE,
    });
}

fn get_mode(d: &mut Dec) -> DecResult<RouteMode> {
    let at = d.pos();
    match d.u8()? {
        MODE_ONLINE => Ok(RouteMode::Online),
        MODE_OFFLINE => Ok(RouteMode::Offline),
        t => Err(DecodeError::new_at(at, format!("unknown route mode {t}"))),
    }
}

fn put_opts(e: &mut Enc, o: &QueryOptions) {
    put_mode(e, o.mode);
    e.usize(o.k);
}

fn get_opts(d: &mut Dec) -> DecResult<QueryOptions> {
    Ok(QueryOptions {
        mode: get_mode(d)?,
        k: d.usize()?,
    })
}

fn put_system_stats(e: &mut Enc, s: &SystemStats) {
    e.usize(s.n_units);
    e.usize(s.n_groups);
    e.usize(s.tree_height);
    e.usize(s.tree_index_bytes);
    e.usize(s.per_unit_index_bytes);
    e.usize(s.version_bytes);
}

fn get_system_stats(d: &mut Dec) -> DecResult<SystemStats> {
    Ok(SystemStats {
        n_units: d.usize()?,
        n_groups: d.usize()?,
        tree_height: d.usize()?,
        tree_index_bytes: d.usize()?,
        per_unit_index_bytes: d.usize()?,
        version_bytes: d.usize()?,
    })
}

fn put_ids(e: &mut Enc, ids: &[u64]) {
    e.u32(ids.len() as u32);
    for &id in ids {
        e.u64(id);
    }
}

fn get_ids(d: &mut Dec) -> DecResult<Vec<u64>> {
    let n = d.u32()? as usize;
    (0..n).map(|_| d.u64()).collect()
}

fn put_opt_usize(e: &mut Enc, v: Option<usize>) {
    match v {
        Some(x) => {
            e.bool(true);
            e.usize(x);
        }
        None => e.bool(false),
    }
}

fn get_opt_usize(d: &mut Dec) -> DecResult<Option<usize>> {
    Ok(if d.bool()? { Some(d.usize()?) } else { None })
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

const REQ_POINT: u8 = 0;
const REQ_RANGE: u8 = 1;
const REQ_TOPK: u8 = 2;
const REQ_APPLY: u8 = 3;
const REQ_STATS: u8 = 4;

/// Encodes one request payload (unframed).
pub fn put_request(e: &mut Enc, r: &Request) {
    match r {
        Request::Point { name } => {
            e.u8(REQ_POINT);
            e.str(name);
        }
        Request::Range { lo, hi, opts } => {
            e.u8(REQ_RANGE);
            e.f64s(lo);
            e.f64s(hi);
            put_opts(e, opts);
        }
        Request::TopK { point, opts } => {
            e.u8(REQ_TOPK);
            e.f64s(point);
            put_opts(e, opts);
        }
        Request::ApplyChange { change } => {
            e.u8(REQ_APPLY);
            put_change(e, change);
        }
        Request::Stats => e.u8(REQ_STATS),
    }
}

/// Decodes one request payload (unframed).
pub fn get_request(d: &mut Dec) -> DecResult<Request> {
    let at = d.pos();
    match d.u8()? {
        REQ_POINT => Ok(Request::Point { name: d.str()? }),
        REQ_RANGE => Ok(Request::Range {
            lo: d.f64s()?,
            hi: d.f64s()?,
            opts: get_opts(d)?,
        }),
        REQ_TOPK => Ok(Request::TopK {
            point: d.f64s()?,
            opts: get_opts(d)?,
        }),
        REQ_APPLY => Ok(Request::ApplyChange {
            change: get_change(d)?,
        }),
        REQ_STATS => Ok(Request::Stats),
        t => Err(DecodeError::new_at(at, format!("unknown request tag {t}"))),
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

const RESP_QUERY: u8 = 0;
const RESP_TOPK: u8 = 1;
const RESP_APPLIED: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_ERROR: u8 = 4;
const RESP_DEGRADED: u8 = 5;
const RESP_UNAVAILABLE: u8 = 6;
const RESP_OVERLOADED: u8 = 7;

/// Encodes one response payload (unframed).
pub fn put_response(e: &mut Enc, r: &Response) {
    match r {
        Response::Degraded(d) => {
            e.u8(RESP_DEGRADED);
            e.u32(d.missing_shards.len() as u32);
            for &s in &d.missing_shards {
                e.usize(s);
            }
            put_response(e, &d.partial);
        }
        Response::Unavailable(msg) => {
            e.u8(RESP_UNAVAILABLE);
            e.str(msg);
        }
        Response::Overloaded(msg) => {
            e.u8(RESP_OVERLOADED);
            e.str(msg);
        }
        Response::Query(q) => {
            e.u8(RESP_QUERY);
            put_ids(e, &q.file_ids);
        }
        Response::TopK(t) => {
            e.u8(RESP_TOPK);
            e.u32(t.hits.len() as u32);
            for &(id, dist) in &t.hits {
                e.u64(id);
                e.f64(dist);
            }
        }
        Response::Applied(a) => {
            e.u8(RESP_APPLIED);
            put_opt_usize(e, a.shard);
            put_opt_usize(e, a.group);
        }
        Response::Stats(s) => {
            e.u8(RESP_STATS);
            e.u32(s.per_shard.len() as u32);
            for st in &s.per_shard {
                put_system_stats(e, st);
            }
        }
        Response::Error(msg) => {
            e.u8(RESP_ERROR);
            e.str(msg);
        }
    }
}

/// Decodes one response payload (unframed).
pub fn get_response(d: &mut Dec) -> DecResult<Response> {
    get_response_at_depth(d, 0)
}

/// The server never nests degraded markers, so the decoder rejects a
/// degraded payload inside another — without the bound, a crafted
/// buffer of repeated tags would recurse once per byte and overflow
/// the stack before any structural check fails.
fn get_response_at_depth(d: &mut Dec, depth: usize) -> DecResult<Response> {
    let at = d.pos();
    match d.u8()? {
        RESP_DEGRADED => {
            if depth > 0 {
                return Err(DecodeError::new_at(
                    at,
                    "nested degraded response".to_string(),
                ));
            }
            let n = d.u32()? as usize;
            let mut missing_shards = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                missing_shards.push(d.usize()?);
            }
            let partial = Box::new(get_response_at_depth(d, depth + 1)?);
            Ok(Response::Degraded(DegradedReply {
                partial,
                missing_shards,
            }))
        }
        RESP_UNAVAILABLE => Ok(Response::Unavailable(d.str()?)),
        RESP_OVERLOADED => Ok(Response::Overloaded(d.str()?)),
        RESP_QUERY => Ok(Response::Query(QueryReply {
            file_ids: get_ids(d)?,
        })),
        RESP_TOPK => {
            let n = d.u32()? as usize;
            let mut hits = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let id = d.u64()?;
                let dist = d.f64()?;
                hits.push((id, dist));
            }
            Ok(Response::TopK(TopKReply { hits }))
        }
        RESP_APPLIED => Ok(Response::Applied(AppliedReply {
            shard: get_opt_usize(d)?,
            group: get_opt_usize(d)?,
        })),
        RESP_STATS => {
            let n = d.u32()? as usize;
            let mut per_shard = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                per_shard.push(get_system_stats(d)?);
            }
            Ok(Response::Stats(StatsReply { per_shard }))
        }
        RESP_ERROR => Ok(Response::Error(d.str()?)),
        t => Err(DecodeError::new_at(at, format!("unknown response tag {t}"))),
    }
}

// ---------------------------------------------------------------------
// Framed messages and batches
// ---------------------------------------------------------------------

fn frame(payload_of: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    payload_of(&mut e);
    let payload = e.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_record(&mut out, &payload);
    out
}

fn unframe_one<T>(buf: &[u8], get: impl FnOnce(&mut Dec) -> DecResult<T>) -> WireResult<T> {
    let (payload, next) = get_record(buf, 0)?;
    if next != buf.len() {
        return Err(WireError::Frame {
            offset: next,
            reason: format!("{} trailing bytes after message", buf.len() - next),
        });
    }
    let mut d = Dec::new(payload);
    let v = get(&mut d)?;
    d.finish()?;
    Ok(v)
}

/// Encodes one request as a checksummed framed message.
pub fn encode_request(r: &Request) -> Vec<u8> {
    frame(|e| put_request(e, r))
}

/// Decodes one framed request message.
pub fn decode_request(buf: &[u8]) -> WireResult<Request> {
    unframe_one(buf, get_request)
}

/// Encodes one response as a checksummed framed message.
pub fn encode_response(r: &Response) -> Vec<u8> {
    frame(|e| put_response(e, r))
}

/// Decodes one framed response message.
pub fn decode_response(buf: &[u8]) -> WireResult<Response> {
    unframe_one(buf, get_response)
}

/// Encodes a batch of requests as consecutive framed records — the
/// client→server wire format.
pub fn encode_request_batch(reqs: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reqs {
        let mut e = Enc::new();
        put_request(&mut e, r);
        put_record(&mut out, &e.into_bytes());
    }
    out
}

/// Decodes a request batch; a torn record is an error, a clean EOF ends
/// the batch.
pub fn decode_request_batch(buf: &[u8]) -> WireResult<Vec<Request>> {
    decode_batch(buf, get_request)
}

/// Encodes a batch of responses — the server→client wire format.
pub fn encode_response_batch(resps: &[Response]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in resps {
        let mut e = Enc::new();
        put_response(&mut e, r);
        put_record(&mut out, &e.into_bytes());
    }
    out
}

/// Decodes a response batch.
pub fn decode_response_batch(buf: &[u8]) -> WireResult<Vec<Response>> {
    decode_batch(buf, get_response)
}

fn decode_batch<T>(buf: &[u8], get: impl Fn(&mut Dec) -> DecResult<T>) -> WireResult<Vec<T>> {
    let mut out = Vec::new();
    let mut pos = 0;
    loop {
        match get_record(buf, pos) {
            Ok((payload, next)) => {
                let mut d = Dec::new(payload);
                out.push(get(&mut d)?);
                d.finish()?;
                pos = next;
            }
            Err(FrameError::Eof) => return Ok(out),
            Err(e @ FrameError::Torn { .. }) => return Err(e.into()),
        }
    }
}
