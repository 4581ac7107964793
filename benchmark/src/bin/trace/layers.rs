//! One request replayed at nested depths, each depth a call into one
//! layer's public functions:
//!
//! ```text
//! socket exchange                          (fleet A, measured by the caller)
//! └ Transport::exchange on a twin server   (in process: decode, serve, encode)
//!   ├ FrameReader::poll, encode_/decode_request, encode_/decode_response
//!   └ serve_read                           reads
//!     ├ query_shard × shards
//!     │ └ shard(i).query().{point,range,topk_scored}
//!     │   ├ tree().route_{point,range,topk}, bloom().contains
//!     │   └ units()[u].{point,range,topk}_query
//!     └ merge_responses
//!   └ group_of_change, PersistentStore::append, apply_change,
//!     should_compact → compact_incremental  mutations, on a shadow pair
//! ```
//!
//! The twin and the shadows hold the same state as the served fleet
//! (same build, same mutations in the same order), so the same request
//! does the same work at every depth. What differs is cache warmth: an
//! inner replay finds the data the outer one just touched, so cache
//! misses show up in the outer layers' self time.

use crate::spans::Tracer;
use smartstore::versioning::Change;
use smartstore::SmartStoreSystem;
use smartstore_net::{FrameEvent, FrameReader};
use smartstore_persist::{CompactionOutcome, PersistentStore};
use smartstore_service::codec::{decode_request, decode_response, encode_request, encode_response};
use smartstore_service::{merge_responses, MetadataServer, Request, Response, Transport};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hint::black_box;
use std::rc::Rc;

/// Sums over the traced requests; every per-layer metric is one of
/// these divided by `requests` (or a ratio of two of them).
#[derive(Debug, Default)]
pub struct Sums {
    pub requests: u64,
    pub socket_ns: u64,
    pub inproc_ns: u64,
    pub frame_decode_ns: u64,
    pub codec_request_ns: u64,
    pub codec_response_ns: u64,
    pub response_bytes: u64,
    pub serve_read_ns: u64,
    pub query_shard_ns: u64,
    pub merge_ns: u64,
    pub engine_ns: u64,
    pub route_ns: u64,
    pub nodes_visited: u64,
    pub filters_probed: u64,
    pub target_units: u64,
    pub bloom_probe_ns: u64,
    pub bloom_probes: u64,
    pub false_positive_units: u64,
    pub unit_scan_ns: u64,
    pub records_examined: u64,
    pub results: u64,
    /// In-process exchange of mutations minus their codec time.
    pub apply_path_ns: u64,
    pub place_ns: u64,
    pub apply_ns: u64,
    pub wal_append_ns: u64,
    pub wal_bytes: u64,
    pub wal_changes: u64,
    pub compactions: u64,
    pub compact_delta_ns: u64,
    pub compact_full_ns: u64,
    pub compact_bytes: u64,
}

/// One shard's system and store outside any server, so that the pieces
/// of the write path can be called one by one.
pub struct Shadow {
    pub sys: SmartStoreSystem,
    pub store: PersistentStore,
}

/// The byte source behind the long-lived [`FrameReader`] of a
/// [`WireProbe`]: whatever was fed and not yet read, then `WouldBlock`,
/// as a socket with nothing pending.
struct Fed(Rc<RefCell<VecDeque<u8>>>);

impl std::io::Read for Fed {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut pending = self.0.borrow_mut();
        if pending.is_empty() {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        pending.read(buf)
    }
}

/// One `FrameReader` kept for the whole run, as a connection keeps
/// one, so that a poll costs what it costs a connection handler (the
/// reader's buffers are allocated once).
struct WireProbe {
    pending: Rc<RefCell<VecDeque<u8>>>,
    reader: FrameReader<Fed>,
}

impl WireProbe {
    fn new() -> Self {
        let pending = Rc::new(RefCell::new(VecDeque::new()));
        Self {
            reader: FrameReader::new(Fed(Rc::clone(&pending))),
            pending,
        }
    }

    /// Feeds one whole frame and polls it back out.
    fn poll_frame(&mut self, bytes: &[u8]) -> Result<usize, String> {
        self.pending.borrow_mut().extend(bytes);
        match self.reader.poll() {
            Ok(FrameEvent::Frame(raw)) => Ok(raw.len()),
            Ok(other) => Err(format!("frame reader gave {other:?} for a whole frame")),
            Err(e) => Err(format!("frame reader: {e}")),
        }
    }
}

/// Frame and codec layers for one request/reply pair. Returns the
/// decoded pair and the codec time that lies on the serving path (the
/// server decodes the request and encodes the reply once each).
fn replay_wire(
    tr: &mut Tracer,
    sums: &mut Sums,
    wire: &mut WireProbe,
    rid: u32,
    parent: u32,
    frame: &[u8],
    reply: &[u8],
) -> Result<(Request, Response, u64), String> {
    let (polled, _, ns) = tr.time("net.frame.decode", rid, parent, || {
        wire.poll_frame(frame)
            .and_then(|a| wire.poll_frame(reply).map(|b| a + b))
    });
    polled?;
    sums.frame_decode_ns += ns;

    let (req, _, dec_req_ns) = tr.time("service.codec.decode_request", rid, parent, || {
        decode_request(frame)
    });
    let req = req.map_err(|e| format!("own frame: {e}"))?;
    let (_, _, enc_req_ns) = tr.time("service.codec.encode_request", rid, parent, || {
        black_box(encode_request(black_box(&req)))
    });
    sums.codec_request_ns += dec_req_ns + enc_req_ns;

    let (resp, _, dec_resp_ns) = tr.time("service.codec.decode_response", rid, parent, || {
        decode_response(reply)
    });
    let resp = resp.map_err(|e| format!("twin reply: {e}"))?;
    let (_, _, enc_resp_ns) = tr.time("service.codec.encode_response", rid, parent, || {
        black_box(encode_response(black_box(&resp)))
    });
    sums.codec_response_ns += dec_resp_ns + enc_resp_ns;
    sums.response_bytes += reply.len() as u64;
    Ok((req, resp, dec_req_ns + enc_resp_ns))
}

/// The in-process twin of the served fleet with, for mutations, one
/// shadow pair per shard and the frame reader the wire layer is timed
/// on. Holds the same state as the fleet as long as it is given the
/// same mutations in the same order.
pub struct Replica {
    pub twin: MetadataServer,
    pub shadows: Vec<Shadow>,
    wire: WireProbe,
}

impl Replica {
    pub fn new(twin: MetadataServer, shadows: Vec<Shadow>) -> Self {
        Self {
            twin,
            shadows,
            wire: WireProbe::new(),
        }
    }

    /// Replays one read at every depth below the socket.
    pub fn replay_read(
        &mut self,
        tr: &mut Tracer,
        sums: &mut Sums,
        rid: u32,
        parent: u32,
        frame: &[u8],
    ) -> Result<(), String> {
        let (reply, d1, ns) = tr.time("service.exchange", rid, parent, || {
            self.twin.exchange(frame, 1)
        });
        let reply = reply.map_err(|e| format!("twin exchange: {e}"))?;
        sums.inproc_ns += ns;
        let (req, _, _) = replay_wire(tr, sums, &mut self.wire, rid, d1, frame, &reply)?;

        let twin = &self.twin;
        let (_, d2, ns) = tr.time("service.serve_read", rid, d1, || {
            black_box(twin.serve_read(&req))
        });
        sums.serve_read_ns += ns;

        let mut replies = Vec::new();
        for s in twin.healthy_shards() {
            let (r, d3, ns) = tr.time("service.query_shard", rid, d2, || twin.query_shard(s, &req));
            sums.query_shard_ns += ns;
            replies.push(r);
            replay_engine(tr, sums, twin.shard(s), rid, d3, &req);
        }
        let (_, _, ns) = tr.time("service.merge", rid, d2, || {
            black_box(merge_responses(&req, replies))
        });
        sums.merge_ns += ns;
        Ok(())
    }

    /// Replays one mutation on the twin (in-process wire) and, piece by
    /// piece, on the shadow pair of the shard it landed in.
    pub fn replay_write(
        &mut self,
        tr: &mut Tracer,
        sums: &mut Sums,
        rid: u32,
        parent: u32,
        frame: &[u8],
    ) -> Result<(), String> {
        let (reply, d1, ns) = tr.time("service.exchange", rid, parent, || {
            self.twin.exchange(frame, 1)
        });
        let reply = reply.map_err(|e| format!("twin exchange: {e}"))?;
        sums.inproc_ns += ns;
        let (req, resp, codec_ns) = replay_wire(tr, sums, &mut self.wire, rid, d1, frame, &reply)?;
        // What is left of the in-process exchange is the apply.
        sums.apply_path_ns += ns.saturating_sub(codec_ns);

        let (Request::ApplyChange { change }, Response::Applied(applied)) = (req, resp) else {
            return Err(format!(
                "request {rid}: mutation replay saw a non-mutation exchange"
            ));
        };
        let Some(shard) = applied.shard else {
            return Ok(()); // no-op mutation: nothing below the service layer
        };
        let shadow = self
            .shadows
            .get_mut(shard)
            .ok_or_else(|| format!("no shadow for shard {shard}"))?;
        replay_shadow(tr, sums, shadow, rid, d1, change)
    }
}

/// The engine call on one shard, then its two halves: routing through
/// the tree and the local queries of the routed units.
fn replay_engine(
    tr: &mut Tracer,
    sums: &mut Sums,
    sys: &SmartStoreSystem,
    rid: u32,
    parent: u32,
    req: &Request,
) {
    let engine = sys.query();
    match req {
        Request::Point { name } => {
            let (_, d4, ns) = tr.time("smartstore.query", rid, parent, || {
                black_box(engine.point(name))
            });
            sums.engine_ns += ns;
            let (route, _, ns) = tr.time("smartstore.tree.route", rid, d4, || {
                sys.tree().route_point(name)
            });
            sums.route_ns += ns;
            sums.nodes_visited += route.nodes_visited as u64;
            sums.filters_probed += route.filters_probed as u64;
            sums.target_units += route.target_units.len() as u64;
            for &u in &route.target_units {
                let ((hit, work), _, ns) = tr.time("smartstore.unit.scan", rid, d4, || {
                    sys.units()[u].point_query(name)
                });
                sums.unit_scan_ns += ns;
                sums.records_examined += work.records as u64;
                match hit {
                    Some(_) => sums.results += 1,
                    None => sums.false_positive_units += 1,
                }
            }
            // The cost of one Bloom probe, taken over every unit filter
            // of the shard (routing probes node filters of the same
            // geometry).
            let (_, _, ns) = tr.time("bloom.probe", rid, d4, || {
                for unit in sys.units() {
                    black_box(unit.bloom().contains(black_box(name.as_bytes())));
                }
            });
            sums.bloom_probe_ns += ns;
            sums.bloom_probes += sys.units().len() as u64;
        }
        Request::Range { lo, hi, opts } => {
            let (_, d4, ns) = tr.time("smartstore.query", rid, parent, || {
                black_box(engine.range(lo, hi, opts))
            });
            sums.engine_ns += ns;
            let (route, _, ns) = tr.time("smartstore.tree.route", rid, d4, || {
                sys.tree().route_range(lo, hi)
            });
            sums.route_ns += ns;
            sums.nodes_visited += route.nodes_visited as u64;
            sums.target_units += route.target_units.len() as u64;
            for &u in &route.target_units {
                let ((ids, work), _, ns) = tr.time("smartstore.unit.scan", rid, d4, || {
                    sys.units()[u].range_query(lo, hi)
                });
                sums.unit_scan_ns += ns;
                sums.records_examined += work.records as u64;
                sums.results += ids.len() as u64;
            }
        }
        Request::TopK { point, opts } => {
            let (_, d4, ns) = tr.time("smartstore.query", rid, parent, || {
                black_box(engine.topk_scored(point, opts))
            });
            sums.engine_ns += ns;
            let ((order, visited), _, ns) = tr.time("smartstore.tree.route", rid, d4, || {
                sys.tree().route_topk(point)
            });
            sums.route_ns += ns;
            sums.nodes_visited += visited as u64;
            // The engine's MaxD walk: units in best-first order until
            // the next lower bound exceeds the k-th best distance.
            let mut best: Vec<(f64, u64)> = Vec::new();
            for &(u, lower_bound) in &order {
                let max_d = if best.len() < opts.k {
                    f64::INFINITY
                } else {
                    best[opts.k - 1].0
                };
                if lower_bound > max_d {
                    break;
                }
                let ((hits, work), _, ns) = tr.time("smartstore.unit.scan", rid, d4, || {
                    sys.units()[u].topk_query(point, opts.k)
                });
                sums.unit_scan_ns += ns;
                sums.target_units += 1;
                sums.records_examined += work.records as u64;
                best.extend(hits.into_iter().map(|(id, d)| (d, id)));
                best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                best.truncate(opts.k);
            }
            sums.results += best.len() as u64;
        }
        Request::ApplyChange { .. } | Request::Stats => {}
    }
}

fn replay_shadow(
    tr: &mut Tracer,
    sums: &mut Sums,
    shadow: &mut Shadow,
    rid: u32,
    parent: u32,
    change: Change,
) -> Result<(), String> {
    let Shadow { sys, store } = shadow;
    let (group, _, ns) = tr.time("smartstore.place", rid, parent, || {
        sys.group_of_change(&change)
    });
    sums.place_ns += ns;
    let group = group.unwrap_or_else(|| sys.tree().root());

    let wal_before = store.wal_bytes();
    let (appended, _, ns) = tr.time("persist.wal.append", rid, parent, || {
        store.append(group, &change)
    });
    appended.map_err(|e| format!("shadow append: {e}"))?;
    sums.wal_append_ns += ns;
    sums.wal_bytes += store.wal_bytes() - wal_before;
    sums.wal_changes += 1;

    let (_, _, ns) = tr.time("smartstore.apply", rid, parent, || sys.apply_change(change));
    sums.apply_ns += ns;

    if store.should_compact() {
        let (outcome, _, ns) = tr.time("persist.compact", rid, parent, || {
            store.compact_incremental(sys)
        });
        let outcome: CompactionOutcome = outcome.map_err(|e| format!("shadow compaction: {e}"))?;
        sums.compactions += 1;
        sums.compact_bytes += outcome.bytes_written();
        if outcome.is_delta() {
            sums.compact_delta_ns += ns;
        } else {
            sums.compact_full_ns += ns;
        }
    }
    Ok(())
}
