//! Wire-protocol properties: every `Request`/`Response` variant must
//! round-trip the codec exactly, batches must preserve order, and torn
//! or bit-flipped buffers must be *detected*, never misdecoded.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use proptest::prelude::*;
use smartstore::query::QueryOptions;
use smartstore::routing::RouteMode;
use smartstore::system::SystemStats;
use smartstore::versioning::Change;
use smartstore_service::codec::{
    decode_request, decode_request_batch, decode_response, decode_response_batch, encode_request,
    encode_request_batch, encode_response, encode_response_batch,
};
use smartstore_service::{
    AppliedReply, DegradedReply, QueryReply, Request, Response, StatsReply, TopKReply,
};
use smartstore_trace::FileMetadata;

fn file(id: u64, name: &str, size: u64) -> FileMetadata {
    FileMetadata {
        file_id: id,
        name: name.to_string(),
        dir: format!("/svc/{}", id % 7),
        owner: (id % 13) as u32,
        size,
        ctime: id as f64 * 0.5,
        mtime: id as f64 * 1.5 - 3.0,
        atime: id as f64,
        read_bytes: id.wrapping_mul(31),
        write_bytes: id.wrapping_mul(17),
        access_count: (id % 97) as u32,
        proc_id: (id % 5) as u32,
        truth_cluster: if id.is_multiple_of(2) {
            Some((id % 11) as u32)
        } else {
            None
        },
    }
}

fn opts(mode_bit: bool, k: usize) -> QueryOptions {
    QueryOptions {
        mode: if mode_bit {
            RouteMode::Online
        } else {
            RouteMode::Offline
        },
        k,
    }
}

/// One representative of every request variant, parameterized.
fn requests(seed: u64, name: String, dims: Vec<f64>) -> Vec<Request> {
    vec![
        Request::Point { name: name.clone() },
        Request::Range {
            lo: dims.iter().map(|x| x - 1.0).collect(),
            hi: dims.clone(),
            opts: opts(seed.is_multiple_of(2), (seed % 32) as usize),
        },
        Request::TopK {
            point: dims,
            opts: opts(seed.is_multiple_of(3), (seed % 17) as usize + 1),
        },
        Request::ApplyChange {
            change: Change::Insert(file(seed, &name, seed | 1)),
        },
        Request::ApplyChange {
            change: Change::Delete(seed),
        },
        Request::ApplyChange {
            change: Change::Modify(file(seed ^ 0xff, &name, seed)),
        },
        Request::Stats,
    ]
}

/// One representative of every response variant, parameterized.
fn responses(seed: u64, ids: Vec<u64>, dists: Vec<f64>) -> Vec<Response> {
    vec![
        Response::Query(QueryReply {
            file_ids: ids.clone(),
        }),
        Response::TopK(TopKReply {
            hits: ids.iter().copied().zip(dists.clone()).collect(),
        }),
        Response::Applied(AppliedReply {
            shard: if seed.is_multiple_of(2) {
                Some((seed % 9) as usize)
            } else {
                None
            },
            group: if seed.is_multiple_of(3) {
                Some((seed % 33) as usize)
            } else {
                None
            },
        }),
        Response::Stats(StatsReply {
            per_shard: (0..(seed % 5) as usize)
                .map(|i| SystemStats {
                    n_units: i + 1,
                    n_groups: i,
                    tree_height: 2 + i,
                    tree_index_bytes: 1024 * i,
                    per_unit_index_bytes: 128 + i,
                    version_bytes: seed as usize % 4096,
                })
                .collect(),
        }),
        Response::Error(format!("error #{seed}")),
        Response::Unavailable(format!("shard {} is quarantined", seed % 16)),
        Response::Overloaded(format!("{} in flight", seed % 1024)),
        // Degraded wrappers around both answer shapes — one level deep,
        // the only nesting the server ever produces.
        Response::Degraded(DegradedReply {
            partial: Box::new(Response::Query(QueryReply {
                file_ids: ids.clone(),
            })),
            missing_shards: (0..(seed % 4) as usize).collect(),
        }),
        Response::Degraded(DegradedReply {
            partial: Box::new(Response::TopK(TopKReply {
                hits: ids.iter().copied().zip(dists).collect(),
            })),
            missing_shards: vec![(seed % 7) as usize],
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_request_variant_roundtrips(
        seed in 0u64..u64::MAX,
        name in "[a-zA-Z0-9_./-]{0,60}",
        dims in prop::collection::vec(-1e12f64..1e12, 0..16),
    ) {
        for req in requests(seed, name.clone(), dims.clone()) {
            let wire = encode_request(&req);
            prop_assert_eq!(decode_request(&wire).unwrap(), req);
        }
    }

    #[test]
    fn every_response_variant_roundtrips(
        seed in 0u64..u64::MAX,
        ids in prop::collection::vec(0u64..u64::MAX, 0..40),
        dists in prop::collection::vec(0.0f64..1e18, 0..40),
    ) {
        for resp in responses(seed, ids.clone(), dists.clone()) {
            let wire = encode_response(&resp);
            prop_assert_eq!(decode_response(&wire).unwrap(), resp);
        }
    }

    #[test]
    fn batches_preserve_order_and_content(
        seed in 0u64..u64::MAX,
        name in "[a-z0-9_]{1,20}",
        dims in prop::collection::vec(-100.0f64..100.0, 1..12),
        ids in prop::collection::vec(0u64..1_000_000, 0..20),
        dists in prop::collection::vec(0.0f64..1e9, 0..20),
    ) {
        let reqs = requests(seed, name.clone(), dims.clone());
        let wire = encode_request_batch(&reqs);
        prop_assert_eq!(decode_request_batch(&wire).unwrap(), reqs);

        let resps = responses(seed, ids.clone(), dists.clone());
        let wire = encode_response_batch(&resps);
        prop_assert_eq!(decode_response_batch(&wire).unwrap(), resps);
    }

    #[test]
    fn corruption_is_detected_not_misdecoded(
        seed in 0u64..u64::MAX,
        name in "[a-z0-9_]{1,20}",
        dims in prop::collection::vec(-10.0f64..10.0, 4..10),
        flip in 0usize..10_000,
    ) {
        let reqs = requests(seed, name.clone(), dims.clone());
        let wire = encode_request_batch(&reqs);
        // Truncation is always detected.
        prop_assert!(decode_request_batch(&wire[..wire.len() - 1]).is_err());
        // A bit flip anywhere is either detected or — never — silently
        // accepted with different content.
        let mut bad = wire.clone();
        let at = flip % bad.len();
        bad[at] ^= 0x20;
        if let Ok(decoded) = decode_request_batch(&bad) {
            // CRC collisions are ~2^-32; a flip that decodes must be in
            // a length prefix that still frames identical payloads —
            // accept only exact equality.
            prop_assert_eq!(decoded, reqs);
        }
    }
}

#[test]
fn empty_batch_roundtrips() {
    assert_eq!(
        decode_request_batch(&encode_request_batch(&[])).unwrap(),
        vec![]
    );
    assert_eq!(
        decode_response_batch(&encode_response_batch(&[])).unwrap(),
        vec![]
    );
}

#[test]
fn nested_degraded_is_rejected_not_recursed() {
    // The server never nests degraded markers, and the decoder must
    // refuse one rather than recurse — a crafted buffer of repeated
    // RESP_DEGRADED tags would otherwise descend once per tag and
    // overflow the stack before any structural check fires. The
    // *encoder* will happily serialize a hand-built nested value, which
    // is exactly what a hostile peer could put on the wire.
    let nested = Response::Degraded(DegradedReply {
        partial: Box::new(Response::Degraded(DegradedReply {
            partial: Box::new(Response::Query(QueryReply::default())),
            missing_shards: vec![1],
        })),
        missing_shards: vec![0],
    });
    let mut e = smartstore_persist::codec::Enc::new();
    smartstore_service::codec::put_response(&mut e, &nested);
    let mut wire = Vec::new();
    smartstore_persist::codec::put_record(&mut wire, &e.into_bytes());
    let err = decode_response(&wire).expect_err("nested degraded must not decode");
    assert!(
        format!("{err}").contains("nested degraded"),
        "unexpected error: {err}"
    );
}

#[test]
fn old_shape_replies_with_cost_bytes_are_a_typed_error() {
    // Replies used to end in a simulated cost (u64 latency, u64
    // messages, u64 units probed, u64 group hops). A peer still sending
    // that shape must get a typed error — never a panic, and never the
    // ids with the tail silently dropped.
    let ids = [7u64, 9, 11];
    let old_cost = |e: &mut smartstore_persist::codec::Enc| {
        for v in [250_000u64, 6, 2, 1] {
            e.u64(v);
        }
    };
    let mut query = smartstore_persist::codec::Enc::new();
    query.u8(0); // RESP_QUERY
    query.u32(ids.len() as u32);
    for id in ids {
        query.u64(id);
    }
    old_cost(&mut query);
    let mut topk = smartstore_persist::codec::Enc::new();
    topk.u8(1); // RESP_TOPK
    topk.u32(ids.len() as u32);
    for id in ids {
        topk.u64(id);
        topk.f64(id as f64 * 0.5);
    }
    old_cost(&mut topk);
    for payload in [query.into_bytes(), topk.into_bytes()] {
        let mut wire = Vec::new();
        smartstore_persist::codec::put_record(&mut wire, &payload);
        match decode_response(&wire) {
            Err(smartstore_service::WireError::Decode { offset, .. }) => {
                assert_eq!(offset, payload.len() - 32, "error at the first cost byte")
            }
            other => panic!("old-shape reply must not decode, got {other:?}"),
        }
        assert!(decode_response_batch(&wire).is_err());
    }
}

#[test]
fn unknown_tags_are_rejected() {
    // A frame with a valid CRC but an unknown payload tag must decode
    // to an error, not panic or misparse.
    let mut buf = Vec::new();
    smartstore_persist::codec::put_record(&mut buf, &[0xEE]);
    assert!(decode_request(&buf).is_err());
    assert!(decode_response(&buf).is_err());
}
