//! Admission control over a live socket: a pipelined burst beyond a
//! bounded in-flight budget is shed with a typed
//! [`Response::Overloaded`] instead of queueing unboundedly, and sheds
//! are counted. The admission rules themselves are tested without a
//! socket, a thread or a clock in `session.rs`.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use smartstore_net::frame::{FrameEvent, FrameReader, FRAME_HEADER_BYTES};
use smartstore_net::{NetServer, NetServerConfig};
use smartstore_persist::codec::Dec;
use smartstore_service::codec::{encode_request, get_response};
use smartstore_service::{MetadataServer, Request, Response, ServerConfig};
use smartstore_trace::{GeneratorConfig, MetadataPopulation};
use std::io::Write;
use std::net::TcpStream;

fn population(n_files: usize, seed: u64) -> MetadataPopulation {
    MetadataPopulation::generate(GeneratorConfig {
        n_files,
        n_clusters: 8,
        seed,
        ..GeneratorConfig::default()
    })
}

fn server(pop: &MetadataPopulation, n_shards: usize) -> MetadataServer {
    MetadataServer::build(
        pop.files.clone(),
        &ServerConfig {
            n_shards,
            units_per_shard: 8,
            seed: 4,
            store_dir: None,
            ..ServerConfig::default()
        },
    )
    .expect("server builds")
}

/// Reads `n` response frames off one raw connection.
fn read_responses(stream: &TcpStream, n: usize) -> Vec<Response> {
    let mut reader = FrameReader::new(stream.try_clone().expect("clone"));
    let mut out = Vec::new();
    while out.len() < n {
        match reader.poll().expect("clean frames") {
            FrameEvent::Frame(raw) => {
                let mut d = Dec::new(&raw[FRAME_HEADER_BYTES..]);
                out.push(get_response(&mut d).expect("typed response"));
            }
            FrameEvent::Pause => continue,
            FrameEvent::Eof => panic!("connection closed early"),
        }
    }
    out
}

#[test]
fn pipelined_burst_beyond_the_budget_sheds_typed_overloaded() {
    let pop = population(600, 11);
    let name = pop.files[0].name.clone();
    let handle = NetServer::spawn(
        server(&pop, 2),
        NetServerConfig {
            max_inflight: 2,
            max_inflight_per_conn: 2,
            max_pipeline: 64,
            ..NetServerConfig::default()
        },
    )
    .expect("spawns");
    let addr = handle.tcp_addr().expect("tcp");

    // A pipelined burst usually lands in one drain round; the kernel
    // may split it, so retry the burst until a shed is observed. Every
    // attempt still asserts full typed correctness.
    const BURST: usize = 24;
    let wire: Vec<u8> = (0..BURST)
        .flat_map(|_| encode_request(&Request::Point { name: name.clone() }))
        .collect();
    let mut observed_shed = false;
    for _attempt in 0..20 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(&wire).expect("burst written");
        let resps = read_responses(&conn, BURST);
        let shed = resps
            .iter()
            .filter(|r| matches!(r, Response::Overloaded(_)))
            .count();
        let served = resps
            .iter()
            .filter(|r| matches!(r, Response::Query(_)))
            .count();
        assert_eq!(shed + served, BURST, "every request answered, typed");
        assert!(served >= 1, "the budget admits at least one per round");
        if shed > 0 {
            observed_shed = true;
            break;
        }
    }
    assert!(
        observed_shed,
        "a 24-deep pipeline against a 2-permit budget must shed eventually"
    );
    let (_, stats) = handle.shutdown().expect("clean shutdown");
    assert!(stats.requests_shed > 0, "sheds counted: {stats:?}");
    assert!(
        Response::Overloaded(String::new()).is_retryable(),
        "sheds must be retryable for clients"
    );
}
