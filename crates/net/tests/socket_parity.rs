//! The socket parity gate: answers served over TCP and UDS must be
//! **bit-identical** to the in-process wire path — same request bytes
//! in, same response bytes out — including mutations, stats probes, and
//! degraded-mode serving with a quarantined shard. A throughput number
//! from a front end that changes answers is worthless, so this gate
//! runs on every test pass; the repository benchmark times the socket
//! path only with every reply checked against the unsharded reference.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use smartstore_net::loadgen::{generate_requests, LoadMixConfig};
use smartstore_net::{NetAddr, NetServer, NetServerConfig, SocketTransport};
use smartstore_service::codec::encode_request_batch;
use smartstore_service::{MetadataServer, Request, ServerConfig, Transport};
use smartstore_trace::{GeneratorConfig, MetadataPopulation};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("smartstore_{tag}_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

fn population() -> MetadataPopulation {
    MetadataPopulation::generate(GeneratorConfig {
        n_files: 1_500,
        n_clusters: 12,
        seed: 77,
        ..GeneratorConfig::default()
    })
}

fn build_server(pop: &MetadataPopulation, n_shards: usize) -> MetadataServer {
    MetadataServer::build(
        pop.files.clone(),
        &ServerConfig {
            n_shards,
            units_per_shard: 8,
            seed: 9,
            store_dir: None,
            ..ServerConfig::default()
        },
    )
    .expect("server builds")
}

fn mixed_requests(pop: &MetadataPopulation, n: usize, seed: u64) -> Vec<Request> {
    let mut reqs = generate_requests(
        pop,
        &LoadMixConfig {
            n_requests: n,
            seed,
            ..LoadMixConfig::default()
        },
    );
    // Make sure the stats probe crosses the wire too.
    reqs.push(Request::Stats);
    reqs
}

/// Drives the same request stream through a socket transport and the
/// in-process transport against identically-built servers, asserting
/// response-batch *bytes* are equal for every batch.
fn assert_parity(addr: NetAddr, mut reference: MetadataServer, reqs: &[Request]) {
    let mut socket = SocketTransport::connect(addr).expect("connect");
    for batch in reqs.chunks(16) {
        let wire = encode_request_batch(batch);
        let over_socket = socket
            .exchange(&wire, batch.len())
            .expect("socket exchange");
        let in_process = reference
            .exchange(&wire, batch.len())
            .expect("in-process exchange");
        assert_eq!(
            over_socket, in_process,
            "socket response bytes diverged from the in-process wire path"
        );
    }
}

#[test]
fn tcp_answers_are_bit_identical_to_in_process() {
    let pop = population();
    let reqs = mixed_requests(&pop, 400, 0xfeed);
    let handle = NetServer::spawn(build_server(&pop, 3), NetServerConfig::default())
        .expect("net server spawns");
    let addr = NetAddr::Tcp(handle.tcp_addr().expect("tcp enabled"));
    assert_parity(addr, build_server(&pop, 3), &reqs);
    let (_, stats) = handle.shutdown().expect("clean shutdown");
    assert_eq!(stats.requests_shed, 0, "default budget must not shed here");
    assert!(stats.requests_admitted >= reqs.len() as u64);
}

#[test]
fn uds_answers_are_bit_identical_to_in_process() {
    let pop = population();
    let reqs = mixed_requests(&pop, 400, 0xbead);
    let dir = tmp_dir("uds_parity");
    let sock = dir.join("metadata.sock");
    let handle = NetServer::spawn(
        build_server(&pop, 3),
        NetServerConfig {
            tcp: false,
            uds_path: Some(sock.clone()),
            ..NetServerConfig::default()
        },
    )
    .expect("net server spawns");
    assert_parity(NetAddr::Uds(sock), build_server(&pop, 3), &reqs);
    handle.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_mode_parity_with_quarantined_shard() {
    let pop = population();
    let reqs = mixed_requests(&pop, 400, 0x0dd);
    let mut net_side = build_server(&pop, 4);
    net_side.quarantine_shard(2, "induced for degraded parity");
    let mut reference = build_server(&pop, 4);
    reference.quarantine_shard(2, "induced for degraded parity");

    let handle = NetServer::spawn(net_side, NetServerConfig::default()).expect("net server spawns");
    let addr = NetAddr::Tcp(handle.tcp_addr().expect("tcp enabled"));
    assert_parity(addr, reference, &reqs);
    let (server, _) = handle.shutdown().expect("clean shutdown");
    assert_eq!(
        server.healthy_shards().len(),
        3,
        "quarantine survived serving"
    );
}

#[test]
fn typed_client_responses_match_over_the_socket() {
    // Same gate one level up: the typed Client must see equal decoded
    // responses through both transports.
    let pop = population();
    let reqs = mixed_requests(&pop, 200, 0xc0de);
    let handle = NetServer::spawn(build_server(&pop, 2), NetServerConfig::default())
        .expect("net server spawns");
    let mut socket =
        SocketTransport::connect(NetAddr::Tcp(handle.tcp_addr().unwrap())).expect("connect");
    let mut reference = build_server(&pop, 2);
    let mut c_sock = smartstore_service::Client::new();
    let mut c_ref = smartstore_service::Client::new();
    for batch in reqs.chunks(8) {
        for r in batch {
            c_sock.enqueue(r.clone());
            c_ref.enqueue(r.clone());
        }
        let a = c_sock.flush(&mut socket).expect("socket flush");
        let b = c_ref.flush(&mut reference).expect("in-process flush");
        assert_eq!(a, b, "typed responses diverged");
    }
    handle.shutdown().expect("clean shutdown");
}
