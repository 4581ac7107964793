//! Network serving walkthrough: the metadata service behind a real
//! socket, with admission control, typed retries and a graceful drain.
//!
//! ```sh
//! cargo run --release --example net_serving
//! ```
//!
//! Flow: spawn a [`NetServer`] (TCP on an ephemeral loopback port) over
//! a 2-shard [`MetadataServer`], verify the **parity gate** — response
//! bytes over the socket equal the in-process wire path — then issue
//! typed queries through a [`SocketTransport`] with retry, and finish
//! with a graceful shutdown that drains in-flight requests and hands
//! the server back. Admission itself is tested without a socket
//! (`crates/net/tests/session.rs`); serving latency and throughput are
//! measured by `benchmark/run.sh`.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use smartstore_repro::net::loadgen::{generate_requests, LoadMixConfig};
use smartstore_repro::net::{NetAddr, NetServer, NetServerConfig, SocketTransport};
use smartstore_repro::service::codec::encode_request_batch;
use smartstore_repro::service::{
    Client, MetadataServer, Request, Response, RetryPolicy, ServerConfig, Transport,
};
use smartstore_repro::trace::{TraceKind, WorkloadModel};

fn build_server(pop: &smartstore_repro::trace::MetadataPopulation) -> MetadataServer {
    MetadataServer::build(
        pop.files.clone(),
        &ServerConfig {
            n_shards: 2,
            units_per_shard: 10,
            seed: 42,
            store_dir: None,
            ..ServerConfig::default()
        },
    )
    .expect("server builds")
}

fn main() {
    // 1. A sharded metadata server behind a TCP accept loop. The
    //    admission budget bounds in-flight work; excess load is shed
    //    with a typed `Overloaded` instead of queueing unboundedly.
    let pop = WorkloadModel::new(TraceKind::Msn).generate(4_000, 42);
    let handle = NetServer::spawn(
        build_server(&pop),
        NetServerConfig {
            max_inflight: 64,
            max_inflight_per_conn: 16,
            ..NetServerConfig::default()
        },
    )
    .expect("net server spawns");
    let addr = NetAddr::Tcp(handle.tcp_addr().expect("tcp enabled"));
    println!("serving on {addr}");

    // 2. Parity gate: the same request bytes through the socket and
    //    through the in-process wire path must produce identical
    //    response bytes. Only after this gate do numbers mean anything.
    let stream = generate_requests(
        &pop,
        &LoadMixConfig {
            n_requests: 120,
            ..LoadMixConfig::default()
        },
    );
    let mut socket = SocketTransport::connect(addr).expect("connect");
    let mut reference = build_server(&pop);
    for batch in stream.chunks(16) {
        let wire = encode_request_batch(batch);
        let a = socket.exchange(&wire, batch.len()).expect("socket leg");
        let b = reference.exchange(&wire, batch.len()).expect("local leg");
        assert_eq!(a, b, "socket answers must be bit-identical");
    }
    println!(
        "parity gate: {} mixed requests, socket bytes == in-process bytes",
        stream.len()
    );

    // 3. Typed queries over the socket, with the client's retry loop
    //    (reconnect + backoff on transport errors, jitter on sheds).
    let mut client = Client::new();
    let hot = pop.files[0].name.clone();
    match client
        .call_with_retry(
            &mut socket,
            Request::Point { name: hot.clone() },
            RetryPolicy::default(),
        )
        .expect("point over tcp")
    {
        Response::Query(q) => println!("point '{hot}' → {} id(s)", q.file_ids.len()),
        other => println!("point '{hot}' → {other:?}"),
    }

    // 4. Graceful shutdown: drain in-flight requests, flush per-shard
    //    WALs, hand the server back for in-process use.
    drop(socket);
    let (server, stats) = handle.shutdown().expect("graceful shutdown");
    println!(
        "shutdown: {} conns accepted, {} requests admitted, {} shed, {} mutations applied",
        stats.connections_accepted,
        stats.requests_admitted,
        stats.requests_shed,
        stats.mutations_applied
    );
    let resp = server.serve_read(&Request::Point { name: hot.clone() });
    assert!(matches!(resp, Response::Query(_)));
    println!("drained server still answers '{hot}' in-process — net serving demo complete");
}
