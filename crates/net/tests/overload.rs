//! Admission control under pipelined load: a bounded in-flight budget
//! sheds excess requests with a typed [`Response::Overloaded`] instead
//! of queueing unboundedly, sheds are counted, and admitted requests
//! are still answered correctly and in order.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use smartstore_net::frame::{FrameEvent, FrameReader, FRAME_HEADER_BYTES};
use smartstore_net::loadgen::{generate_requests, run_open_loop, LoadMixConfig};
use smartstore_net::{NetAddr, NetServer, NetServerConfig};
use smartstore_persist::codec::Dec;
use smartstore_service::codec::{encode_request, get_response};
use smartstore_service::{MetadataServer, Request, Response, ServerConfig};
use smartstore_trace::{ArrivalConfig, ArrivalSchedule, GeneratorConfig, MetadataPopulation};
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

#[test]
fn open_loop_load_accounts_for_every_request() {
    let pop = population(800, 21);
    let handle = NetServer::spawn(server(&pop, 2), NetServerConfig::default()).expect("spawns");
    let addr = NetAddr::Tcp(handle.tcp_addr().expect("tcp"));

    let reqs = generate_requests(
        &pop,
        &LoadMixConfig {
            n_requests: 300,
            seed: 33,
            ..LoadMixConfig::default()
        },
    );
    let schedule = ArrivalSchedule::generate(&ArrivalConfig {
        rate_rps: 3_000.0,
        n_arrivals: reqs.len(),
        burstiness: 1.0,
        seed: 33,
        ..ArrivalConfig::default()
    });
    let report = run_open_loop(&addr, &reqs, &schedule, 3).expect("load run");
    assert_eq!(report.sent, reqs.len() as u64, "open loop sends everything");
    assert_eq!(
        report.answered + report.shed + report.errors,
        reqs.len() as u64,
        "every request accounted for: {report:?}"
    );
    assert_eq!(report.errors, 0, "no transport failures on loopback");
    assert!(report.answered > 0);
    assert!(report.latency.count() == report.answered);
    assert!(report.latency_ms(0.99) >= report.latency_ms(0.50));
    assert!(report.achieved_rps() > 0.0);

    let (_, stats) = handle.shutdown().expect("clean shutdown");
    assert_eq!(
        stats.requests_admitted + stats.requests_shed,
        reqs.len() as u64,
        "server-side accounting matches: {stats:?}"
    );
    assert_eq!(stats.requests_admitted, report.answered);
    assert_eq!(stats.requests_shed, report.shed);
}

#[test]
fn tiny_budget_under_open_loop_load_sheds_but_answers_admitted_fast() {
    let pop = population(500, 31);
    let handle = NetServer::spawn(
        server(&pop, 1),
        NetServerConfig {
            max_inflight: 1,
            max_inflight_per_conn: 1,
            ..NetServerConfig::default()
        },
    )
    .expect("spawns");
    let addr = NetAddr::Tcp(handle.tcp_addr().expect("tcp"));

    let reqs = generate_requests(
        &pop,
        &LoadMixConfig {
            n_requests: 400,
            mutation_weight: 0,
            seed: 55,
            ..LoadMixConfig::default()
        },
    );
    // Arrivals far beyond a 1-permit budget's comfort: concurrent
    // connections race the single permit and the losers are shed.
    let schedule = ArrivalSchedule::generate(&ArrivalConfig {
        rate_rps: 20_000.0,
        n_arrivals: reqs.len(),
        burstiness: 4.0,
        seed: 55,
        ..ArrivalConfig::default()
    });
    let report = run_open_loop(&addr, &reqs, &schedule, 4).expect("load run");
    assert_eq!(report.errors, 0);
    assert!(
        report.shed > 0,
        "4 connections racing one permit must shed: {report:?}"
    );
    assert!(report.answered > 0, "the budget still admits work");
    // Shedding at the door is what keeps admitted requests fast: an
    // unbounded queue would push their tail out with the backlog.
    let p99_admitted = report.latency_ms(0.99);
    assert!(
        p99_admitted < 1_500.0,
        "p99 of admitted requests must stay bounded under overload, got {p99_admitted:.1}ms"
    );
    handle.shutdown().expect("clean shutdown");
}
