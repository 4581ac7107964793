//! Serving-layer walkthrough: a sharded metadata service with a wire
//! protocol, per-shard durability, and a cold restart.
//!
//! ```sh
//! cargo run --release --example serving
//! ```
//!
//! Flow: build a 4-shard [`MetadataServer`] over an MSN-model trace
//! (each shard = its own SmartStore system + snapshot + WAL directory),
//! serve a batched mix of point/range/top-k queries through a
//! [`Client`] (requests cross a simulated wire with CRC framing),
//! journal a few mutations, then drop the server and *cold-start* it
//! from the shard directories — answers must come back identical.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use smartstore_repro::service::{Client, MetadataServer, Request, Response, ServerConfig};
use smartstore_repro::smartstore::versioning::Change;
use smartstore_repro::smartstore::QueryOptions;
use smartstore_repro::trace::query_gen::QueryGenConfig;
use smartstore_repro::trace::{QueryDistribution, QueryWorkload, TraceKind, WorkloadModel};

fn main() {
    let dir = std::env::temp_dir().join(format!("smartstore_serving_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Trace + sharded deployment: 4 simulated metadata servers, 15
    //    storage units each — the paper's 60-unit cluster, sharded.
    let pop = WorkloadModel::new(TraceKind::Msn).generate(6_000, 42);
    let mut srv = MetadataServer::build(
        pop.files.clone(),
        &ServerConfig {
            n_shards: 4,
            units_per_shard: 15,
            seed: 42,
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server builds");
    println!("shard layout (each shard journals only its own groups):");
    for info in srv.layout() {
        println!(
            "  shard {}: {} units, {} files, {} semantic groups, store {}",
            info.id,
            info.n_units,
            info.n_files,
            info.n_groups,
            info.dir
                .as_ref()
                .map_or("-".into(), |d| d.display().to_string()),
        );
    }
    println!("group→server map entries: {}", srv.group_map().len());

    // 2. A batched query mix over one wire round trip.
    let w = QueryWorkload::generate(
        &pop,
        &QueryGenConfig {
            n_range: 3,
            n_topk: 3,
            n_point: 3,
            k: 8,
            distribution: QueryDistribution::Zipf,
            seed: 7,
            ..Default::default()
        },
    );
    let mut client = Client::new();
    for q in &w.points {
        client.enqueue(Request::Point {
            name: q.name.clone(),
        });
    }
    for q in &w.ranges {
        client.enqueue(Request::Range {
            lo: q.lo.clone(),
            hi: q.hi.clone(),
            opts: QueryOptions::offline(),
        });
    }
    for q in &w.topks {
        client.enqueue(Request::TopK {
            point: q.point.clone(),
            opts: QueryOptions::offline().with_k(q.k),
        });
    }
    let responses = client.flush(&mut srv).expect("wire ok");
    for (r, resp) in responses.iter().enumerate() {
        match resp {
            Response::Query(q) => println!("  resp {r:2}: {:3} ids", q.file_ids.len()),
            Response::TopK(t) => println!(
                "  resp {r:2}: top-{}     nearest at squared distance {:.3e}",
                t.hits.len(),
                t.hits.first().map_or(f64::NAN, |&(_, d)| d)
            ),
            other => println!("  resp {r:2}: {other:?}"),
        }
    }
    let cs = client.stats();
    println!(
        "client: {} requests in {} batch(es), {} B out / {} B in",
        cs.requests, cs.batches, cs.bytes_sent, cs.bytes_received
    );

    // 3. Journal a few mutations (WAL-first on the owning shard).
    let mut fresh = pop.files[10].clone();
    fresh.file_id = 7_000_000;
    fresh.name = "serving_demo_file".into();
    client
        .call(
            &mut srv,
            Request::ApplyChange {
                change: Change::Insert(fresh),
            },
        )
        .expect("wire ok");
    client
        .call(
            &mut srv,
            Request::ApplyChange {
                change: Change::Delete(pop.files[3].file_id),
            },
        )
        .expect("wire ok");
    srv.sync().expect("wal sync");

    // Remember a few answers, then crash/restart.
    let probe = Request::Point {
        name: "serving_demo_file".into(),
    };
    let before = srv.serve_read(&probe);
    drop(srv);

    // 4. Cold start from the shard directories: snapshot + WAL replay
    //    per shard.
    let mut reopened = MetadataServer::open(&dir).expect("cold start");
    let after = reopened.serve_read(&probe);
    assert_eq!(before, after, "cold restart must answer identically");
    println!(
        "cold restart: {} shards recovered, journaled insert found again → {:?}",
        reopened.n_shards(),
        after.file_ids().unwrap_or_default(),
    );

    // 5. Stats over the wire.
    match client.call(&mut reopened, Request::Stats).expect("wire ok") {
        Response::Stats(s) => println!(
            "stats: {} shards, {} units, {} semantic groups total",
            s.per_shard.len(),
            s.total_units(),
            s.total_groups()
        ),
        other => println!("stats: unexpected {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("serving demo complete");
}
