//! Sharding parity: a [`MetadataServer`] must answer every query
//! *bit-identically* to a single unsharded [`SmartStoreSystem`] over
//! the same trace — on point, range and top-k, in both route modes,
//! across shard counts, through a live change stream, and after a cold
//! restart from the shards' snapshot + WAL directories.
//!
//! Why this holds (and what it pins down): answer sets depend only on
//! the stored metadata plus version-chain recovery, never on how files
//! are partitioned into units/shards — MBR and Bloom routing are
//! conservative, per-file change history stays within one shard, and
//! the client merge uses exactly the single system's normalization
//! (sorted-deduped ids; `(distance, id)`-ordered top-k).

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use smartstore::versioning::Change;
use smartstore::{QueryOptions, SmartStoreConfig, SmartStoreSystem};
use smartstore_service::{Client, MetadataServer, Request, Response, ServerConfig};
use smartstore_trace::query_gen::QueryGenConfig;
use smartstore_trace::{
    FileMetadata, GeneratorConfig, MetadataPopulation, QueryDistribution, QueryWorkload,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const TOTAL_UNITS: usize = 24;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "smartstore_parity_{tag}_{}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn population(n: usize, seed: u64) -> MetadataPopulation {
    MetadataPopulation::generate(GeneratorConfig {
        n_files: n,
        n_clusters: 24,
        seed,
        ..GeneratorConfig::default()
    })
}

fn single(pop: &MetadataPopulation, seed: u64) -> SmartStoreSystem {
    SmartStoreSystem::build(
        pop.files.clone(),
        TOTAL_UNITS,
        SmartStoreConfig::default(),
        seed,
    )
}

fn server(
    pop: &MetadataPopulation,
    n_shards: usize,
    seed: u64,
    store_dir: Option<PathBuf>,
) -> MetadataServer {
    MetadataServer::build(
        pop.files.clone(),
        &ServerConfig {
            n_shards,
            units_per_shard: TOTAL_UNITS / n_shards,
            seed,
            store_dir,
            ..ServerConfig::default()
        },
    )
    .expect("server builds")
}

fn workload(pop: &MetadataPopulation, seed: u64) -> QueryWorkload {
    QueryWorkload::generate(
        pop,
        &QueryGenConfig {
            n_range: 25,
            n_topk: 25,
            n_point: 25,
            k: 8,
            distribution: QueryDistribution::Zipf,
            seed,
            ..Default::default()
        },
    )
}

/// Runs the full workload against both deployments and asserts every
/// answer identical (both route modes for the complex queries).
fn assert_parity(reference: &SmartStoreSystem, srv: &mut MetadataServer, w: &QueryWorkload) {
    let engine = reference.query();
    let mut client = Client::new();
    for opts in [QueryOptions::offline(), QueryOptions::online()] {
        for (i, q) in w.ranges.iter().enumerate() {
            let expect = engine.range(&q.lo, &q.hi, &opts).file_ids;
            let resp = client
                .call(
                    srv,
                    Request::Range {
                        lo: q.lo.clone(),
                        hi: q.hi.clone(),
                        opts,
                    },
                )
                .expect("wire ok");
            match resp {
                Response::Query(r) => assert_eq!(
                    r.file_ids,
                    expect,
                    "range {i} diverged ({:?}, {} shards)",
                    opts.mode,
                    srv.n_shards()
                ),
                other => panic!("range {i}: unexpected response {other:?}"),
            }
        }
        for (i, q) in w.topks.iter().enumerate() {
            let o = opts.with_k(q.k);
            let expect = engine.topk(&q.point, &o).file_ids;
            let resp = client
                .call(
                    srv,
                    Request::TopK {
                        point: q.point.clone(),
                        opts: o,
                    },
                )
                .expect("wire ok");
            match resp {
                Response::TopK(r) => assert_eq!(
                    r.file_ids(),
                    expect,
                    "topk {i} diverged ({:?}, {} shards)",
                    opts.mode,
                    srv.n_shards()
                ),
                other => panic!("topk {i}: unexpected response {other:?}"),
            }
        }
    }
    for (i, q) in w.points.iter().enumerate() {
        let expect = engine.point(&q.name).file_ids;
        let resp = client
            .call(
                srv,
                Request::Point {
                    name: q.name.clone(),
                },
            )
            .expect("wire ok");
        match resp {
            Response::Query(r) => assert_eq!(
                r.file_ids,
                expect,
                "point {i} ({}) diverged ({} shards)",
                q.name,
                srv.n_shards()
            ),
            other => panic!("point {i}: unexpected response {other:?}"),
        }
    }
}

/// A deterministic change stream: far-moving modifies (stale-MBR
/// recovery), deletes, and semantically fresh inserts.
fn change_stream(files: &[FileMetadata]) -> Vec<Change> {
    let mut out = Vec::new();
    for (i, f) in files.iter().enumerate() {
        match i % 9 {
            0 => {
                let mut g = f.clone();
                g.size = g.size.saturating_mul(1000).max(1 << 30);
                g.mtime = (g.mtime * 2.0).max(1.0);
                out.push(Change::Modify(g));
            }
            4 => out.push(Change::Delete(f.file_id)),
            7 => {
                let mut g = f.clone();
                g.file_id = 5_000_000 + i as u64;
                g.name = format!("svc_fresh_{i}");
                g.atime += 3.5;
                out.push(Change::Insert(g));
            }
            _ => {}
        }
    }
    out
}

#[test]
fn fresh_build_parity_across_shard_counts() {
    let pop = population(3000, 71);
    let reference = single(&pop, 71);
    let w = workload(&pop, 5);
    for shards in [1, 2, 4] {
        let mut srv = server(&pop, shards, 71, None);
        assert_eq!(srv.n_shards(), shards);
        assert_parity(&reference, &mut srv, &w);
    }
}

#[test]
fn parity_survives_a_change_stream() {
    let pop = population(2600, 72);
    let mut reference = single(&pop, 72);
    let mut srv = server(&pop, 4, 72, None);
    let mut client = Client::new();

    for ch in change_stream(&pop.files) {
        reference.apply_change(ch.clone());
        let resp = client
            .call(&mut srv, Request::ApplyChange { change: ch })
            .expect("wire ok");
        assert!(
            matches!(resp, Response::Applied(_)),
            "mutation must ack: {resp:?}"
        );
    }

    // Queries over the *mutated* population exercise version-chain
    // recovery on both sides.
    let w = workload(&pop, 6);
    assert_parity(&reference, &mut srv, &w);

    // The fresh inserts are found by name through version recovery.
    let engine = reference.query();
    for i in [7usize, 16, 25] {
        let name = format!("svc_fresh_{i}");
        let expect = engine.point(&name).file_ids;
        assert!(!expect.is_empty(), "reference must find {name}");
        match client.call(&mut srv, Request::Point { name }).unwrap() {
            Response::Query(r) => assert_eq!(r.file_ids, expect),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn parity_after_cold_restart_from_shard_stores() {
    let dir = tmpdir("cold");
    let pop = population(2200, 73);
    let mut reference = single(&pop, 73);
    {
        let mut srv = server(&pop, 2, 73, Some(dir.clone()));
        let mut client = Client::new();
        for ch in change_stream(&pop.files) {
            reference.apply_change(ch.clone());
            client
                .call(&mut srv, Request::ApplyChange { change: ch })
                .expect("wire ok");
        }
        srv.sync().expect("wal sync");
        // Each shard journals only its own groups into its own WAL.
        for info in srv.layout() {
            let d = info.dir.expect("durable shard has a dir");
            assert!(d.join("MANIFEST").exists(), "shard store at {d:?}");
        }
        // Server dropped here: simulated crash/restart boundary.
    }
    let mut reopened = MetadataServer::open(&dir).expect("cold start");
    assert_eq!(reopened.n_shards(), 2);
    let w = workload(&pop, 7);
    assert_parity(&reference, &mut reopened, &w);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_aggregate_over_shards() {
    let pop = population(2400, 74);
    let mut srv = server(&pop, 4, 74, None);
    let mut client = Client::new();
    match client.call(&mut srv, Request::Stats).unwrap() {
        Response::Stats(s) => {
            assert_eq!(s.per_shard.len(), 4);
            assert_eq!(s.total_units(), TOTAL_UNITS);
            assert!(s.total_groups() >= 4, "every shard has groups");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The published group→server mapping covers every shard.
    let map = srv.group_map();
    let shards: std::collections::HashSet<usize> = map.iter().map(|&(s, _)| s).collect();
    assert_eq!(shards.len(), 4);
}

#[test]
fn mutations_route_to_owning_shards() {
    let pop = population(2000, 75);
    let mut srv = server(&pop, 4, 75, None);
    let mut client = Client::new();

    // Insert acks with the chosen shard and landing group.
    let mut f = pop.files[0].clone();
    f.file_id = 9_999_999;
    f.name = "routed_insert".into();
    let ack = client
        .call(
            &mut srv,
            Request::ApplyChange {
                change: Change::Insert(f),
            },
        )
        .unwrap();
    let inserted_shard = match ack {
        Response::Applied(a) => {
            assert!(a.group.is_some(), "insert lands in a group");
            a.shard.expect("insert targets a shard")
        }
        other => panic!("unexpected {other:?}"),
    };

    // Deleting it routes to the very shard that absorbed it.
    let ack = client
        .call(
            &mut srv,
            Request::ApplyChange {
                change: Change::Delete(9_999_999),
            },
        )
        .unwrap();
    match ack {
        Response::Applied(a) => assert_eq!(a.shard, Some(inserted_shard)),
        other => panic!("unexpected {other:?}"),
    }

    // Mutating an unknown file is an explicit no-op on every layer.
    let ack = client
        .call(
            &mut srv,
            Request::ApplyChange {
                change: Change::Delete(123_456_789),
            },
        )
        .unwrap();
    assert_eq!(
        ack,
        Response::Applied(smartstore_service::AppliedReply {
            shard: None,
            group: None
        })
    );
}

/// A file id stored on two shards: a delete takes the same shard's copy
/// in a live fleet and in one reopened from its stores, and a second
/// delete takes the other copy, so no copy outlives every delete.
#[test]
fn duplicated_id_is_deleted_alike_live_and_reopened() {
    let pop = population(2000, 76);
    let live_dir = tmpdir("dup_live");
    let reopen_dir = tmpdir("dup_reopen");
    let mut live = server(&pop, 2, 76, Some(live_dir.clone()));
    let mut before_restart = server(&pop, 2, 76, Some(reopen_dir.clone()));

    // A second copy of a shard-1 file's id, shaped like a shard-0 file
    // so that placement puts it on shard 0.
    let victim = live.shard(1).current_files()[0].file_id;
    let mut dup = live.shard(0).current_files()[0].clone();
    dup.file_id = victim;
    dup.name = "duplicated_id".into();
    for srv in [&mut live, &mut before_restart] {
        match srv.apply(Change::Insert(dup.clone())) {
            Response::Applied(a) => assert_eq!(a.shard, Some(0), "the copy lands on shard 0"),
            other => panic!("unexpected {other:?}"),
        }
    }
    before_restart.sync().expect("wal sync");
    drop(before_restart);
    let mut reopened = MetadataServer::open(&reopen_dir).expect("cold start");

    let holders = |srv: &MetadataServer| -> Vec<usize> {
        (0..srv.n_shards())
            .filter(|&i| {
                srv.shard(i)
                    .current_files()
                    .iter()
                    .any(|f| f.file_id == victim)
            })
            .collect()
    };
    let delete = |srv: &mut MetadataServer| match srv.apply(Change::Delete(victim)) {
        Response::Applied(a) => a.shard,
        other => panic!("unexpected {other:?}"),
    };
    let mut first_taken = Vec::new();
    for srv in [&mut live, &mut reopened] {
        assert_eq!(holders(srv), vec![0, 1]);
        let first = delete(srv).expect("a holder takes the first delete");
        assert_eq!(holders(srv), vec![1 - first]);
        assert_eq!(
            delete(srv),
            Some(1 - first),
            "the second delete finds the other copy"
        );
        assert!(holders(srv).is_empty(), "no shard still holds the id");
        assert_eq!(delete(srv), None, "a third delete is a no-op");
        first_taken.push(first);
    }
    assert_eq!(
        first_taken[0], first_taken[1],
        "live and reopened fleets delete the same copy first"
    );
    live.sync().expect("wal sync");
    drop(live);
    let mut again = MetadataServer::open(&live_dir).expect("cold start");
    assert!(holders(&again).is_empty(), "the deletes were journaled");
    assert_eq!(delete(&mut again), None);
    let _ = std::fs::remove_dir_all(&live_dir);
    let _ = std::fs::remove_dir_all(&reopen_dir);
}

#[test]
fn concurrent_readers_on_the_served_view() {
    // serve_read is &self: several client threads can read one server
    // while it is not being written, and answers equal the sequential
    // ones.
    let pop = population(2000, 76);
    let srv = server(&pop, 2, 76, None);
    let w = workload(&pop, 8);
    let reqs: Vec<Request> = w
        .ranges
        .iter()
        .map(|q| Request::Range {
            lo: q.lo.clone(),
            hi: q.hi.clone(),
            opts: QueryOptions::offline(),
        })
        .chain(w.points.iter().map(|q| Request::Point {
            name: q.name.clone(),
        }))
        .collect();
    let expected: Vec<Response> = reqs.iter().map(|r| srv.serve_read(r)).collect();
    std::thread::scope(|s| {
        let a = s.spawn(|| reqs.iter().map(|r| srv.serve_read(r)).collect::<Vec<_>>());
        let b = s.spawn(|| reqs.iter().map(|r| srv.serve_read(r)).collect::<Vec<_>>());
        assert_eq!(a.join().unwrap(), expected);
        assert_eq!(b.join().unwrap(), expected);
    });
}

#[test]
fn malformed_wire_requests_error_instead_of_panicking() {
    // Any f64 bit pattern decodes from the wire; the server must
    // reject non-finite or inverted inputs, never panic a shard.
    let pop = population(2000, 77);
    let mut srv = server(&pop, 2, 77, None);
    let mut client = Client::new();
    let dims = pop.files[0].attr_vector().len();

    let bad = [
        Request::TopK {
            point: vec![f64::NAN; dims],
            opts: QueryOptions::offline(),
        },
        Request::Range {
            lo: vec![f64::NEG_INFINITY; dims],
            hi: vec![1.0; dims],
            opts: QueryOptions::offline(),
        },
        Request::Range {
            lo: vec![5.0; dims],
            hi: vec![-5.0; dims], // inverted
            opts: QueryOptions::offline(),
        },
        Request::Range {
            lo: vec![0.0; 2], // wrong arity
            hi: vec![1.0; 2],
            opts: QueryOptions::offline(),
        },
        Request::ApplyChange {
            change: Change::Insert({
                let mut f = pop.files[0].clone();
                f.file_id = 8_000_000;
                f.ctime = f64::NAN;
                f
            }),
        },
    ];
    for req in bad {
        let resp = client.call(&mut srv, req.clone()).expect("wire ok");
        assert!(
            matches!(resp, Response::Error(_)),
            "{req:?} must be rejected, got {resp:?}"
        );
    }
    // The server still serves good requests afterwards.
    let name = pop.files[42].name.clone();
    assert!(matches!(
        client.call(&mut srv, Request::Point { name }).unwrap(),
        Response::Query(_)
    ));
}

#[test]
fn cold_start_refuses_a_partial_fleet() {
    let dir = tmpdir("partial");
    let pop = population(2000, 78);
    {
        let _srv = server(&pop, 2, 78, Some(dir.clone()));
    }
    // Losing one shard directory must fail the open loudly — a smaller
    // fleet would silently answer with missing files.
    std::fs::remove_dir_all(dir.join("shard-0001")).unwrap();
    assert!(
        MetadataServer::open(&dir).is_err(),
        "open must refuse a fleet missing shard-0001"
    );
    // And without the fleet manifest there is no deployment to trust.
    std::fs::remove_file(dir.join("FLEET")).unwrap();
    assert!(MetadataServer::open(&dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
