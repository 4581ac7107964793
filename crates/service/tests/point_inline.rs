//! Point reads are served on the calling thread, shard after shard;
//! range, top-k and stats reads fan out on the pool. The rule is the
//! request kind, so neither the pool's size nor what its workers are
//! doing may show in a point answer — or delay one.

#![allow(clippy::disallowed_methods)]

use smartstore::QueryOptions;
use smartstore_service::codec::encode_response;
use smartstore_service::{
    merge_responses, DegradedReply, MetadataServer, Request, Response, ServerConfig,
};
use smartstore_trace::{GeneratorConfig, MetadataPopulation, ATTR_DIMS};
use std::collections::{HashMap, HashSet};
use std::sync::Barrier;

const N_SHARDS: usize = 4;
const POOL_SIZES: [usize; 3] = [1, 2, 4];

/// A fleet whose names collide: every seventh file takes one of eleven
/// shared names, so a name is held several times within a shard (and
/// within a unit) and on several shards.
fn fleet_with_duplicate_names(seed: u64) -> (MetadataServer, Vec<String>) {
    let mut pop = MetadataPopulation::generate(GeneratorConfig {
        n_files: 2400,
        n_clusters: 24,
        seed,
        ..GeneratorConfig::default()
    });
    for (i, f) in pop.files.iter_mut().enumerate().step_by(7) {
        f.name = format!("shared_{:02}", i % 11);
    }
    let server = MetadataServer::build(
        pop.files.clone(),
        &ServerConfig {
            n_shards: N_SHARDS,
            units_per_shard: 6,
            seed,
            ..ServerConfig::default()
        },
    )
    .expect("fleet builds");

    // The fixture is only worth its name if both kinds of collision
    // really occur.
    let mut shards_of: HashMap<String, HashSet<usize>> = HashMap::new();
    let mut twice_on_one_shard = false;
    for shard in 0..N_SHARDS {
        let mut seen = HashSet::new();
        for f in server.shard(shard).current_files() {
            if f.name.starts_with("shared_") {
                twice_on_one_shard |= !seen.insert(f.name.clone());
                shards_of.entry(f.name).or_default().insert(shard);
            }
        }
    }
    assert!(twice_on_one_shard, "no name is held twice by one shard");
    assert!(
        shards_of.values().any(|s| s.len() > 1),
        "no name is held by two shards"
    );

    let mut names: Vec<String> = shards_of.into_keys().collect();
    names.sort_unstable();
    names.extend(pop.files.iter().step_by(53).map(|f| f.name.clone()));
    names.extend((0..20).map(|i| format!("ghost_{i:03}.tmp")));
    (server, names)
}

fn point(name: &str) -> Request {
    Request::Point { name: name.into() }
}

/// What `serve_read` must return, put together from the public pieces:
/// one `query_shard` per healthy shard in shard order, merged, and
/// marked degraded when a shard is fenced off.
fn assembled(server: &MetadataServer, req: &Request) -> Response {
    let replies = server
        .healthy_shards()
        .into_iter()
        .map(|s| server.query_shard(s, req))
        .collect();
    let merged = merge_responses(req, replies);
    let missing_shards = server.quarantined_shards();
    if missing_shards.is_empty() {
        merged
    } else {
        Response::Degraded(DegradedReply {
            partial: Box::new(merged),
            missing_shards,
        })
    }
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
}

#[test]
fn point_reads_equal_the_merge_of_per_shard_queries_at_every_pool_size() {
    for seed in [3, 17] {
        let (mut server, names) = fleet_with_duplicate_names(seed);
        for fenced in [false, true] {
            if fenced {
                server.quarantine_shard(1, "test fence");
            }
            for threads in POOL_SIZES {
                pool(threads).install(|| {
                    for name in &names {
                        let req = point(name);
                        assert_eq!(
                            encode_response(&server.serve_read(&req)),
                            encode_response(&assembled(&server, &req)),
                            "seed {seed}, fenced {fenced}, {threads} thread(s), {name:?}"
                        );
                    }
                });
            }
        }
        // The duplicates were found, not merged away into nothing.
        let Response::Degraded(reply) = server.serve_read(&point(&names[0])) else {
            panic!("a fenced fleet answers degraded");
        };
        let Response::Query(q) = *reply.partial else {
            panic!("a point read answers with ids");
        };
        assert!(
            q.file_ids.len() > 1,
            "{:?} is held more than once",
            names[0]
        );
    }
}

#[test]
fn point_reads_complete_while_every_pool_worker_is_parked() {
    let (mut server, names) = fleet_with_duplicate_names(29);
    server.quarantine_shard(2, "test fence");
    let server = &server;
    for threads in POOL_SIZES {
        // Every worker of the pool (the caller is its `threads`-th
        // member) sits in a task that ends only after the reads below
        // have returned: an answer that needed a worker for any part
        // of it would never come.
        let workers = threads - 1;
        let parked = Barrier::new(workers + 1);
        let release = Barrier::new(workers + 1);
        pool(threads).scope(|s| {
            for _ in 0..workers {
                s.spawn(|_| {
                    parked.wait();
                    release.wait();
                });
            }
            parked.wait();
            for name in &names {
                let req = point(name);
                assert_eq!(
                    encode_response(&server.serve_read(&req)),
                    encode_response(&assembled(server, &req)),
                    "{threads} thread(s), {name:?}"
                );
            }
            // The pooled kinds are not starved either: the caller of a
            // fan-out always works through it itself, a busy pool only
            // costs it the help.
            let range = Request::Range {
                lo: vec![-1e9; ATTR_DIMS],
                hi: vec![1e9; ATTR_DIMS],
                opts: QueryOptions::offline(),
            };
            assert_eq!(
                encode_response(&server.serve_read(&range)),
                encode_response(&assembled(server, &range))
            );
            release.wait();
        });
    }
}
