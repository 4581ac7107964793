//! Degraded-mode serving: a quarantined shard is *isolated*, never
//! fatal. The parity gate here is the degraded analogue of
//! `tests/parity.rs`: with shard `q` fenced off, every read answer's
//! payload must be bit-identical to a deployment built from only the
//! healthy shards' files — the missing data is flagged through the
//! typed [`Response::Degraded`] marker, never silently absent and
//! never an invented answer.

#![allow(clippy::disallowed_methods)]

use smartstore::versioning::Change;
use smartstore::QueryOptions;
use smartstore_persist::{FaultKind, FaultPlan, FaultVfs, PersistError, PersistentStore};
use smartstore_service::{
    Client, MetadataServer, Request, Response, RetryPolicy, ServerConfig, ServiceError, ShardHealth,
};
use smartstore_trace::query_gen::QueryGenConfig;
use smartstore_trace::{
    FileMetadata, GeneratorConfig, MetadataPopulation, QueryDistribution, QueryWorkload,
};
use std::path::Path;

fn population(n: usize, seed: u64) -> MetadataPopulation {
    MetadataPopulation::generate(GeneratorConfig {
        n_files: n,
        n_clusters: 24,
        seed,
        ..GeneratorConfig::default()
    })
}

fn durable_server(
    pop: &MetadataPopulation,
    n_shards: usize,
    seed: u64,
    vfs: &FaultVfs,
    base: &Path,
) -> MetadataServer {
    MetadataServer::build(
        pop.files.clone(),
        &ServerConfig {
            n_shards,
            units_per_shard: 24 / n_shards,
            seed,
            store_dir: Some(base.to_path_buf()),
            store_vfs: Some(vfs.handle()),
            ..ServerConfig::default()
        },
    )
    .expect("durable server builds")
}

fn memory_server(files: Vec<FileMetadata>, n_shards: usize, seed: u64) -> MetadataServer {
    MetadataServer::build(
        files,
        &ServerConfig {
            n_shards,
            units_per_shard: 24 / n_shards,
            seed,
            ..ServerConfig::default()
        },
    )
    .expect("memory server builds")
}

fn workload(pop: &MetadataPopulation, seed: u64) -> QueryWorkload {
    QueryWorkload::generate(
        pop,
        &QueryGenConfig {
            n_range: 15,
            n_topk: 15,
            n_point: 15,
            k: 8,
            distribution: QueryDistribution::Zipf,
            seed,
            ..Default::default()
        },
    )
}

fn read_requests(w: &QueryWorkload) -> Vec<Request> {
    let opts = QueryOptions::offline();
    let mut reqs = Vec::new();
    for q in &w.ranges {
        reqs.push(Request::Range {
            lo: q.lo.clone(),
            hi: q.hi.clone(),
            opts,
        });
    }
    for q in &w.topks {
        reqs.push(Request::TopK {
            point: q.point.clone(),
            opts: opts.with_k(q.k),
        });
    }
    for q in &w.points {
        reqs.push(Request::Point {
            name: q.name.clone(),
        });
    }
    reqs
}

/// Strips the degraded wrapper, asserting it names exactly `missing`.
fn unwrap_degraded(resp: Response, missing: &[usize]) -> Response {
    match resp {
        Response::Degraded(d) => {
            assert_eq!(d.missing_shards, missing, "degraded marker shard set");
            *d.partial
        }
        other => panic!("expected a degraded response, got {other:?}"),
    }
}

/// The answer payload two responses must share for parity: ids for
/// point/range, `(id, distance)` pairs for top-k. Costs legitimately
/// differ between deployments (different unit structure), answers may
/// not.
fn answer_of(resp: &Response) -> Vec<(u64, f64)> {
    match resp {
        Response::Query(q) => q.file_ids.iter().map(|&id| (id, 0.0)).collect(),
        Response::TopK(t) => t.hits.clone(),
        other => panic!("not an answer-shaped response: {other:?}"),
    }
}

/// The headline gate: with one shard quarantined, every degraded read
/// answer is bit-identical to a deployment built from only the healthy
/// shards' files — and after `try_reopen_shard`, answers are full
/// again.
#[test]
fn degraded_answers_match_healthy_subfleet() {
    let base = Path::new("/fleet");
    let vfs = FaultVfs::new();
    let pop = population(2400, 91);
    let mut srv = durable_server(&pop, 3, 91, &vfs, base);

    // Live churn so shard WALs are non-trivial.
    let mut client = Client::new();
    for (i, f) in pop.files.iter().take(60).enumerate() {
        let mut m = f.clone();
        m.size = m.size.wrapping_mul(3).max(1);
        m.mtime += i as f64;
        client
            .call(
                &mut srv,
                Request::ApplyChange {
                    change: Change::Modify(m),
                },
            )
            .expect("wire ok");
    }

    let w = workload(&pop, 17);
    let reqs = read_requests(&w);
    let full_answers: Vec<Response> = reqs.iter().map(|r| srv.serve_read(r)).collect();

    // The healthy-subfleet reference: shards 0 and 2's files, built as
    // an independent two-shard deployment (partitioned afresh — parity
    // must not depend on how files are split across shards).
    let healthy_files: Vec<FileMetadata> = [0usize, 2]
        .iter()
        .flat_map(|&i| srv.shard(i).current_files())
        .collect();
    let subfleet = memory_server(healthy_files, 2, 91);

    srv.quarantine_shard(1, "operator fence for the parity gate");
    assert!(matches!(srv.shard_health(1), ShardHealth::Quarantined(_)));
    assert_eq!(srv.healthy_shards(), vec![0, 2]);

    for (req, full) in reqs.iter().zip(&full_answers) {
        let degraded = unwrap_degraded(srv.serve_read(req), &[1]);
        let expect = subfleet.serve_read(req);
        assert_eq!(
            answer_of(&degraded),
            answer_of(&expect),
            "degraded answer diverged from the healthy subfleet for {req:?}"
        );
        // Sanity for id-set answers: the degraded answer is a subset of
        // the full one. (Top-k is exempt — with shard 1's close hits
        // gone, files that missed the full fleet's top-k legitimately
        // move up into the degraded ranking.)
        if let Response::Query(_) = &degraded {
            let full_ids = full.file_ids().expect("full answer");
            for id in degraded.file_ids().expect("degraded answer") {
                assert!(full_ids.contains(&id), "degraded invented file {id}");
            }
        }
    }

    // Stats degrade too: two shards' worth, flagged.
    match unwrap_degraded(srv.serve_read(&Request::Stats), &[1]) {
        Response::Stats(s) => assert_eq!(s.per_shard.len(), 2),
        other => panic!("unexpected {other:?}"),
    }

    // Recovery: the shard's store directory is intact, so reopening
    // restores the exact full answers.
    srv.try_reopen_shard(1).expect("shard 1 reopens");
    assert!(srv.shard_health(1).is_healthy());
    for (req, full) in reqs.iter().zip(&full_answers) {
        assert_eq!(&srv.serve_read(req), full, "post-reopen answer for {req:?}");
    }
}

/// Mutations against a fenced shard are `Unavailable` (retryable), not
/// silent no-ops; unknown-file mutations become indeterminate while
/// any shard is down; inserts reroute to healthy shards immediately.
#[test]
fn quarantined_mutations_are_unavailable_not_noops() {
    let base = Path::new("/fleet");
    let vfs = FaultVfs::new();
    let pop = population(2000, 92);
    let mut srv = durable_server(&pop, 2, 92, &vfs, base);
    let mut client = Client::new();

    // A file owned by shard 1.
    let victim = srv.shard(1).current_files()[0].clone();
    srv.quarantine_shard(1, "fenced");

    match client
        .call(
            &mut srv,
            Request::ApplyChange {
                change: Change::Delete(victim.file_id),
            },
        )
        .expect("wire ok")
    {
        Response::Unavailable(_) => {}
        other => panic!("delete on fenced shard must be unavailable, got {other:?}"),
    }
    let mut modified = victim.clone();
    modified.size = modified.size.saturating_add(4096);
    match client
        .call(
            &mut srv,
            Request::ApplyChange {
                change: Change::Modify(modified.clone()),
            },
        )
        .expect("wire ok")
    {
        Response::Unavailable(_) => {}
        other => panic!("modify on fenced shard must be unavailable, got {other:?}"),
    }

    // Unknown file: normally a clean no-op ack; during degradation the
    // no-op claim is unprovable.
    match client
        .call(
            &mut srv,
            Request::ApplyChange {
                change: Change::Delete(u64::MAX),
            },
        )
        .expect("wire ok")
    {
        Response::Unavailable(_) => {}
        other => panic!("unknown-file delete must be indeterminate, got {other:?}"),
    }

    // Inserts reroute to the healthy shard without needing a retry.
    let mut f = pop.files[0].clone();
    f.file_id = 77_000_001;
    f.name = "rerouted".into();
    match client
        .call(
            &mut srv,
            Request::ApplyChange {
                change: Change::Insert(f),
            },
        )
        .expect("wire ok")
    {
        Response::Applied(a) => assert_eq!(a.shard, Some(0), "insert reroutes to shard 0"),
        other => panic!("unexpected {other:?}"),
    }

    // Once the shard is back, its files take mutations again.
    srv.try_reopen_shard(1).expect("shard 1 reopens");
    for change in [Change::Modify(modified), Change::Delete(victim.file_id)] {
        match client
            .call(&mut srv, Request::ApplyChange { change })
            .expect("wire ok")
        {
            Response::Applied(a) => assert_eq!(a.shard, Some(1), "routed to the reopened shard"),
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// A dead disk under one shard quarantines that shard — after the
/// store fails to self-heal — and the rest of the fleet keeps serving;
/// the client's bounded retry turns the transient failure into a
/// success once the fault clears the routing.
#[test]
fn store_failure_quarantines_shard_and_retry_recovers() {
    let base = Path::new("/fleet");
    let vfs = FaultVfs::new();
    let pop = population(2000, 93);
    let mut srv = durable_server(&pop, 2, 93, &vfs, base);
    let mut client = Client::new();

    // Pick an insert that routes to a durable shard, then kill the
    // disk under the whole fleet (sticky: every write fails).
    let mut f = pop.files[0].clone();
    f.file_id = 88_000_001;
    f.name = "under_fault".into();
    vfs.set_plan(Some(FaultPlan {
        at: vfs.ops(),
        kind: FaultKind::IoError,
        sticky: true,
    }));

    // First attempt: the target shard's append fails, the in-place
    // heal (full compaction) fails on the same dead disk, and the
    // shard is quarantined — answered as a retryable failure.
    let resp = client
        .call(
            &mut srv,
            Request::ApplyChange {
                change: Change::Insert(f.clone()),
            },
        )
        .expect("wire ok");
    assert!(
        resp.is_retryable(),
        "dead-disk apply must be retryable: {resp:?}"
    );
    assert_eq!(srv.quarantined_shards().len(), 1, "one shard fenced");

    // The disk comes back; the bounded retry reroutes the insert to
    // the surviving shard and succeeds.
    vfs.set_plan(None);
    let resp = client
        .call_with_retry(
            &mut srv,
            Request::ApplyChange {
                change: Change::Insert(f),
            },
            RetryPolicy::default(),
        )
        .expect("wire ok");
    match resp {
        Response::Applied(a) => assert!(a.shard.is_some(), "insert landed"),
        other => panic!("retried insert must land, got {other:?}"),
    }

    // Reads kept working throughout, flagged degraded.
    let name = srv.shard(srv.healthy_shards()[0]).current_files()[0]
        .name
        .clone();
    match srv.serve_read(&Request::Point { name }) {
        Response::Degraded(_) => {}
        other => panic!("reads must degrade, not fail: {other:?}"),
    }

    // And the fenced shard recovers from its intact store directory.
    let q = srv.quarantined_shards()[0];
    srv.try_reopen_shard(q).expect("quarantined shard reopens");
    assert!(srv.quarantined_shards().is_empty());
}

/// Cold start with one shard's store corrupted on disk: the fleet
/// comes up with that shard quarantined (reads degraded) instead of
/// refusing to serve anything — while a *missing* shard directory
/// still fails the open loudly (`tests/parity.rs` pins that).
#[test]
fn cold_start_quarantines_unrecoverable_shard() {
    let base = Path::new("/fleet");
    let vfs = FaultVfs::new();
    let pop = population(2000, 94);
    {
        let mut srv = durable_server(&pop, 2, 94, &vfs, base);
        srv.sync().expect("sync");
    }

    // Destroy shard 1's manifest bytes on the (virtual) disk.
    let dir1 = base.join("shard-0001");
    let manifest = dir1.join("MANIFEST");
    assert!(
        vfs.corrupt_durable(&manifest, 2, 0xFF),
        "manifest corrupted"
    );

    let mut srv = MetadataServer::open_with(vfs.handle(), base).expect("degraded cold start");
    assert_eq!(srv.n_shards(), 2);
    assert!(srv.shard_health(0).is_healthy());
    match srv.shard_health(1) {
        ShardHealth::Quarantined(reason) => {
            assert!(reason.contains("recovery failed"), "reason: {reason}")
        }
        ShardHealth::Healthy => panic!("corrupt shard must come up quarantined"),
    }

    // Reads serve the surviving shard, flagged.
    let name = srv.shard(0).current_files()[0].name.clone();
    match srv.serve_read(&Request::Point { name }) {
        Response::Degraded(d) => assert_eq!(d.missing_shards, vec![1]),
        other => panic!("expected degraded read, got {other:?}"),
    }

    // The corruption is durable, so reopening keeps failing — typed,
    // and the shard stays fenced.
    assert!(srv.try_reopen_shard(1).is_err());
    assert!(!srv.shard_health(1).is_healthy());
}

/// A WAL frame whose checksum verifies but whose group tag the
/// recovered tree cannot honour fails that shard's recovery with a
/// typed error naming the segment and the frame; the open quarantines
/// only that shard. Two tags: one past the end of the node arena on a
/// delete, and a leaf (not a first-level group) on an insert.
#[test]
fn cold_start_quarantines_shard_with_unreplayable_frame() {
    let base = Path::new("/fleet");
    let pop = population(2000, 95);
    for insert in [false, true] {
        let vfs = FaultVfs::new();
        {
            let mut srv = durable_server(&pop, 2, 95, &vfs, base);
            srv.sync().expect("sync");
        }
        let dir1 = base.join("shard-0001");
        let (sys, mut store, _) =
            PersistentStore::open_with(vfs.handle(), &dir1).expect("shard 1 opens");
        let file = sys.current_files()[0].clone();
        let (tag, change) = if insert {
            let leaf = sys.tree().leaf_of_unit(0).expect("unit 0 has a leaf");
            (leaf, Change::Insert(file))
        } else {
            (10_000, Change::Delete(file.file_id))
        };
        let seq = store.append(tag, &change).expect("frame appended");
        store.sync().expect("frame synced");
        drop((sys, store));

        match PersistentStore::open_with(vfs.handle(), &dir1) {
            Err(PersistError::BadFrame { path, seq: at, .. }) => {
                assert_eq!(at, seq, "the error names the frame");
                assert!(path.starts_with(&dir1), "the error names the segment");
            }
            other => panic!("expected a bad-frame error, got {:?}", other.map(|_| ())),
        }
        let srv = MetadataServer::open_with(vfs.handle(), base).expect("degraded cold start");
        assert!(srv.shard_health(0).is_healthy());
        match srv.shard_health(1) {
            ShardHealth::Quarantined(reason) => {
                assert!(reason.contains(&format!("frame {seq}")), "reason: {reason}")
            }
            ShardHealth::Healthy => panic!("shard 1 must come up quarantined"),
        }
    }
}

/// An I/O error while probing a shard directory is reported as that
/// error, not as a missing shard.
#[test]
fn cold_start_reports_io_error_probing_shard_dir() {
    let base = Path::new("/fleet");
    let vfs = FaultVfs::new();
    let pop = population(1000, 96);
    {
        let mut srv = durable_server(&pop, 2, 96, &vfs, base);
        srv.sync().expect("sync");
    }
    // Call 0 reads the fleet manifest; call 1 probes `shard-0000`.
    vfs.reset_ops();
    vfs.set_plan(Some(FaultPlan {
        at: 1,
        kind: FaultKind::IoError,
        sticky: false,
    }));
    match MetadataServer::open_with(vfs.handle(), base) {
        Err(ServiceError::Persist(PersistError::Io(_))) => {}
        Err(e) => panic!("expected the probe's I/O error, got {e}"),
        Ok(_) => panic!("the failed probe must fail the open"),
    }
    vfs.set_plan(None);
    assert!(MetadataServer::open_with(vfs.handle(), base).is_ok());
}

/// With every shard quarantined the service answers `Unavailable`
/// (retryable), and the client's bounded retry gives up after
/// `max_attempts` with the backoff accounted.
#[test]
fn full_outage_is_unavailable_and_retry_is_bounded() {
    let pop = population(2000, 95);
    let mut srv = memory_server(pop.files.clone(), 2, 95);
    srv.quarantine_shard(0, "fenced");
    srv.quarantine_shard(1, "fenced");

    let mut client = Client::new();
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff_ns: 1_000,
        ..RetryPolicy::default()
    };
    let resp = client
        .call_with_retry(
            &mut srv,
            Request::Point {
                name: pop.files[0].name.clone(),
            },
            policy,
        )
        .expect("wire ok");
    assert!(matches!(resp, Response::Unavailable(_)));
    let stats = client.stats();
    assert_eq!(stats.retries, 3, "max_attempts - 1 retries");
    assert_eq!(
        stats.backoff_ns,
        1_000 + 2_000 + 4_000,
        "exponential backoff accounted"
    );
}
