//! Load-generator determinism: the request stream is a pure function
//! of its seed — bit-identical across runs and across thread-pool
//! sizes — so a serving experiment can be reproduced exactly and two
//! deployments can be compared on the *same* offered load.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use rayon::ThreadPoolBuilder;
use smartstore_net::loadgen::{generate_requests, LoadMixConfig};
use smartstore_service::codec::encode_request_batch;
use smartstore_trace::{GeneratorConfig, MetadataPopulation};

fn population() -> MetadataPopulation {
    MetadataPopulation::generate(GeneratorConfig {
        n_files: 900,
        n_clusters: 10,
        seed: 41,
        ..GeneratorConfig::default()
    })
}

fn mix(seed: u64) -> LoadMixConfig {
    LoadMixConfig {
        n_requests: 2_000,
        seed,
        ..LoadMixConfig::default()
    }
}

#[test]
fn same_seed_same_bytes_across_runs() {
    let pop = population();
    let a = generate_requests(&pop, &mix(7));
    let b = generate_requests(&pop, &mix(7));
    assert_eq!(a, b, "typed streams must match");
    assert_eq!(
        encode_request_batch(&a),
        encode_request_batch(&b),
        "wire bytes must match bit for bit"
    );
}

#[test]
fn thread_count_cannot_perturb_the_stream() {
    let pop = population();
    let single = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let wide = ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .expect("pool");
    let a = single.install(|| generate_requests(&pop, &mix(19)));
    let b = wide.install(|| generate_requests(&pop, &mix(19)));
    let c = generate_requests(&pop, &mix(19));
    assert_eq!(a, b);
    assert_eq!(b, c);
}

#[test]
fn different_seeds_decorrelate_streams() {
    let pop = population();
    let a = generate_requests(&pop, &mix(1));
    let b = generate_requests(&pop, &mix(2));
    assert_ne!(a, b);
}

#[test]
fn stream_honors_the_configured_mix() {
    let pop = population();
    let reqs = generate_requests(
        &pop,
        &LoadMixConfig {
            n_requests: 4_000,
            seed: 3,
            ..LoadMixConfig::default()
        },
    );
    let count = |kind: &str| reqs.iter().filter(|r| r.kind() == kind).count();
    let (p, r, t, m) = (
        count("point"),
        count("range"),
        count("topk"),
        count("apply"),
    );
    assert_eq!(p + r + t + m, 4_000);
    // Default weights 45/15/20/20 with generous tolerance.
    assert!((1_500..=2_100).contains(&p), "points {p}");
    assert!((350..=900).contains(&r), "ranges {r}");
    assert!((500..=1_100).contains(&t), "topks {t}");
    assert!((500..=1_100).contains(&m), "mutations {m}");

    // Mutations include all three change kinds.
    let mut kinds = std::collections::BTreeSet::new();
    for req in &reqs {
        if let smartstore_service::Request::ApplyChange { change } = req {
            kinds.insert(match change {
                smartstore::versioning::Change::Insert(_) => "insert",
                smartstore::versioning::Change::Modify(_) => "modify",
                smartstore::versioning::Change::Delete(_) => "delete",
            });
        }
    }
    assert_eq!(
        kinds.len(),
        3,
        "insert+modify+delete all present: {kinds:?}"
    );
}
