//! The serve loop without its socket: a [`Session`] fed scripted bytes
//! against a fixed permit budget. Nothing here opens a socket, spawns
//! a thread or reads a clock, so admission, shedding and poisoning are
//! checked exactly rather than sampled under load.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use proptest::prelude::*;
use smartstore_net::loadgen::{generate_requests, LoadMixConfig};
use smartstore_net::{PermitPool, Round, Session};
use smartstore_persist::codec::put_record;
use smartstore_service::codec::{
    decode_response, decode_response_batch, encode_request, encode_request_batch,
};
use smartstore_service::{Request, Response};
use smartstore_trace::{GeneratorConfig, MetadataPopulation};

/// The stand-in evaluator: an answer that names its request, so order
/// and identity show in the response bytes.
fn answer(req: Request) -> Response {
    Response::Error(format!("answered {req:?}"))
}

fn points(range: std::ops::Range<usize>) -> Vec<Request> {
    range
        .map(|i| Request::Point {
            name: format!("file_{i:04}"),
        })
        .collect()
}

fn overloaded(global: usize, per_conn: usize) -> Response {
    Response::Overloaded(format!(
        "admission budget exhausted (global {global} / per-connection {per_conn})"
    ))
}

/// One round over whatever is buffered, decoded.
fn round(session: &mut Session<'_>) -> Option<(Round, Vec<Response>)> {
    let mut out = Vec::new();
    let round = session.serve(answer, &mut out)?;
    Some((round, decode_response_batch(&out).expect("typed frames")))
}

#[test]
fn a_batch_is_answered_in_order_and_admitted_up_to_the_budget() {
    for (n, global, per_conn) in [(10, 3, 5), (10, 8, 4), (4, 8, 8), (6, 1, 1), (5, 0, 0)] {
        let pool = PermitPool::new(global);
        let mut session = Session::new(&pool, per_conn, 64);
        let reqs = points(0..n);
        session.feed(&encode_request_batch(&reqs));
        let (r, resps) = round(&mut session).expect("a full batch is buffered");
        let admitted = global.max(1).min(per_conn.max(1)).min(n);
        assert_eq!(
            r.admitted, admitted as u64,
            "n {n} global {global} per-conn {per_conn}"
        );
        assert_eq!(r.shed, (n - admitted) as u64);
        assert_eq!(resps.len(), n, "one answer per frame");
        for (i, (req, resp)) in reqs.into_iter().zip(resps).enumerate() {
            let want = if i < admitted {
                answer(req)
            } else {
                overloaded(global, per_conn.max(1))
            };
            assert_eq!(
                resp, want,
                "answer {i} out of arrival order or mis-admitted"
            );
        }
        assert!(!r.close && !r.poisoned);
        assert_eq!(pool.available(), (global.max(1) - admitted) as i64);
        session.release();
        assert_eq!(pool.available(), global.max(1) as i64, "no permit leaks");
    }
}

#[test]
fn a_held_permit_sheds_another_sessions_whole_batch_until_released() {
    let pool = PermitPool::new(1);
    let mut a = Session::new(&pool, 4, 64);
    let mut b = Session::new(&pool, 4, 64);

    a.feed(&encode_request(&Request::Stats));
    let (ra, resps) = round(&mut a).expect("A's frame is buffered");
    assert_eq!((ra.admitted, ra.shed), (1, 0));
    assert_eq!(resps, vec![answer(Request::Stats)]);

    // A has written nothing yet, so it still holds the only permit.
    let reqs = points(0..3);
    b.feed(&encode_request_batch(&reqs));
    let (rb, resps) = round(&mut b).expect("B's batch is buffered");
    assert_eq!((rb.admitted, rb.shed), (0, 3));
    assert_eq!(resps, vec![overloaded(1, 4); 3]);

    a.release();
    b.feed(&encode_request_batch(&reqs));
    let (rb, resps) = round(&mut b).expect("B's retry is buffered");
    assert_eq!((rb.admitted, rb.shed), (1, 2), "one permit, one admission");
    assert_eq!(resps[0], answer(reqs[0].clone()));
    drop(b); // a dropped session returns what it holds
    assert_eq!(pool.available(), 1);
}

#[test]
fn a_shed_is_answered_in_the_round_its_frame_arrived() {
    let pool = PermitPool::new(1);
    let mut holder = Session::new(&pool, 1, 64);
    holder.feed(&encode_request(&Request::Stats));
    round(&mut holder).expect("holder admitted");

    let mut session = Session::new(&pool, 8, 64);
    for req in points(0..5) {
        // Nothing is buffered between frames: a shed request never
        // waits behind a permit for a later round.
        assert!(round(&mut session).is_none());
        session.feed(&encode_request(&req));
        let (r, resps) = round(&mut session).expect("the frame is answered at once");
        assert_eq!((r.admitted, r.shed), (0, 1));
        assert_eq!(resps, vec![overloaded(1, 8)]);
    }
    assert!(round(&mut session).is_none());
}

#[test]
fn a_stream_cut_inside_a_frame_answers_a_typed_torn_error_and_closes() {
    // The bytes `streaming.rs::torn_stream_poisons_its_connection_with_a_typed_error`
    // sends over a socket: half a Stats frame, then the write side closes.
    let pool = PermitPool::new(4);
    let mut session = Session::new(&pool, 4, 64);
    let wire = encode_request(&Request::Stats);
    session.feed(&wire[..wire.len() / 2]);
    assert!(round(&mut session).is_none(), "half a frame waits for more");
    session.feed_eof();
    let mut out = Vec::new();
    let r = session.serve(answer, &mut out).expect("EOF is answered");
    assert_eq!(
        (r.admitted, r.shed, r.poisoned, r.close),
        (0, 0, true, true)
    );
    let torn = wire.len() / 2;
    assert_eq!(
        decode_response(&out).expect("one typed frame"),
        Response::Error(format!(
            "connection poisoned: frame decode error at stream offset 0: \
             stream ended inside a frame ({torn} torn bytes)"
        ))
    );
    session.feed(&wire);
    assert!(
        round(&mut session).is_none(),
        "a closed session serves nothing"
    );
}

#[test]
fn a_corrupt_frame_answers_the_good_prefix_then_poisons() {
    let pool = PermitPool::new(8);
    let mut session = Session::new(&pool, 8, 64);
    let reqs = points(0..2);
    let mut wire = encode_request_batch(&reqs);
    let good = wire.len();
    wire.extend_from_slice(&encode_request(&Request::Stats));
    let last = wire.len() - 1;
    wire[last] ^= 0xff;
    session.feed(&wire);
    let (r, resps) = round(&mut session).expect("buffered");
    assert_eq!((r.admitted, r.poisoned, r.close), (2, true, true));
    assert_eq!(r.bytes_in, good as u64, "only verified frames count");
    assert_eq!(
        &resps[..2],
        &[answer(reqs[0].clone()), answer(reqs[1].clone())]
    );
    assert!(
        matches!(&resps[2], Response::Error(m) if m.starts_with("connection poisoned: frame decode error at stream offset")),
        "got {:?}",
        resps[2]
    );
}

#[test]
fn a_verified_frame_with_a_bad_payload_is_answered_typed_and_kept() {
    let pool = PermitPool::new(8);
    let mut session = Session::new(&pool, 8, 64);
    let mut wire = Vec::new();
    put_record(&mut wire, &[0xee]);
    wire.extend_from_slice(&encode_request(&Request::Stats));
    session.feed(&wire);
    let (r, resps) = round(&mut session).expect("buffered");
    assert_eq!((r.admitted, r.poisoned, r.close), (2, false, false));
    assert!(
        matches!(&resps[0], Response::Error(m) if m.starts_with("undecodable request payload")),
        "got {:?}",
        resps[0]
    );
    assert_eq!(resps[1], answer(Request::Stats));
}

/// Everything a session answered, round by round, and the counts it
/// reported. `release` returns permits after every round, as the
/// driver does once a round's bytes are written.
#[derive(Debug, Default, PartialEq)]
struct Transcript {
    out: Vec<u8>,
    admitted: u64,
    shed: u64,
    bytes_in: u64,
    poisoned: bool,
    closed: bool,
}

fn run(session: &mut Session<'_>, pieces: &[&[u8]], eof: bool, release: bool) -> Transcript {
    let mut t = Transcript::default();
    let drain = |session: &mut Session<'_>, t: &mut Transcript| {
        while let Some(r) = session.serve(answer, &mut t.out) {
            t.admitted += r.admitted;
            t.shed += r.shed;
            t.bytes_in += r.bytes_in;
            t.poisoned |= r.poisoned;
            t.closed |= r.close;
            if release {
                session.release();
            }
        }
    };
    for piece in pieces {
        session.feed(piece);
        drain(session, &mut t);
    }
    if eof {
        session.feed_eof();
        drain(session, &mut t);
    }
    t
}

fn population() -> MetadataPopulation {
    MetadataPopulation::generate(GeneratorConfig {
        n_files: 300,
        n_clusters: 6,
        seed: 19,
        ..GeneratorConfig::default()
    })
}

/// Cuts `wire` at the given offsets (taken modulo its length + 1); two
/// adjacent offsets make a 1-byte piece.
fn pieces(wire: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
    at.push(0);
    at.push(wire.len());
    at.sort_unstable();
    at.dedup();
    at.windows(2).map(|w| wire[w[0]..w[1]].to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frame fed is admitted or shed, once, and the counts the
    /// rounds report agree with the response bytes and with the pool,
    /// whatever the budget, the pipeline cap, the read sizes and
    /// whether permits come back between rounds.
    #[test]
    fn admitted_plus_shed_is_every_frame_fed(
        n in 0usize..40,
        global in 0usize..6,
        per_conn in 0usize..6,
        max_pipeline in 0usize..8,
        cuts in prop::collection::vec(0usize..4_000, 0..12),
        release in any::<bool>(),
    ) {
        let pool = PermitPool::new(global);
        let mut session = Session::new(&pool, per_conn, max_pipeline);
        let wire = encode_request_batch(&points(0..n));
        let split = pieces(&wire, &cuts);
        let refs: Vec<&[u8]> = split.iter().map(Vec::as_slice).collect();
        let t = run(&mut session, &refs, true, release);
        let resps = decode_response_batch(&t.out).expect("typed frames");
        prop_assert_eq!(t.admitted + t.shed, n as u64);
        prop_assert_eq!(resps.len(), n);
        let shed = resps.iter().filter(|r| matches!(r, Response::Overloaded(_))).count();
        prop_assert_eq!(shed as u64, t.shed);
        prop_assert_eq!(t.bytes_in, wire.len() as u64);
        prop_assert!(t.closed && !t.poisoned, "a clean EOF closes unpoisoned");
        let capacity = global.max(1) as i64;
        if !release {
            // Held permits: the first min(budget, cap) frames, nothing more.
            let cap = global.max(1).min(per_conn.max(1)).min(n);
            prop_assert_eq!(t.admitted, cap as u64);
            prop_assert_eq!(pool.available(), capacity - cap as i64);
            session.release();
        }
        prop_assert_eq!(pool.available(), capacity, "no permit leaks");
    }

    /// Short reads: a mixed stream fed whole and fed cut at random byte
    /// offsets (1-byte pieces included) gets the same response bytes
    /// and the same counts; a stream cut inside a frame ends both ways
    /// in the same typed torn frame.
    #[test]
    fn short_reads_never_change_the_answers(
        seed in 0u64..1_000,
        n in 1usize..60,
        cuts in prop::collection::vec(0usize..20_000, 0..40),
        one_byte_from in 0usize..20_000,
        cut_at in 0usize..20_000,
        truncate in any::<bool>(),
        hold in any::<bool>(),
    ) {
        let reqs = generate_requests(&population(), &LoadMixConfig {
            n_requests: n,
            seed,
            ..LoadMixConfig::default()
        });
        let mut wire = encode_request_batch(&reqs);
        if truncate {
            wire.truncate(cut_at % (wire.len() + 1));
        }
        // Holding permits sheds everything past the first few; releasing
        // after every round with a budget above the cap admits all. Either
        // way the verdicts do not depend on where the reads fall.
        let (global, per_conn) = if hold { (3, 2) } else { (64, 64) };

        let pool = PermitPool::new(global);
        let whole = run(&mut Session::new(&pool, per_conn, 16), &[&wire], true, !hold);

        // The random cuts, plus a stretch delivered one byte at a time.
        let from = one_byte_from % (wire.len() + 1);
        let mut at = cuts;
        at.extend(from..(from + 64).min(wire.len()));
        let split = pieces(&wire, &at);
        let refs: Vec<&[u8]> = split.iter().map(Vec::as_slice).collect();
        let pool = PermitPool::new(global);
        let cut = run(&mut Session::new(&pool, per_conn, 16), &refs, true, !hold);

        prop_assert_eq!(&cut, &whole);
        let resps = decode_response_batch(&whole.out).expect("typed frames");
        let complete = resps.len() - usize::from(whole.poisoned);
        prop_assert_eq!(whole.admitted + whole.shed, complete as u64);
        if hold {
            prop_assert_eq!(whole.admitted, complete.min(2) as u64);
        } else {
            prop_assert_eq!(whole.shed, 0);
        }
        let torn = encode_request_batch(&reqs[..complete]).len() < wire.len();
        prop_assert_eq!(whole.poisoned, torn);
        if torn {
            let last = resps.last().expect("the torn frame");
            prop_assert!(
                matches!(last, Response::Error(m) if m.starts_with("connection poisoned: ")
                    && m.contains("stream ended inside a frame")),
                "got {:?}", last
            );
        }
    }
}
