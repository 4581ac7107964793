//! Streaming-decode robustness (satellite 1): the frame decoder must
//! reassemble frames delivered byte-at-a-time and under random split
//! points, and torn/corrupt mid-stream frames must produce a typed
//! decode error that poisons only the offending connection — the server
//! keeps serving everyone else.

#![allow(clippy::disallowed_methods)] // tests and examples may unwrap

use proptest::prelude::*;
use smartstore_net::frame::{FrameEvent, FrameReadError, FrameReader, FRAME_HEADER_BYTES};
use smartstore_net::{NetAddr, NetServer, NetServerConfig, SocketTransport};
use smartstore_persist::codec::{get_record, put_record, FrameError};
use smartstore_service::codec::encode_request;
use smartstore_service::{MetadataServer, Request, Response, ServerConfig};
use smartstore_trace::{GeneratorConfig, MetadataPopulation};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Delivers a byte stream in chunks whose sizes come from a seeded
/// xorshift generator, then EOF.
struct SplitReader {
    data: Vec<u8>,
    pos: usize,
    state: u64,
    max_chunk: usize,
}

impl SplitReader {
    fn new(data: Vec<u8>, seed: u64, max_chunk: usize) -> Self {
        Self {
            data,
            pos: 0,
            state: seed | 1,
            max_chunk: max_chunk.max(1),
        }
    }
}

impl Read for SplitReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let n = (self.state as usize % self.max_chunk + 1)
            .min(out.len())
            .min(self.data.len() - self.pos);
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn frames(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for p in payloads {
        put_record(&mut wire, p);
    }
    wire
}

fn drain<R: Read>(reader: &mut FrameReader<R>) -> Result<Vec<Vec<u8>>, FrameReadError> {
    let mut got = Vec::new();
    loop {
        match reader.poll()? {
            FrameEvent::Frame(raw) => got.push(raw[FRAME_HEADER_BYTES..].to_vec()),
            FrameEvent::Eof => return Ok(got),
            FrameEvent::Pause => unreachable!("SplitReader never pauses"),
        }
    }
}

#[test]
fn every_frame_survives_byte_at_a_time_delivery() {
    let payloads: Vec<Vec<u8>> = (0..40u32)
        .map(|i| {
            (0..(i as usize * 7) % 300)
                .map(|b| (b as u8).wrapping_mul(31))
                .collect()
        })
        .collect();
    let wire = frames(&payloads);
    let mut reader = FrameReader::new(SplitReader::new(wire, 1, 1));
    assert_eq!(drain(&mut reader).expect("clean stream"), payloads);
}

#[test]
fn random_split_points_never_change_the_frames() {
    let payloads: Vec<Vec<u8>> = (0..64u32)
        .map(|i| format!("payload number {i} with some body text").into_bytes())
        .collect();
    let wire = frames(&payloads);
    for seed in 1..=32u64 {
        let mut reader = FrameReader::new(SplitReader::new(wire.clone(), seed, 13));
        assert_eq!(
            drain(&mut reader).expect("clean stream"),
            payloads,
            "split seed {seed} corrupted reassembly"
        );
    }
}

#[test]
fn corruption_at_any_byte_is_a_typed_error_never_a_wrong_frame() {
    let payloads: Vec<Vec<u8>> = (0..4u32).map(|i| vec![i as u8; 24]).collect();
    let clean = frames(&payloads);
    for victim in 0..clean.len() {
        // Corruption may truncate the stream with a typed error, but the
        // verified prefix must consist of the original frames only —
        // never invented or altered data.
        let mut reader = FrameReader::new(SplitReader::new(corrupt(&clean, victim), 7, 5));
        let mut seen = 0usize;
        loop {
            match reader.poll() {
                Ok(FrameEvent::Frame(raw)) => {
                    assert_eq!(
                        raw[FRAME_HEADER_BYTES..].to_vec(),
                        payloads[seen],
                        "byte {victim}: verified frame differs from the original"
                    );
                    seen += 1;
                }
                Ok(FrameEvent::Eof) => break,
                Ok(FrameEvent::Pause) => unreachable!(),
                Err(FrameReadError::Decode(_)) => break,
                Err(FrameReadError::Io(e)) => panic!("unexpected I/O error: {e}"),
            }
        }
        assert!(
            seen < payloads.len(),
            "byte {victim}: a corrupted stream cannot deliver every frame intact"
        );
    }
}

fn corrupt(clean: &[u8], victim: usize) -> Vec<u8> {
    let mut wire = clean.to_vec();
    wire[victim] ^= 0x40;
    wire
}

/// The verified frames of a byte sequence and where its framing broke
/// (`None` = clean end at a frame boundary).
type Verdict = (Vec<Vec<u8>>, Option<u64>);

fn slice_verdict(wire: &[u8]) -> Verdict {
    let mut got = Vec::new();
    let mut pos = 0;
    loop {
        match get_record(wire, pos) {
            Ok((payload, next)) => {
                got.push(payload.to_vec());
                pos = next;
            }
            Err(FrameError::Eof) => return (got, None),
            Err(FrameError::Torn { offset, .. }) => return (got, Some(offset as u64)),
        }
    }
}

fn stream_verdict(wire: &[u8], split_seed: u64) -> Verdict {
    let mut reader = FrameReader::new(SplitReader::new(wire.to_vec(), split_seed, 11));
    let mut got = Vec::new();
    loop {
        match reader.poll() {
            Ok(FrameEvent::Frame(raw)) => got.push(raw[FRAME_HEADER_BYTES..].to_vec()),
            Ok(FrameEvent::Eof) => return (got, None),
            Ok(FrameEvent::Pause) => unreachable!("SplitReader never pauses"),
            Err(FrameReadError::Decode(e)) => return (got, Some(e.offset)),
            Err(FrameReadError::Io(e)) => panic!("unexpected I/O error: {e}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both entries of the one `[len][crc32][payload]` parser — the
    /// slice walk the WAL and the batch codec use, and the streaming
    /// reader a socket feeds — must accept the same frames and give up
    /// at the same byte, whatever was cut off or flipped.
    #[test]
    fn slice_and_stream_entries_reach_the_same_verdict(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..8),
        cut in 0usize..10_000,
        flip in 0usize..100_000,
        damage in 0u8..3,
        split_seed in 1u64..u64::MAX,
    ) {
        let mut wire = frames(&payloads);
        if damage != 1 {
            let bit = flip % (wire.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        if damage != 0 {
            wire.truncate(cut % (wire.len() + 1));
        }
        let by_slice = slice_verdict(&wire);
        prop_assert_eq!(&stream_verdict(&wire, split_seed), &by_slice);
        // A verified prefix is made of original frames only.
        prop_assert!(by_slice.0.len() <= payloads.len());
        prop_assert_eq!(&by_slice.0[..], &payloads[..by_slice.0.len()]);
    }
}

#[test]
fn poisoned_connection_dies_alone() {
    let pop = MetadataPopulation::generate(GeneratorConfig {
        n_files: 400,
        n_clusters: 6,
        seed: 3,
        ..GeneratorConfig::default()
    });
    let server = MetadataServer::build(
        pop.files.clone(),
        &ServerConfig {
            n_shards: 2,
            units_per_shard: 6,
            seed: 3,
            store_dir: None,
            ..ServerConfig::default()
        },
    )
    .expect("server builds");
    let handle = NetServer::spawn(server, NetServerConfig::default()).expect("spawns");
    let addr = handle.tcp_addr().expect("tcp");

    // Connection A: a frame whose CRC lies. It must get a typed error
    // frame back, then EOF.
    let mut bad = TcpStream::connect(addr).expect("connect");
    let mut wire = encode_request(&Request::Stats);
    let last = wire.len() - 1;
    wire[last] ^= 0xff;
    bad.write_all(&wire).expect("send corrupt frame");
    let mut reader = FrameReader::new(bad.try_clone().expect("clone"));
    match reader.poll().expect("server answers before closing") {
        FrameEvent::Frame(raw) => {
            let resp = smartstore_service::codec::decode_response(&raw).expect("typed frame");
            match resp {
                Response::Error(msg) => {
                    assert!(msg.contains("poisoned"), "unexpected error text: {msg}")
                }
                other => panic!("expected typed decode error, got {other:?}"),
            }
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(
        matches!(reader.poll(), Ok(FrameEvent::Eof)),
        "poisoned connection must be closed"
    );

    // Connection B: still served, bit-for-bit business as usual.
    let mut good = SocketTransport::connect(NetAddr::Tcp(addr)).expect("connect");
    let mut client = smartstore_service::Client::new();
    let resp = client
        .call(
            &mut good,
            Request::Point {
                name: pop.files[0].name.clone(),
            },
        )
        .expect("healthy connection still serves");
    assert!(matches!(resp, Response::Query(_)), "got {resp:?}");

    let (_, stats) = handle.shutdown().expect("clean shutdown");
    assert_eq!(stats.decode_poisoned, 1, "exactly one poisoned connection");
}

#[test]
fn torn_stream_poisons_its_connection_with_a_typed_error() {
    let pop = MetadataPopulation::generate(GeneratorConfig {
        n_files: 200,
        n_clusters: 4,
        seed: 5,
        ..GeneratorConfig::default()
    });
    let server = MetadataServer::build(
        pop.files.clone(),
        &ServerConfig {
            n_shards: 1,
            units_per_shard: 6,
            seed: 5,
            store_dir: None,
            ..ServerConfig::default()
        },
    )
    .expect("server builds");
    let handle = NetServer::spawn(server, NetServerConfig::default()).expect("spawns");
    let addr = handle.tcp_addr().expect("tcp");

    let mut conn = TcpStream::connect(addr).expect("connect");
    let wire = encode_request(&Request::Stats);
    // Half a frame, then half-close: the server sees EOF mid-frame.
    conn.write_all(&wire[..wire.len() / 2])
        .expect("send torn frame");
    conn.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut buf = Vec::new();
    conn.read_to_end(&mut buf).expect("read final frame");
    let resp = smartstore_service::codec::decode_response(&buf).expect("typed frame");
    assert!(
        matches!(&resp, Response::Error(m) if m.contains("torn")),
        "expected torn-frame error, got {resp:?}"
    );
    let (_, stats) = handle.shutdown().expect("clean shutdown");
    assert_eq!(stats.decode_poisoned, 1);
}
