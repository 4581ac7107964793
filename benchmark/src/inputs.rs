//! Benchmark-owned, seed-stable inputs.
//!
//! The population comes from the repository's MSN trace model; the
//! request streams come from the generator below (own splitmix64, own
//! Zipf sampler), not from `smartstore_net::loadgen` or the `rand`
//! shim, so a later change to either cannot silently change what the
//! server is asked. The server receives only the encoded frames.

use smartstore_service::codec::encode_request;
use smartstore_service::{QueryOptions, Request};
use smartstore_trace::{FileMetadata, TraceKind, WorkloadModel, ATTR_DIMS};

/// Files in the population of every workload.
pub const N_FILES: usize = 50_000;
/// Top-k result size (the paper evaluates k = 8).
pub const TOP_K: usize = 8;
/// Zipf exponent of file popularity over access-count-ranked files.
pub const ZIPF_S: f64 = 0.9;
/// Share of point lookups that ask for a name no file has.
pub const GHOST_SHARE: f64 = 0.05;
/// Range half-width as a share of each constrained dimension's domain.
pub const RANGE_HALF_WIDTH: f64 = 0.05;
/// Attribute dimensions a range query constrains: mtime, read_bytes,
/// write_bytes (indexes into `FileMetadata::attr_vector`).
pub const RANGE_DIMS: [usize; 3] = [2, 4, 5];
/// Marks "no file" in [`Stream::expected_point`].
pub const NO_FILE: u64 = u64::MAX;

/// splitmix64 (Steele, Lea & Flood): the benchmark's only random source.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf over ranks `0..n` by inverting a precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a, 64 bit: the digest of inputs and of file sets.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Every field of a record, floats by bit pattern.
    pub fn file(&mut self, f: &FileMetadata) {
        self.u64(f.file_id);
        self.bytes(f.name.as_bytes());
        self.bytes(f.dir.as_bytes());
        self.u64(f.owner as u64);
        self.u64(f.size);
        self.u64(f.ctime.to_bits());
        self.u64(f.mtime.to_bits());
        self.u64(f.atime.to_bits());
        self.u64(f.read_bytes);
        self.u64(f.write_bytes);
        self.u64(f.access_count as u64);
        self.u64(f.proc_id as u64);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The MSN-model population every run serves; `file_id` equals the
/// index.
pub fn population(n_files: usize) -> Vec<FileMetadata> {
    WorkloadModel::new(TraceKind::Msn)
        .generate(n_files, crate::fleet::DEPLOYMENT_SEED)
        .files
}

/// What a request asks for; also the index into per-kind arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Point = 0,
    Range = 1,
    TopK = 2,
    Write = 3,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Point, Kind::Range, Kind::TopK, Kind::Write];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::Range => "range",
            Kind::TopK => "topk",
            Kind::Write => "write",
        }
    }
}

/// Request shares of one connection, in percent.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub point: u32,
    pub range: u32,
    pub topk: u32,
    pub write: u32,
}

/// One connection's pre-encoded request stream. A stream that holds
/// mutations is a closed cycle: every file it inserts it also deletes,
/// so a client that reaches the end starts over on a valid state.
pub struct Stream {
    frames: Vec<u8>,
    starts: Vec<usize>,
    kinds: Vec<Kind>,
    /// For a point lookup, the id the population assigns the name, or
    /// [`NO_FILE`] for a ghost; unused for other kinds.
    expected_point: Vec<u64>,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    pub fn frame(&self, i: usize) -> &[u8] {
        &self.frames[self.starts[i]..self.starts[i + 1]]
    }

    pub fn kind(&self, i: usize) -> Kind {
        self.kinds[i]
    }

    pub fn expected_point(&self, i: usize) -> u64 {
        self.expected_point[i]
    }

    /// Bytes of all frames (for the memory note in the report).
    pub fn bytes(&self) -> usize {
        self.frames.len()
    }

    pub fn digest_into(&self, d: &mut Digest) {
        d.u64(self.len() as u64);
        d.bytes(&self.frames);
    }

    fn push(&mut self, req: &Request, kind: Kind, expected_point: u64) {
        self.frames.extend_from_slice(&encode_request(req));
        self.starts.push(self.frames.len());
        self.kinds.push(kind);
        self.expected_point.push(expected_point);
    }
}

/// Generates a stream of about `n` requests over `files` (a few more
/// when the closing deletes of a mutation cycle are appended).
/// Deterministic in (`files`, `mix`, `n`, `seed`).
pub fn generate(files: &[FileMetadata], mix: Mix, n: usize, seed: u64) -> Stream {
    let mut rng = SplitMix64::new(seed);
    // Popularity ranking: most-accessed first, id as the tie-break, so
    // the Zipf head lands on the files the trace model made hot.
    let mut ranked: Vec<usize> = (0..files.len()).collect();
    ranked.sort_by_key(|&i| (std::cmp::Reverse(files[i].access_count), files[i].file_id));
    let zipf = Zipf::new(files.len(), ZIPF_S);
    let (lo_b, hi_b) = attr_bounds(files);

    // Mutations accumulate: a file modified twice carries both bumps.
    let mut current: Vec<FileMetadata> = if mix.write > 0 {
        files.to_vec()
    } else {
        Vec::new()
    };
    let mut next_id = files.iter().map(|f| f.file_id).max().unwrap_or(0) + 1;
    let mut live_inserts: Vec<u64> = Vec::new();

    let total = mix.point + mix.range + mix.topk + mix.write;
    let mut out = Stream {
        frames: Vec::new(),
        starts: vec![0],
        kinds: Vec::with_capacity(n),
        expected_point: Vec::with_capacity(n),
    };
    for i in 0..n {
        let slot = ranked[zipf.sample(&mut rng)];
        let hot = &files[slot];
        let draw = rng.below(total as usize) as u32;
        if draw < mix.point {
            if rng.next_f64() < GHOST_SHARE {
                let name = format!("ghost_bm_{i:08}");
                out.push(&Request::Point { name }, Kind::Point, NO_FILE);
            } else {
                let name = hot.name.clone();
                out.push(&Request::Point { name }, Kind::Point, hot.file_id);
            }
        } else if draw < mix.point + mix.range {
            let center = hot.attr_vector();
            let mut lo = vec![0.0; ATTR_DIMS];
            let mut hi = vec![0.0; ATTR_DIMS];
            for d in 0..ATTR_DIMS {
                if RANGE_DIMS.contains(&d) {
                    let half = (hi_b[d] - lo_b[d]) * RANGE_HALF_WIDTH;
                    lo[d] = center[d] - half;
                    hi[d] = center[d] + half;
                } else {
                    lo[d] = lo_b[d] - 1.0;
                    hi[d] = hi_b[d] + 1.0;
                }
            }
            let opts = QueryOptions::offline();
            out.push(&Request::Range { lo, hi, opts }, Kind::Range, NO_FILE);
        } else if draw < mix.point + mix.range + mix.topk {
            let point = hot.attr_vector().to_vec();
            let opts = QueryOptions::offline().with_k(TOP_K);
            out.push(&Request::TopK { point, opts }, Kind::TopK, NO_FILE);
        } else {
            let change = next_change(
                &mut rng,
                &mut current[slot],
                &mut live_inserts,
                &mut next_id,
            );
            out.push(&Request::ApplyChange { change }, Kind::Write, NO_FILE);
        }
    }
    for id in live_inserts {
        let change = smartstore::versioning::Change::Delete(id);
        out.push(&Request::ApplyChange { change }, Kind::Write, NO_FILE);
    }
    out
}

/// 50 % modify, 25 % insert, 25 % delete of an earlier insert; a delete
/// drawn while no insert is live becomes an insert, so the population
/// stays near its starting size and population files are never deleted.
fn next_change(
    rng: &mut SplitMix64,
    hot: &mut FileMetadata,
    live_inserts: &mut Vec<u64>,
    next_id: &mut u64,
) -> smartstore::versioning::Change {
    use smartstore::versioning::Change;
    let m = rng.next_f64();
    if m < 0.25 && !live_inserts.is_empty() {
        let victim = live_inserts.swap_remove(rng.below(live_inserts.len()));
        Change::Delete(victim)
    } else if (0.25..0.75).contains(&m) {
        hot.mtime += 1.0;
        hot.write_bytes += 4096;
        hot.access_count += 1;
        Change::Modify(hot.clone())
    } else {
        let mut f = hot.clone();
        f.file_id = *next_id;
        f.name = format!("bm_ins_{:08}", *next_id);
        f.truth_cluster = None;
        live_inserts.push(*next_id);
        *next_id += 1;
        Change::Insert(f)
    }
}

fn attr_bounds(files: &[FileMetadata]) -> ([f64; ATTR_DIMS], [f64; ATTR_DIMS]) {
    let mut lo = [f64::INFINITY; ATTR_DIMS];
    let mut hi = [f64::NEG_INFINITY; ATTR_DIMS];
    for f in files {
        for (d, x) in f.attr_vector().into_iter().enumerate() {
            lo[d] = lo[d].min(x);
            hi[d] = hi[d].max(x);
        }
    }
    (lo, hi)
}

/// Everything one run serves: the population and one stream per
/// connection.
pub struct Inputs {
    pub files: Vec<FileMetadata>,
    pub streams: Vec<Stream>,
}

impl Inputs {
    pub fn build(workload: &crate::spec::Workload, n_files: usize, seed: u64) -> Self {
        let files = population(n_files);
        let n = workload.stream_len;
        let streams: Vec<Stream> = workload
            .connections
            .iter()
            .enumerate()
            .map(|(c, &mix)| {
                let conn_seed = seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                generate(&files, mix, n, conn_seed)
            })
            .collect();
        Self { files, streams }
    }

    /// The digest that shows two commits served the same inputs. Taken
    /// on demand: hashing every frame is the benchmark's own work and
    /// has no place in `setup_s`.
    pub fn digest(&self) -> u64 {
        inputs_digest(&self.files, &self.streams)
    }
}

/// Digest of the population and of every stream served from it.
pub fn inputs_digest(files: &[FileMetadata], streams: &[Stream]) -> u64 {
    let mut d = Digest::default();
    for f in files {
        d.file(f);
    }
    for s in streams {
        s.digest_into(&mut d);
    }
    d.value()
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_mutation_cycle_closes() {
        let files = population(400);
        let mix = Mix {
            point: 40,
            range: 10,
            topk: 10,
            write: 40,
        };
        let a = [generate(&files, mix, 2_000, 9)];
        let b = [generate(&files, mix, 2_000, 9)];
        assert_eq!(inputs_digest(&files, &a), inputs_digest(&files, &b));
        let c = [generate(&files, mix, 2_000, 10)];
        assert_ne!(inputs_digest(&files, &a), inputs_digest(&files, &c));
        let a = &a[0];

        // Replaying the cycle leaves exactly the population's ids.
        let mut live: std::collections::BTreeSet<u64> = files.iter().map(|f| f.file_id).collect();
        for i in 0..a.len() {
            use smartstore::versioning::Change;
            let req = smartstore_service::codec::decode_request(a.frame(i)).unwrap();
            if let Request::ApplyChange { change } = req {
                match change {
                    Change::Insert(f) => assert!(live.insert(f.file_id), "insert of a live id"),
                    Change::Delete(id) => assert!(live.remove(&id), "delete of a dead id"),
                    Change::Modify(f) => assert!(live.contains(&f.file_id)),
                }
            }
        }
        assert_eq!(live.len(), files.len());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1_000, ZIPF_S);
        let mut rng = SplitMix64::new(1);
        let head = (0..10_000).filter(|_| z.sample(&mut rng) < 100).count();
        assert!(head > 3_000, "head share {head}");
    }
}
