//! Bloom filters for SmartStore's filename-based point queries.
//!
//! The paper (§3.3.3): "Bloom filters, which are space-efficient data
//! structures for membership queries, are embedded into storage and index
//! units to support fast filename-based query services. A Bloom filter is
//! built for each leaf node … The Bloom filter of an index unit is
//! obtained by the logical union operations of the Bloom filters of its
//! child nodes."
//!
//! The experimental setup (§5.1) fixes each filter at 1024 bits with
//! k = 7 hash functions and derives index bits from an MD5 digest split
//! into four 32-bit words; both choices are reproduced here, including an
//! [`md5`] implementation written from scratch (RFC 1321) — MD5 is used
//! purely as a fast mixing function, not for security.
//!
//! MD5 is, however, a poor mixing function by modern standards: at
//! ~one compression per four hash rounds it dominates routing latency.
//! [`HashFamily`] therefore makes the index derivation selectable —
//! [`HashFamily::Md5`] reproduces the paper bit for bit, while the
//! default [`HashFamily::Fast`] drives Kirsch–Mitzenmacher double
//! hashing from a single one-pass 64-bit hash (see [`hash`]).
//!
//! Either way the key is hashed once per hierarchy it is looked up
//! in, not once per filter: [`HashFamily::prepare`] yields a small
//! `Copy` [`PreparedKey`] and [`BloomFilter::contains_prepared`] probes
//! with it, so the ≈ 30 filters a point query meets on its way down one
//! shard's tree and at the routed units share one hash.
//! [`BloomFilter::contains`] is the same probe over a key prepared on
//! the spot.

pub mod counting;
pub mod filter;
pub mod hash;
pub mod hierarchy;
pub mod md5;

pub use counting::CountingBloomFilter;
pub use filter::{BloomFilter, PAPER_BITS, PAPER_HASHES};
pub use hash::{HashFamily, PreparedKey};
pub use hierarchy::BloomHierarchy;
