//! Network transport for the SmartStore metadata service.
//!
//! Everything below the service crate treats "the wire" as a byte
//! buffer; this crate makes it a real one. It provides:
//!
//! * [`frame`] — a streaming decoder for the CRC record framing over a
//!   socket: tolerant of short reads, partial frames and `EINTR`, with
//!   torn/corrupt frames surfacing as typed errors that poison only
//!   their connection;
//! * [`session`] — [`session::Session`], one connection's serving
//!   state without its socket: bytes in; response bytes and whether to
//!   close out, with admission against a shared
//!   [`session::PermitPool`] and poisoning decided inside, so both are
//!   tested with scripted bytes and no clock or thread;
//! * [`server`] — [`server::NetServer`], a blocking TCP +
//!   Unix-domain-socket front end for
//!   [`smartstore_service::MetadataServer`] with bounded-admission load
//!   shedding ([`smartstore_service::Response::Overloaded`]) and
//!   graceful drain-and-flush shutdown; its connection handlers drive
//!   [`session::Session`]s;
//! * [`transport`] — [`transport::SocketTransport`], the client-side
//!   [`smartstore_service::Transport`] over a socket, carrying
//!   bit-identical bytes to the in-process path so socket answers can
//!   be compared against in-process answers frame for frame;
//! * [`loadgen`] — deterministic mixed-workload request streams (the
//!   parity suite's and the example's input). The one load driver that
//!   times the socket path is the repository benchmark's client.

pub mod frame;
pub mod loadgen;
pub mod server;
pub mod session;
pub mod transport;

pub use frame::{FrameDecodeError, FrameEvent, FrameReadError, FrameReader};
pub use loadgen::{generate_requests, LoadMixConfig};
pub use server::{NetServer, NetServerConfig, NetServerHandle, NetServerStats};
pub use session::{PermitPool, Round, Session};
pub use transport::{NetAddr, SocketTransport};
