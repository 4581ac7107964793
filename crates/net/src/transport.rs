//! The client-side socket transport.
//!
//! [`SocketTransport`] implements the service crate's
//! [`Transport`] trait over a real TCP or Unix-domain-socket
//! connection, carrying *bit-identical* wire bytes to the in-process
//! transport: the request leg is exactly the framed batch
//! `encode_request_batch` produced, and the response leg is the raw
//! concatenation of the server's response frames, handed unmodified to
//! `decode_response_batch`. Connection failures surface as retryable
//! [`TransportError`]s (so `Client::call_with_retry` reconnects and
//! backs off); torn or corrupt response frames surface as non-retryable
//! wire errors.

use crate::frame::{write_all_retry, FrameEvent, FrameReadError, FrameReader};
use smartstore_service::codec::WireError;
use smartstore_service::{Transport, TransportError, TransportResult};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Where a metadata service listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetAddr {
    /// TCP, e.g. `127.0.0.1:4915`.
    Tcp(std::net::SocketAddr),
    /// Unix-domain socket path.
    Uds(PathBuf),
}

impl std::fmt::Display for NetAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetAddr::Tcp(a) => write!(f, "tcp://{a}"),
            NetAddr::Uds(p) => write!(f, "uds://{}", p.display()),
        }
    }
}

/// One duplex socket, TCP or UDS.
#[derive(Debug)]
pub(crate) enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    pub(crate) fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }

    pub(crate) fn shutdown_both(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

fn dial(addr: &NetAddr) -> std::io::Result<Conn> {
    Ok(match addr {
        NetAddr::Tcp(a) => {
            let s = TcpStream::connect(a)?;
            let _ = s.set_nodelay(true);
            Conn::Tcp(s)
        }
        NetAddr::Uds(p) => Conn::Unix(UnixStream::connect(p)?),
    })
}

/// A [`Transport`] over one socket connection. Created disconnected or
/// connected; `Client::call_with_retry` drives [`Transport::reconnect`]
/// after retryable failures.
pub struct SocketTransport {
    addr: NetAddr,
    conn: Option<(Conn, FrameReader<Conn>)>,
}

impl SocketTransport {
    /// Connects to `addr` now, failing fast if the server is not there.
    pub fn connect(addr: NetAddr) -> TransportResult<Self> {
        let mut t = Self::lazy(addr);
        t.reconnect()?;
        Ok(t)
    }

    /// A transport that dials on first use (or first `reconnect`).
    pub fn lazy(addr: NetAddr) -> Self {
        Self { addr, conn: None }
    }

    /// The peer address.
    pub fn addr(&self) -> &NetAddr {
        &self.addr
    }

    fn ensure_connected(&mut self) -> TransportResult<()> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        Ok(())
    }
}

fn io_err(e: std::io::Error) -> TransportError {
    TransportError::Io {
        reason: e.to_string(),
    }
}

impl Transport for SocketTransport {
    /// Writes the framed request batch, then reads exactly `expected`
    /// response frames, returning their raw bytes for the client's
    /// decode path — the same bytes the in-process transport yields.
    fn exchange(&mut self, request_wire: &[u8], expected: usize) -> TransportResult<Vec<u8>> {
        self.ensure_connected()?;
        let Some((writer, reader)) = self.conn.as_mut() else {
            return Err(TransportError::Protocol(
                "socket transport lost its connection after connect".to_string(),
            ));
        };
        if let Err(e) = write_all_retry(writer, request_wire) {
            self.conn = None;
            return Err(io_err(e));
        }
        let mut out = Vec::new();
        for _ in 0..expected {
            loop {
                match reader.poll() {
                    Ok(FrameEvent::Frame(raw)) => {
                        out.extend_from_slice(&raw);
                        break;
                    }
                    Ok(FrameEvent::Pause) => continue,
                    Ok(FrameEvent::Eof) => {
                        self.conn = None;
                        return Err(TransportError::Closed);
                    }
                    Err(FrameReadError::Decode(e)) => {
                        // The stream's framing is lost; drop the
                        // connection, but surface the *wire* error — a
                        // retry would re-decode the same garbage.
                        self.conn = None;
                        return Err(TransportError::Wire(WireError::Frame {
                            offset: e.offset as usize,
                            reason: e.reason,
                        }));
                    }
                    Err(FrameReadError::Io(e)) => {
                        self.conn = None;
                        return Err(io_err(e));
                    }
                }
            }
        }
        Ok(out)
    }

    fn reconnect(&mut self) -> TransportResult<()> {
        self.conn = None;
        let writer = dial(&self.addr).map_err(io_err)?;
        let reader = FrameReader::new(writer.try_clone().map_err(io_err)?);
        self.conn = Some((writer, reader));
        Ok(())
    }

    fn is_remote(&self) -> bool {
        true
    }
}
