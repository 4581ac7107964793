//! The socket front end: TCP + Unix-domain-socket serving for a
//! [`MetadataServer`] with bounded-admission load shedding.
//!
//! Architecture: one accept thread polls the (nonblocking) listeners
//! and hands each accepted connection to a dedicated work-stealing pool
//! ([`rayon`]'s shim `ThreadPool`); a connection handler owns its
//! socket for the connection's lifetime and drives that connection's
//! [`Session`]: it reads, feeds the session, writes what the session
//! answered and releases its permits. Requests arrive as CRC-framed
//! records (the exact bytes [`smartstore_service::codec`] produces for
//! the in-process path), each answered with one response frame in
//! arrival order, so a client can pipeline a whole batch and count
//! replies.
//!
//! **Admission control.** The server holds a *bounded in-flight budget*:
//! a global permit pool ([`NetServerConfig::max_inflight`]) plus a
//! per-connection cap ([`NetServerConfig::max_inflight_per_conn`]).
//! Permits are acquired when a request is drained off the socket and
//! released once its response bytes are written (the decision is the
//! [`Session`]'s, see [`crate::session`]); a request that cannot
//! get a permit is answered immediately with a typed
//! [`Response::Overloaded`] instead of queueing unboundedly — the
//! client backs off with jitter and retries. Queueing delay therefore
//! lives in the kernel socket buffers and the bounded pipeline, never
//! in an unbounded in-process queue.
//!
//! **Graceful shutdown.** [`NetServerHandle::shutdown`] flips a stop
//! flag; connection handlers (whose reads time out on
//! [`NetServerConfig::poll_interval`]) finish answering every request
//! they have already drained — so every *acknowledged* mutation was
//! really applied — then close. The accept thread joins the pool,
//! per-shard WALs are flushed, and the inner [`MetadataServer`] is
//! handed back to the caller.

use crate::frame::write_all_retry;
use crate::session::{PermitPool, Round, Session};
use crate::transport::Conn;
use rayon::ThreadPoolBuilder;
use smartstore_service::{MetadataServer, Request, Response};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Front-end shape and admission limits.
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Listen on loopback TCP (an ephemeral port; see
    /// [`NetServerHandle::tcp_addr`]).
    pub tcp: bool,
    /// Also listen on this Unix-domain-socket path (unlinked on
    /// shutdown; a stale socket file is replaced).
    pub uds_path: Option<PathBuf>,
    /// Global in-flight permit budget: requests drained off sockets but
    /// not yet answered. Exhaustion sheds with [`Response::Overloaded`].
    pub max_inflight: usize,
    /// Per-connection share of the budget, so one pipelining client
    /// cannot monopolize it.
    pub max_inflight_per_conn: usize,
    /// Most frames drained (and admitted) per read round on one
    /// connection.
    pub max_pipeline: usize,
    /// Worker threads executing connection handlers. Values below 2 are
    /// raised to 2: the shim pool runs `spawn` inline when it has no
    /// workers, which would wedge the accept loop.
    pub conn_threads: usize,
    /// Socket read timeout / accept poll interval — the latency bound
    /// on noticing the stop flag.
    pub poll_interval: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self {
            tcp: true,
            uds_path: None,
            max_inflight: 256,
            max_inflight_per_conn: 64,
            max_pipeline: 64,
            conn_threads: 4,
            poll_interval: Duration::from_millis(20),
        }
    }
}

/// Monotonic serving counters, snapshotted by [`NetServerHandle::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetServerStats {
    /// Connections accepted across both listeners.
    pub connections_accepted: u64,
    /// Connections fully closed.
    pub connections_closed: u64,
    /// Requests admitted past the permit gate and served.
    pub requests_admitted: u64,
    /// Requests shed with [`Response::Overloaded`].
    pub requests_shed: u64,
    /// Mutations among the admitted requests.
    pub mutations_applied: u64,
    /// Connections poisoned by a torn/corrupt frame.
    pub decode_poisoned: u64,
    /// Request bytes read off sockets (verified frames only).
    pub bytes_in: u64,
    /// Response bytes written.
    pub bytes_out: u64,
}

#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_closed: AtomicU64,
    requests_admitted: AtomicU64,
    requests_shed: AtomicU64,
    mutations_applied: AtomicU64,
    decode_poisoned: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> NetServerStats {
        NetServerStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            requests_admitted: self.requests_admitted.load(Ordering::Relaxed),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            mutations_applied: self.mutations_applied.load(Ordering::Relaxed),
            decode_poisoned: self.decode_poisoned.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }

    fn add(&self, round: &Round, bytes_out: usize) {
        self.requests_admitted
            .fetch_add(round.admitted, Ordering::Relaxed);
        self.requests_shed.fetch_add(round.shed, Ordering::Relaxed);
        self.decode_poisoned
            .fetch_add(u64::from(round.poisoned), Ordering::Relaxed);
        self.bytes_in.fetch_add(round.bytes_in, Ordering::Relaxed);
        self.bytes_out
            .fetch_add(bytes_out as u64, Ordering::Relaxed);
    }
}

struct Shared {
    server: RwLock<MetadataServer>,
    stop: AtomicBool,
    permits: PermitPool,
    stats: Counters,
    limits: NetServerConfig,
}

/// The running front end.
pub struct NetServer;

/// Handle to a spawned [`NetServer`]. Dropping it without
/// [`NetServerHandle::shutdown`] still stops serving — connections
/// answer what they drained, the accept thread is joined, the
/// listeners close and the UDS path is unlinked — but does not flush
/// WALs.
pub struct NetServerHandle {
    shared: Arc<Shared>,
    join: Option<std::thread::JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

impl NetServer {
    /// Binds the configured listeners, starts the accept thread and its
    /// connection pool, and returns the handle. TCP binds
    /// `127.0.0.1:0`; the chosen port is in
    /// [`NetServerHandle::tcp_addr`].
    pub fn spawn(server: MetadataServer, cfg: NetServerConfig) -> std::io::Result<NetServerHandle> {
        let tcp = if cfg.tcp {
            let l = TcpListener::bind("127.0.0.1:0")?;
            l.set_nonblocking(true)?;
            Some(l)
        } else {
            None
        };
        let tcp_addr = match &tcp {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let uds = match &cfg.uds_path {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            server: RwLock::new(server),
            stop: AtomicBool::new(false),
            permits: PermitPool::new(cfg.max_inflight),
            stats: Counters::default(),
            limits: cfg.clone(),
        });
        let sh = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("net-accept".into())
            .spawn(move || accept_loop(&sh, tcp, uds))?;
        Ok(NetServerHandle {
            shared,
            join: Some(join),
            tcp_addr,
            uds_path: cfg.uds_path,
        })
    }
}

impl NetServerHandle {
    /// The bound TCP address, when TCP is enabled.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix-domain-socket path, when enabled.
    pub fn uds_path(&self) -> Option<&PathBuf> {
        self.uds_path.as_ref()
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> NetServerStats {
        self.shared.stats.snapshot()
    }

    /// Graceful shutdown: stop accepting, let every connection answer
    /// the requests it already drained, flush per-shard WALs, and hand
    /// the inner server back.
    pub fn shutdown(mut self) -> std::io::Result<(MetadataServer, NetServerStats)> {
        let joined = self.halt();
        let shared = Arc::clone(&self.shared);
        drop(self);
        joined.map_err(|_| std::io::Error::other("net accept thread panicked"))?;
        let stats = shared.stats.snapshot();
        let shared = Arc::try_unwrap(shared)
            .map_err(|_| std::io::Error::other("net server state still referenced"))?;
        let mut server = shared
            .server
            .into_inner()
            .map_err(|_| std::io::Error::other("metadata server lock poisoned"))?;
        server
            .sync()
            .map_err(|e| std::io::Error::other(format!("WAL flush on shutdown: {e}")))?;
        Ok((server, stats))
    }

    /// Stops accepting, waits for the accept thread (which waits for
    /// every connection handler) and unlinks the UDS path. Idempotent.
    fn halt(&mut self) -> std::thread::Result<()> {
        self.shared.stop.store(true, Ordering::SeqCst);
        let joined = self.join.take().map_or(Ok(()), |join| join.join());
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
        joined
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

fn accept_loop(shared: &Arc<Shared>, tcp: Option<TcpListener>, uds: Option<UnixListener>) {
    let pool = match ThreadPoolBuilder::new()
        // +1: the accept loop itself occupies the scope's calling slot.
        .num_threads(shared.limits.conn_threads.max(2) + 1)
        .build()
    {
        Ok(pool) => pool,
        Err(_) => {
            // No worker pool means no way to serve; stop accepting so
            // shutdown() returns instead of hanging.
            shared.stop.store(true, Ordering::SeqCst);
            return;
        }
    };
    pool.scope(|s| {
        while !shared.stop.load(Ordering::SeqCst) {
            let mut accepted = false;
            if let Some(l) = &tcp {
                match l.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nodelay(true);
                        spawn_conn(shared, s, Conn::Tcp(stream));
                        accepted = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
            }
            if let Some(l) = &uds {
                match l.accept() {
                    Ok((stream, _peer)) => {
                        spawn_conn(shared, s, Conn::Unix(stream));
                        accepted = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
            }
            if !accepted {
                std::thread::sleep(shared.limits.poll_interval.min(Duration::from_millis(5)));
            }
        }
        // Scope exit now waits for every connection handler; they see
        // the stop flag within one poll interval, answer what they
        // drained, and return.
    });
}

fn spawn_conn<'a>(shared: &'a Arc<Shared>, s: &rayon::Scope<'a>, conn: Conn) {
    shared
        .stats
        .connections_accepted
        .fetch_add(1, Ordering::Relaxed);
    let sh = Arc::clone(shared);
    s.spawn(move |_| handle_conn(&sh, conn));
}

/// Drives one connection's [`Session`]. A round makes one blocking
/// read when nothing is buffered, serves what is, makes one write and
/// then releases the round's permits.
fn handle_conn(sh: &Shared, mut conn: Conn) {
    let _ = conn.set_read_timeout(Some(sh.limits.poll_interval));
    let mut session = Session::new(
        &sh.permits,
        sh.limits.max_inflight_per_conn,
        sh.limits.max_pipeline,
    );
    let mut eval = |req| evaluate(sh, req);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut out = Vec::new();
    // The stop check sits *before* a fresh round: frames a round takes
    // off the buffer are answered in it, so nothing acknowledged is
    // ever dropped.
    while !sh.stop.load(Ordering::SeqCst) {
        out.clear();
        let mut round = session.serve(&mut eval, &mut out);
        if round.is_none() {
            match conn.read(&mut chunk) {
                Ok(0) => session.feed_eof(),
                Ok(n) => session.feed(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                Err(_) => break,
            }
            round = session.serve(&mut eval, &mut out);
        }
        let Some(round) = round else { continue };
        let written = if out.is_empty() {
            Ok(())
        } else {
            write_all_retry(&mut conn, &out)
        };
        session.release();
        sh.stats.add(&round, out.len());
        if written.is_err() || round.close {
            break;
        }
    }
    let _ = conn.shutdown_both();
    sh.stats.connections_closed.fetch_add(1, Ordering::Relaxed);
}

fn evaluate(sh: &Shared, req: Request) -> Response {
    match req {
        Request::ApplyChange { change } => {
            sh.stats.mutations_applied.fetch_add(1, Ordering::Relaxed);
            sh.server
                .write()
                .unwrap_or_else(|p| p.into_inner())
                .apply(change)
        }
        read => sh
            .server
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .serve_read(&read),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use smartstore_service::ServerConfig;
    use smartstore_trace::{GeneratorConfig, MetadataPopulation};
    use std::os::unix::net::UnixStream;

    #[test]
    fn dropping_the_handle_stops_serving_and_unlinks_the_socket() {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files: 200,
            n_clusters: 4,
            seed: 8,
            ..GeneratorConfig::default()
        });
        let server = MetadataServer::build(
            pop.files,
            &ServerConfig {
                n_shards: 1,
                units_per_shard: 4,
                seed: 8,
                store_dir: None,
                ..ServerConfig::default()
            },
        )
        .expect("server builds");
        let path =
            std::env::temp_dir().join(format!("smartstore_drop_{}.sock", std::process::id()));
        let handle = NetServer::spawn(
            server,
            NetServerConfig {
                tcp: false,
                uds_path: Some(path.clone()),
                ..NetServerConfig::default()
            },
        )
        .expect("spawns");
        let idle = UnixStream::connect(&path).expect("serving before the drop");
        drop(handle);
        assert!(!path.exists(), "the socket file outlived its server");
        assert!(
            UnixStream::connect(&path).is_err(),
            "a dropped server still accepts"
        );
        drop(idle);
    }
}
