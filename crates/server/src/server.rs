//! Server lifecycle: bind, accept, serve, drain, report.
//!
//! Threading model: one acceptor thread polls a non-blocking listener and
//! spawns a plain OS thread per accepted connection (see the private
//! `conn` module), which polls its socket briefly before each blocking
//! read (see [`crate::frame`]). Shutdown is a single shared [`AtomicBool`] that the
//! acceptor and every connection poll on their idle ticks — raised either
//! by [`ServerHandle::request_shutdown`] or by a `Shutdown` request on
//! any connection — so the whole fleet drains within one read-timeout of
//! the flag flipping. The acceptor joins each connection thread that has
//! exited on its next pass; [`ServerHandle::shutdown`] joins the rest,
//! flushes the telemetry export, and returns a per-tenant summary.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use stack2d::sync::atomic::{AtomicBool, Ordering};
use stack2d::sync::{thread, Arc};

use crate::conn::{serve_connection, ConnContext};
use crate::frame::DEFAULT_MAX_FRAME_LEN;
use crate::protocol::{Personality, Response};
use crate::telemetry::ServerTelemetry;
use crate::tenant::{TenantConfig, TenantMap};

/// How often the acceptor re-polls a non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Per-connection read timeout; doubles as the shutdown-flag poll cadence
/// for idle connections.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_millis(25);

/// Everything a server needs to start.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Sizing/cadence knobs applied to every tenant structure.
    pub tenants: TenantConfig,
    /// When set, telemetry artefacts are written here at shutdown.
    pub telemetry_dir: Option<PathBuf>,
    /// Ceiling on accepted frame bodies.
    pub max_frame_len: u32,
    /// Socket read timeout; bounds how long shutdown takes to propagate.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            tenants: TenantConfig::default(),
            telemetry_dir: None,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            read_timeout: DEFAULT_READ_TIMEOUT,
        }
    }
}

/// One tenant's lifetime totals, reported at shutdown.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// Which personality the tenant was created under.
    pub personality: Personality,
    /// Tenant name.
    pub name: String,
    /// Total structure operations observed by the metrics recorder.
    pub ops: u64,
    /// Elastic retunes applied over the tenant's lifetime.
    pub retunes: u64,
}

/// What a graceful shutdown observed.
#[derive(Debug)]
pub struct ShutdownReport {
    /// One summary per tenant that existed at shutdown.
    pub tenants: Vec<TenantSummary>,
    /// Telemetry artefact paths, when a telemetry directory was set.
    pub telemetry: Vec<PathBuf>,
}

/// Entry point: [`Server::spawn`] binds and returns a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `config.addr`, starts the acceptor, and returns the handle.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let telemetry = config.telemetry_dir.as_deref().map(ServerTelemetry::new);
        let registry = telemetry.as_ref().map(ServerTelemetry::registry);
        let tenants = Arc::new(TenantMap::new(config.tenants.clone(), registry));
        let stop = Arc::new(AtomicBool::new(false));

        let acceptor = {
            let tenants = Arc::clone(&tenants);
            let stop = Arc::clone(&stop);
            let max_frame_len = config.max_frame_len;
            let read_timeout = config.read_timeout;
            thread::spawn(move || {
                accept_loop(&listener, &tenants, &stop, max_frame_len, read_timeout)
            })
        };

        Ok(ServerHandle { local_addr, stop, tenants, telemetry, acceptor: Some(acceptor) })
    }
}

type ConnHandles = Vec<thread::JoinHandle<()>>;

fn accept_loop(
    listener: &TcpListener,
    tenants: &Arc<TenantMap>,
    stop: &Arc<AtomicBool>,
    max_frame_len: u32,
    read_timeout: Duration,
) -> ConnHandles {
    let mut conns: ConnHandles = Vec::new();
    let mut next_conn_id: u64 = 1;
    while !stop.load(Ordering::Acquire) {
        reap(&mut conns);
        match listener.accept() {
            Ok((stream, _peer)) => {
                let ctx = ConnContext {
                    tenants: Arc::clone(tenants),
                    stop: Arc::clone(stop),
                    max_frame_len,
                    conn_id: next_conn_id,
                };
                next_conn_id += 1;
                if configure(&stream, read_timeout).is_ok() {
                    conns.push(thread::spawn(move || serve_connection(stream, ctx)));
                }
                // A stream we cannot configure is dropped (closed) here.
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
    conns
}

/// Joins the connection threads that have exited, so a finished thread's
/// stack is given back now rather than at shutdown.
fn reap(conns: &mut ConnHandles) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

fn configure(stream: &TcpStream, read_timeout: Duration) -> io::Result<()> {
    // Accepted sockets can inherit the listener's non-blocking flag on
    // some platforms; the connection loop wants timeout-based blocking.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_nodelay(true)
}

/// Owner handle for a running server.
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    tenants: Arc<TenantMap>,
    telemetry: Option<ServerTelemetry>,
    acceptor: Option<thread::JoinHandle<ConnHandles>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Raises the shutdown flag without blocking.
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested (locally or over the wire).
    pub fn shutdown_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Blocks until shutdown is requested, polling on the accept cadence.
    pub fn wait(&self) {
        while !self.shutdown_requested() {
            thread::sleep(ACCEPT_POLL);
        }
    }

    /// Raises the shutdown flag, joins the acceptor and every connection,
    /// flushes telemetry, and returns the per-tenant summary.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the telemetry export; the threads are
    /// already joined by then.
    pub fn shutdown(mut self) -> io::Result<ShutdownReport> {
        self.request_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            if let Ok(conns) = acceptor.join() {
                for conn in conns {
                    let _ = conn.join();
                }
            }
        }
        let tenants = summarize(&self.tenants);
        let telemetry = match self.telemetry.take() {
            Some(t) => t.finish()?,
            None => Vec::new(),
        };
        Ok(ShutdownReport { tenants, telemetry })
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            if let Ok(conns) = acceptor.join() {
                for conn in conns {
                    let _ = conn.join();
                }
            }
        }
    }
}

fn summarize(tenants: &TenantMap) -> Vec<TenantSummary> {
    let mut out: Vec<TenantSummary> = tenants
        .all()
        .iter()
        .map(|t| {
            let (ops, retunes) = match t.stats() {
                Response::Stats { ops, retunes, .. } => (ops, retunes),
                _ => (0, 0),
            };
            TenantSummary { personality: t.personality(), name: t.name().to_string(), ops, retunes }
        })
        .collect();
    out.sort_by(|a, b| (a.personality.name(), &a.name).cmp(&(b.personality.name(), &b.name)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack2d::sync::atomic::AtomicBool;

    #[test]
    fn finished_connection_threads_are_reaped_and_live_ones_kept() {
        let hold = Arc::new(AtomicBool::new(true));
        let mut conns: ConnHandles = (0..3).map(|_| thread::spawn(|| {})).collect();
        let live = Arc::clone(&hold);
        conns.push(thread::spawn(move || {
            while live.load(Ordering::Acquire) {
                thread::sleep(Duration::from_millis(1));
            }
        }));
        while conns[..3].iter().any(|c| !c.is_finished()) {
            thread::sleep(Duration::from_millis(1));
        }
        reap(&mut conns);
        assert_eq!(conns.len(), 1, "the three exited threads were joined");
        assert!(!conns[0].is_finished());
        hold.store(false, Ordering::Release);
        while !conns[0].is_finished() {
            thread::sleep(Duration::from_millis(1));
        }
        reap(&mut conns);
        assert!(conns.is_empty());
    }

    #[test]
    fn the_acceptor_keeps_no_handle_of_a_closed_connection() {
        let handle = Server::spawn(ServerConfig::default()).expect("bind");
        for _ in 0..5 {
            let mut client = crate::Client::connect(handle.local_addr()).expect("connect");
            client.ping().expect("ping");
        }
        // Each client has closed, so its thread sees EOF and exits, and
        // the acceptor, passing every 2 ms, joins it on its next pass.
        thread::sleep(Duration::from_millis(500));
        let mut handle = handle;
        handle.request_shutdown();
        let conns = handle.acceptor.take().expect("acceptor").join().expect("join");
        assert!(conns.is_empty(), "{} connection handles kept", conns.len());
    }
}
