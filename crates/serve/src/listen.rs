//! The protocol-server shell: the listener, the acceptor and the
//! per-connection frame loop that `psj serve` and the cluster router both
//! run, each behind its own [`Service`].
//!
//! ```text
//! acceptor ──► connection thread: read frame ─► decode ─► respond ─► write
//! ```
//!
//! * **Acceptor** — one thread per connection; each accept drops the
//!   handles of connection threads that have exited, and a failed accept
//!   backs off before the next, so a persistent error (EMFILE, say) does
//!   not spin a core.
//! * **Framing** — a read timeout is only a chance to check the halt flag.
//!   An oversized length prefix or a mid-frame EOF cannot be
//!   resynchronized: the client gets an error frame (best effort) and a
//!   hang-up. A sound frame whose payload does not decode gets an error
//!   frame and the connection keeps serving. Both count as protocol
//!   errors ([`Service::proto_error`]).
//! * **Shutdown** — a client [`Request::Shutdown`] is acknowledged here,
//!   closes that connection and wakes [`Listener::wait`]; the service never
//!   sees it. [`Listener::stop`] halts the acceptor and joins every
//!   connection thread, which exit at their next read timeout.

use crate::protocol::{read_frame, write_frame, Request, Response, MAX_REQUEST_FRAME};
use psj_store::lock_clean;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What a protocol server does with a request; the [`Listener`] does the
/// rest.
pub trait Service: Send + Sync + 'static {
    /// Answers one decoded request. Never called with
    /// [`Request::Shutdown`], which the listener answers itself.
    fn respond(&self, req: Request) -> Response;

    /// Counts one malformed client frame.
    fn proto_error(&self);
}

/// Pause before retrying after `accept` fails.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// What the acceptor and the connection threads share with the handle.
struct Control {
    /// The acceptor and connection threads must exit.
    halt: AtomicBool,
    /// Taken by the first client `Shutdown`; wakes [`Listener::wait`].
    shutdown_tx: Mutex<Option<mpsc::Sender<()>>>,
}

impl Control {
    fn halted(&self) -> bool {
        self.halt.load(Ordering::Acquire)
    }
}

/// A bound socket serving one [`Service`]. Dropping it without
/// [`Listener::stop`] leaks its threads; its owners always stop it.
pub struct Listener {
    ctl: Arc<Control>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    /// Connection threads still running as of the last accept.
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shutdown_rx: mpsc::Receiver<()>,
}

impl Listener {
    /// Binds `addr` and starts the acceptor: each connection gets a thread
    /// that reads with `read_timeout` and answers through `service`. `name`
    /// prefixes the threads' names.
    pub fn start<S: Service>(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
        name: &str,
        service: Arc<S>,
    ) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (shutdown_tx, shutdown_rx) = mpsc::channel();
        let ctl = Arc::new(Control {
            halt: AtomicBool::new(false),
            shutdown_tx: Mutex::new(Some(shutdown_tx)),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let (ctl, conns) = (Arc::clone(&ctl), Arc::clone(&conns));
            let conn_name = format!("{name}-conn");
            std::thread::Builder::new()
                .name(format!("{name}-acceptor"))
                .spawn(move || {
                    for stream in listener.incoming() {
                        if ctl.halted() {
                            break;
                        }
                        let Ok(stream) = stream else {
                            std::thread::sleep(ACCEPT_BACKOFF);
                            continue;
                        };
                        let (ctl, service) = (Arc::clone(&ctl), Arc::clone(&service));
                        let h = std::thread::Builder::new()
                            .name(conn_name.clone())
                            .spawn(move || serve_conn(&*service, &ctl, stream, read_timeout))
                            .expect("spawn connection thread");
                        let mut conns = lock_clean(&conns);
                        conns.retain(|c| !c.is_finished());
                        conns.push(h);
                    }
                })?
        };
        Ok(Listener {
            ctl,
            addr,
            acceptor,
            conns,
            shutdown_rx,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection threads held: those running as of the last accept.
    pub fn connections(&self) -> usize {
        lock_clean(&self.conns).len()
    }

    /// Blocks until a client sends [`Request::Shutdown`].
    pub fn wait(&self) {
        let _ = self.shutdown_rx.recv();
    }

    /// Halts the acceptor and joins it and every connection thread; a
    /// connection thread exits at its next read timeout, or when its
    /// client hangs up.
    pub fn stop(self) {
        self.ctl.halt.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        let conns: Vec<JoinHandle<()>> = std::mem::take(&mut *lock_clean(&self.conns));
        for c in conns {
            let _ = c.join();
        }
    }
}

/// One connection's frame loop, until the client hangs up, asks for
/// shutdown, breaks the framing or the listener halts.
fn serve_conn<S: Service>(service: &S, ctl: &Control, stream: TcpStream, read_timeout: Duration) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(read_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut reply = |resp: Response| write_frame(&mut writer, &resp.encode_or_error());

    loop {
        let payload = match read_frame(&mut reader, MAX_REQUEST_FRAME) {
            Ok(Some(p)) => p,
            Ok(None) => return, // client closed cleanly
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if ctl.halted() {
                    return;
                }
                continue;
            }
            Err(e) => {
                // Oversized prefix or mid-frame EOF: the stream cannot be
                // resynchronized — report (best effort) and hang up.
                service.proto_error();
                if e.kind() == io::ErrorKind::InvalidData {
                    let _ = reply(Response::Error(e.to_string()));
                }
                return;
            }
        };
        let resp = match Request::decode(&payload) {
            Ok(Request::Shutdown) => {
                let _ = reply(Response::ShutdownAck);
                if let Some(tx) = lock_clean(&ctl.shutdown_tx).take() {
                    let _ = tx.send(());
                }
                return;
            }
            Ok(req) => service.respond(req),
            Err(e) => {
                // Framing was sound, the payload was not: the stream is
                // still in sync, so answer and keep serving.
                service.proto_error();
                Response::Error(e.to_string())
            }
        };
        if reply(resp).is_err() {
            return;
        }
    }
}
