//! TCP front-end wrapping the [`Engine`]: an acceptor thread plus one
//! blocking reader thread per client, speaking the length-prefixed frame
//! protocol of [`crate::proto`].
//!
//! The acceptor never blocks on query execution: a request either lands
//! in the client's bounded queue or is rejected immediately with a typed
//! error by [`EngineHandle::submit`]. Responses are written by whichever
//! thread produced them (a lane for query results, the reader for
//! control requests) under a per-client writer lock, so a query result
//! and a `Stats` reply never interleave mid-frame; the lock recovers
//! from poisoning ([`crate::engine`]'s fault-containment argument).
//!
//! Shutdown wakes the blocked `accept(2)` by shutting down the listening
//! socket itself — the previous design connected to its own port, which
//! raced real clients (the wake-up could be consumed by a concurrent
//! connect, leaving the acceptor blocked, or admit a client post-drain).

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

use df_obs::{Path, Tracer};

use crate::engine::{Engine, EngineHandle};
use crate::proto::{read_frame, response_frame, Request, Response, ServeError};
#[cfg(unix)]
use crate::sys;

/// State shared by the acceptor, the reader threads, and shutdown.
struct ServerShared {
    handle: EngineHandle,
    trace: Option<Arc<Tracer>>,
    stopping: AtomicBool,
    addr: SocketAddr,
    /// A dup of the acceptor's listener (same open file description),
    /// kept so shutdown can fail a blocked `accept()` without racing the
    /// acceptor thread's own handle.
    listener: TcpListener,
}

impl ServerShared {
    /// Write one whole response frame (length prefix included) with one
    /// `write_all`, tallying its payload bytes outbound. Write errors
    /// mean the client vanished; the reader thread will notice on its
    /// side, so they are swallowed here.
    fn send(&self, writer: &Mutex<TcpStream>, client: usize, frame: &[u8]) {
        let payload = (frame.len() - 4) as u64;
        self.handle
            .stats()
            .bytes_out
            .fetch_add(payload, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.transfer(Path::ClientOut, client as u32, payload);
        }
        // Poison recovery: a panicking writer leaves at worst a torn
        // frame on one client's socket (that client's reader then drops
        // the connection); other threads keep answering their clients.
        // One write for the whole frame: a separate prefix write would
        // meet Nagle + delayed ACK (see `proto::write_frame`).
        let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.write_all(frame);
    }

    /// Begin server shutdown: stop admitting, wake the acceptor, let the
    /// dispatcher drain what is queued.
    fn begin_shutdown(&self) {
        self.handle.shutdown();
        if self.stopping.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        // Fail the blocked `accept()` by shutting down the listening
        // socket — race-free, unlike the old self-connect wake-up (a
        // real client could consume the wake, or the connect could fail
        // and leave the acceptor blocked forever).
        #[cfg(unix)]
        let _ = sys::shutdown_socket(self.listener.as_raw_fd());
        #[cfg(not(unix))]
        let _ = TcpStream::connect(self.addr);
    }

    /// Decode and dispatch one inbound frame payload for `client`,
    /// answering on `writer`.
    fn handle_payload(
        self: &Arc<Self>,
        client: usize,
        writer: &Arc<Mutex<TcpStream>>,
        payload: &[u8],
    ) {
        self.handle
            .stats()
            .bytes_in
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.transfer(Path::ClientIn, client as u32, payload.len() as u64);
        }
        let request = match Request::decode(payload) {
            Ok(r) => r,
            Err(e) => {
                // Framing is still intact (length prefix), so answer the
                // malformed request and keep serving the connection.
                let error = ServeError::Protocol {
                    detail: e.to_string(),
                };
                let frame = response_frame(&Response::Error { id: 0, error });
                self.send(writer, client, &frame);
                return;
            }
        };
        // The engine answers from whichever thread concludes the
        // request, on this client's writer.
        let shutdown = request == Request::Shutdown;
        let (shared, writer) = (Arc::clone(self), Arc::clone(writer));
        let reply = Box::new(move |frame: Vec<u8>| shared.send(&writer, client, &frame));
        self.handle.serve(client, request, reply);
        if shutdown {
            self.begin_shutdown();
        }
    }
}

/// A running df-serve instance: engine dispatcher + acceptor + client
/// readers. Dropping the struct does not stop it; call [`Server::join`]
/// after a shutdown request, or [`Server::shutdown`] to initiate one.
pub struct Server {
    shared: Arc<ServerShared>,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Start serving `engine` on `listener` with one blocking reader
    /// thread per connection. The listener may be bound to port 0;
    /// [`Server::local_addr`] reports the resolved address.
    ///
    /// # Errors
    /// Propagates listener address/dup failures.
    pub fn start(listener: TcpListener, engine: Engine) -> io::Result<Server> {
        let shared = Arc::new(ServerShared {
            handle: engine.handle(),
            trace: engine.trace(),
            stopping: AtomicBool::new(false),
            addr: listener.local_addr()?,
            listener: listener.try_clone()?,
        });
        let dispatcher = thread::Builder::new()
            .name("serve-dispatch".into())
            .spawn(move || engine.run())
            .expect("spawn dispatcher");
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A submission-side handle to the engine (stats, shutdown).
    pub fn handle(&self) -> EngineHandle {
        self.shared.handle.clone()
    }

    /// Initiate shutdown from the host process (equivalent to a client
    /// sending [`Request::Shutdown`]).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the acceptor and dispatcher to exit. Reader threads for
    /// still-connected clients are detached; they exit when their client
    /// hangs up or on the next request (answered `ShuttingDown`).
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // `begin_shutdown` shut the listening socket down, or a
                // transient per-connection error (ECONNABORTED) fired.
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stopping.load(Ordering::SeqCst) {
            // A client racing shutdown; drop it unserved.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        // Results are latency-sensitive small frames; never let Nagle
        // batch them behind the peer's delayed ACK.
        stream.set_nodelay(true).ok();
        let client = shared.handle.register_client();
        let shared = Arc::clone(shared);
        // Detached on purpose: the thread exits when the client hangs up.
        let _ = thread::Builder::new()
            .name(format!("serve-client-{client}"))
            .spawn(move || client_loop(stream, client, &shared));
    }
}

/// One reader thread: decode frames, dispatch requests, reply. Exits on
/// client EOF or an unreadable stream.
fn client_loop(stream: TcpStream, client: usize, shared: &Arc<ServerShared>) {
    let writer = match stream.try_clone() {
        Ok(writer) => Arc::new(Mutex::new(writer)),
        Err(_) => {
            shared.handle.close_client(client);
            return;
        }
    };
    let mut reader = io::BufReader::new(stream);
    // Clean EOF and a torn connection end the loop alike: either way the
    // client is gone and its queued work is dropped.
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        shared.handle_payload(client, &writer, &payload);
    }
    shared.handle.close_client(client);
}
